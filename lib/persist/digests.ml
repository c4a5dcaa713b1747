(** Stable state digests for differential comparison.

    Two granularities, compared only by {!Trial.verdict} (which also
    projects {!arch} to its clock-free part):

    - {!arch}: the cross-configuration *architectural* state — GPRs,
      EIP, architectural EFLAGS, a physical-memory digest (with caller-
      chosen masked ranges, e.g. dead stack bytes), MMIO/port access
      counts, UART output and the frame-buffer checksum.
    - {!strict}: everything the host-fast-path differential compares —
      the architectural state plus every {!Cms.Stats.counters} entry
      (the host-side ones zeroed), molecule and retired counts,
      SMC/protection event counters and the whole {!Vliw.Perf} record.

    All digests go through {!Stable}'s codecs, never [Marshal], so they
    are compiler-version-independent. *)

type arch = {
  gprs : int list;
  eip : int;
  eflags : int;
  mem : Digest.t;
  mmio_reads : int;
  mmio_writes : int;
  port_ops : int;
  uart : string;
  fb : int;
}

(** Digest of physical memory with [mask] byte ranges ([lo, hi)
    exclusive) read as zero: {!Machine.Phys.digest}, which leaves RAM
    and its written flags as they were. *)
let mem_digest ?mask (c : Cms.t) =
  Machine.Phys.digest ?mask (Cms.mem c).Machine.Mem.phys

let arch ?mask (c : Cms.t) =
  let m = Cms.mem c in
  let bus = m.Machine.Mem.bus in
  {
    gprs = List.map (Cms.gpr c) X86.Regs.all;
    eip = Cms.eip c;
    eflags = Cms.eflags c;
    mem = mem_digest ?mask c;
    mmio_reads = bus.Machine.Bus.mmio_reads;
    mmio_writes = bus.Machine.Bus.mmio_writes;
    port_ops = bus.Machine.Bus.port_ops;
    uart = Cms.uart_output c;
    fb = Machine.Framebuf.checksum (Cms.platform c).Machine.Platform.fb;
  }

(** Which fields of two architectural states differ (for divergence
    reports). *)
let arch_diff x y =
  let d = ref [] in
  let add fmt = Format.kasprintf (fun s -> d := s :: !d) fmt in
  List.iteri
    (fun i (a, b) ->
      if a <> b then add "%s=%#x/%#x" X86.Regs.name32.(i) a b)
    (List.combine x.gprs y.gprs);
  if x.eip <> y.eip then add "eip=%#x/%#x" x.eip y.eip;
  if x.eflags <> y.eflags then add "eflags=%#x/%#x" x.eflags y.eflags;
  if x.mem <> y.mem then add "mem";
  if x.mmio_reads <> y.mmio_reads then
    add "mmio_reads=%d/%d" x.mmio_reads y.mmio_reads;
  if x.mmio_writes <> y.mmio_writes then
    add "mmio_writes=%d/%d" x.mmio_writes y.mmio_writes;
  if x.port_ops <> y.port_ops then add "port_ops=%d/%d" x.port_ops y.port_ops;
  if x.uart <> y.uart then add "uart";
  if x.fb <> y.fb then add "fb=%d/%d" x.fb y.fb;
  String.concat " " (List.rev !d)

let w_arch b (a : arch) =
  Codec.w_list b Codec.w_int a.gprs;
  Codec.w_int b a.eip;
  Codec.w_int b a.eflags;
  Codec.w_string b a.mem;
  Codec.w_int b a.mmio_reads;
  Codec.w_int b a.mmio_writes;
  Codec.w_int b a.port_ops;
  Codec.w_string b a.uart;
  Codec.w_int b a.fb

(** Hex fingerprint of an architectural state (for journals and
    human-readable reports). *)
let arch_hex (a : arch) =
  let b = Codec.writer () in
  w_arch b a;
  Digest.to_hex (Codec.digest b)

(* Host-side counters ({!Cms.Stats.counter.host}) legitimately differ
   across equivalent runs, so they are zeroed before digesting. *)
let normalized_stats (s : Cms.Stats.t) =
  let s = Cms.Stats.copy s in
  List.iter
    (fun c -> if c.Cms.Stats.host then c.Cms.Stats.set s 0)
    Cms.Stats.counters;
  s

(** The strict digest (see module doc) of [c], whose architectural
    digest the caller has already taken as [a]. *)
let strict (a : arch) (c : Cms.t) : Digest.t =
  let b = Codec.writer () in
  w_arch b a;
  Codec.w_fields Stable.stats b (normalized_stats (Cms.stats c));
  Codec.w_int b (Cms.total_molecules c);
  Codec.w_int b (Cms.retired c);
  let m = Cms.mem c in
  Codec.w_int b m.Machine.Mem.smc_events;
  Codec.w_int b m.Machine.Mem.page_prot_faults;
  Codec.w_int b m.Machine.Mem.dma_smc_events;
  Codec.w_fields Stable.perf b (Cms.perf c);
  Codec.digest b

let strict_hex d = Digest.to_hex d
