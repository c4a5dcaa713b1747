(** Stable state digests for differential comparison.

    Two granularities, shared by the fuzzer's oracles, the soak drill
    and the record-replay verifier:

    - {!arch}: the cross-configuration *architectural* state — GPRs,
      EIP, architectural EFLAGS, a physical-memory digest (with caller-
      chosen masked ranges, e.g. dead stack bytes), MMIO/port access
      counts, UART output and the frame-buffer checksum.
    - {!strict}: everything the host-fast-path differential compares —
      the architectural state plus full {!Cms.Stats} (host-cache and
      persist counters normalized to zero), molecule and retired counts,
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
    exclusive) zeroed first. *)
let mem_digest ?(mask = []) (c : Cms.t) =
  let m = Cms.mem c in
  let data = m.Machine.Mem.phys.Machine.Phys.data in
  match mask with
  | [] -> Digest.bytes data
  | _ ->
      let d = Bytes.copy data in
      List.iter (fun (lo, hi) -> Bytes.fill d lo (hi - lo) '\x00') mask;
      Digest.bytes d

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

let r_arch r : arch =
  let gprs = Codec.r_list r Codec.r_int in
  let eip = Codec.r_int r in
  let eflags = Codec.r_int r in
  let mem = Codec.r_string r in
  let mmio_reads = Codec.r_int r in
  let mmio_writes = Codec.r_int r in
  let port_ops = Codec.r_int r in
  let uart = Codec.r_string r in
  let fb = Codec.r_int r in
  { gprs; eip; eflags; mem; mmio_reads; mmio_writes; port_ops; uart; fb }

(** Hex fingerprint of an architectural state (for journals and
    human-readable reports). *)
let arch_hex (a : arch) =
  let b = Codec.writer () in
  w_arch b a;
  Digest.to_hex (Digest.string (Codec.contents b))

(* Host-side counters that legitimately differ across equivalent runs
   (fast paths on/off, resumed vs uninterrupted) are normalized to zero
   before digesting. *)
let normalized_stats (s : Cms.Stats.t) =
  {
    s with
    Cms.Stats.tlb_hits = 0;
    tlb_misses = 0;
    dcache_hits = 0;
    dcache_misses = 0;
    dcache_invalidations = 0;
    ram_fast_reads = 0;
    ram_fast_writes = 0;
    snapshots_written = 0;
    snapshot_bytes = 0;
    journal_events = 0;
    resumes = 0;
    aot_loaded = 0;
    aot_rejected = 0;
    aot_hits = 0;
    aot_x86_retired = 0;
    aot_invalidated = 0;
    (* the steady-state tier is observationally invisible; its own
       bookkeeping legitimately differs across closure/chaining
       on-off-equivalent runs *)
    closures_compiled = 0;
    chained_exits_taken = 0;
    chain_unlinks_evict = 0;
    chain_unlinks_demote = 0;
    chain_unlinks_smc = 0;
    chain_unlinks_aot = 0;
    chain_unlinks_chaos = 0;
    (* the shared store is a fleet-level accelerator: hit/miss patterns
       depend on which machine published first (worker-domain and shard
       scheduling), never on the architectural schedule *)
    store_hits = 0;
    store_misses = 0;
    store_rejects = 0;
    store_quarantines = 0;
    store_published = 0;
  }

(** The strict digest (see module doc). *)
let strict ?mask (c : Cms.t) : Digest.t =
  let b = Codec.writer () in
  w_arch b (arch ?mask c);
  Stable.w_stats b (normalized_stats (Cms.stats c));
  Codec.w_int b (Cms.total_molecules c);
  Codec.w_int b (Cms.retired c);
  let m = Cms.mem c in
  Codec.w_int b m.Machine.Mem.smc_events;
  Codec.w_int b m.Machine.Mem.page_prot_faults;
  Codec.w_int b m.Machine.Mem.dma_smc_events;
  Stable.w_perf b (Cms.perf c);
  Digest.string (Codec.contents b)

let strict_hex d = Digest.to_hex d
