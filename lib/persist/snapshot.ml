(** Versioned machine snapshots at commit boundaries.

    A snapshot captures the complete guest-visible machine state — CPU
    register file (working and shadow copies), MMU page table, sparse
    physical memory, and every platform device — plus the soft CMS state
    worth carrying across a restore: cumulative {!Cms.Stats} /
    {!Vliw.Perf} counters and the adaptation table (demotion ladder
    budgets and quarantines).  Host-side caches — the translation cache,
    the derived page-protection state, the profile, the decode cache and
    the TLB — are deliberately *not* restored: they are pure
    accelerators whose absence only costs retranslation, and restoring
    cold exercises exactly the paper's adaptive-retranslation story.
    Nor are the TLB's and the RAM fast path's hit counters saved: a
    restored machine starts them at 0, like the caches they count.
    An image holds only what {!restore} reads: no derived section, and
    each counter once, in STAT (the translation cache's flushes,
    evictions and chained-exit unlinks and the adaptation table's
    evictions are {!Cms.Stats} counters).

    Capture is only legal at a consistent commit boundary (working =
    shadow registers, store buffer empty) — precisely where
    [Engine.on_boundary] fires — so a restored machine re-enters the
    dispatch loop as if it had just committed.  {!freeze}, and so
    {!capture}, raises {!Inconsistent} anywhere else.

    Every section is one {!Codec.field} table, which {!freeze} writes
    and {!restore} reads back.  Restore rebuilds the machine from the
    image alone: it reads META and CONF, makes a machine of the RAM size
    PMEM starts with, and reads every state section into it —
    RAM and the disk image included — so a resumed run needs no access
    to the original workload files. *)

type meta = {
  label : string;
  retired : int;  (** retired-instruction clock at capture *)
  molecules : int;  (** device-time clock at capture *)
  irq_cursor : int;  (** journal IRQ events already delivered *)
  sync_cursor : int;  (** journal DMA/protection events already fired *)
}

exception Inconsistent of string
(** attempted capture away from a commit boundary *)

(* version 2: the embedded Stats record grew the AOT counters.
   version 3: Config grew closure_exec/chain_exits, Stats the
   closure/chaining counters.
   version 4: Config grew the background-translator knob and queue
   bound, Stats the background-translation counters.
   version 5: NIC device section (NICC), the PIC's deferred-raise
   counter in IRQC, Stats the interrupt-pressure counters.
   version 6: Stats grew the shared-translation-store (fleet) counters.
   version 7: the background translator is gone: Config lost its knob
   and queue bound, Stats its counters.
   version 8: the decoder tier is gone: Config lost closure_exec,
   chain_exits, validate_molecules and enforce_latency.
   version 9: Config lost the verifier knob (the verifier runs on
   every translation).
   version 10: Config lost the fourteen fixed budgets and charges
   (now {!Cms.Config} constants); MMUS lost the software TLB's hit and
   miss counts and PMEM the RAM fast path's read and write counts,
   host counters that a restored machine starts at 0, like the caches
   they count.
   version 11: the write-only PROT section and the TCAC section are
   gone, and ADPT lost its eviction count: STAT already holds the
   tcache's flushes and evictions and the adaptation table's
   evictions, the counters' only home. *)
let version = 11
let kind = "SNAP"

let consistent (c : Cms.t) =
  let exec = c.Cms.Engine.cpu.Cms.Cpu.exec in
  Vliw.Regfile.consistent exec.Vliw.Exec.regs
  && Vliw.Storebuf.is_empty exec.Vliw.Exec.sbuf

(* ------------------------------------------------------------------ *)
(* Sections                                                            *)
(* ------------------------------------------------------------------ *)

let meta_codec =
  Codec.(
    record
      [
        field string (fun m -> m.label) (fun m v -> { m with label = v });
        field int (fun m -> m.retired) (fun m v -> { m with retired = v });
        field int (fun m -> m.molecules) (fun m v -> { m with molecules = v });
        field int (fun m -> m.irq_cursor) (fun m v -> { m with irq_cursor = v });
        field int (fun m -> m.sync_cursor) (fun m v -> { m with sync_cursor = v });
      ]
      (fun () ->
        { label = ""; retired = 0; molecules = 0; irq_cursor = 0; sync_cursor = 0 }))

(* PMEM chunks are RAM pages, so a page that {!Machine.Phys} never
   saw written is a chunk the encoder may skip unread. *)
let () = assert (Codec.sparse_chunk = Machine.Mmu.page_size)

(** Guest RAM as a sparse image: its flagged pages that hold a non-zero
    byte, each copied from RAM straight into [w]'s buffer.  The bytes
    are those {!Codec.w_sparse} writes for a copy of the whole of RAM. *)
let w_ram w (phys : Machine.Phys.t) =
  Codec.w_sparse_with w ~total:phys.Machine.Phys.size
    (Machine.Phys.live_pages phys) (fun addr buf pos len ->
      Machine.Phys.read_into phys ~addr buf ~pos ~len)

(* The page table, as {!Machine.Mmu.dump_entries} lists it. *)
let page_table =
  let open Machine.Mmu in
  Codec.(
    list
      (pair int
         (record
            [
              mut int (fun e -> e.ppn) (fun e v -> e.ppn <- v);
              mut bool (fun e -> e.present) (fun e v -> e.present <- v);
              mut bool (fun e -> e.writable) (fun e v -> e.writable <- v);
            ]
            (fun () -> { ppn = 0; present = false; writable = false }))))

(* The page table's encoding.  The table changes rarely (a fleet
   kernel's never does after boot), so the encoding is kept on the MMU
   and redone only after its generation moved. *)
let page_table_bytes (mmu : Machine.Mmu.t) =
  match mmu.Machine.Mmu.dump_cache with
  | Some (gen, s) when gen = mmu.Machine.Mmu.generation -> s
  | _ ->
      let s = Codec.encode page_table (Machine.Mmu.dump_entries mmu) in
      mmu.Machine.Mmu.dump_cache <- Some (mmu.Machine.Mmu.generation, s);
      s

(* The disk image never changes but by a restore: it is scanned once. *)
let disk_chunks (d : Machine.Disk.t) =
  match d.Machine.Disk.image_chunks with
  | Some l -> l
  | None ->
      let l = Codec.sparse_chunks d.Machine.Disk.image in
      d.Machine.Disk.image_chunks <- Some l;
      l

(* The offsets of the frame buffer's non-zero chunks, rescanned only
   after a store. *)
let fb_chunks (fb : Machine.Framebuf.t) =
  match fb.Machine.Framebuf.chunks with
  | Some (writes, l) when writes = fb.Machine.Framebuf.writes -> l
  | _ ->
      let l = Codec.sparse_chunks fb.Machine.Framebuf.mem in
      fb.Machine.Framebuf.chunks <- Some (fb.Machine.Framebuf.writes, l);
      l

(* A sparse image read into the buffer [dst] of its own size, fresh
   from its machine's creation and so zero. *)
let r_sparse_in r ~what dst size blit =
  Codec.r_sparse_into r
    ~alloc:(fun n ->
      if n <> size then
        Codec.corrupt "snapshot %s: %d bytes (this machine has %d)" what n size;
      dst)
    ~blit
  |> ignore

let cpu =
  let n = Vliw.Abi.num_regs in
  (* one of the two copies of the register file, blitted in place *)
  let copy get =
    Codec.(mut { write = w_int_array; read = r_int_array }) get (fun f a ->
        if Array.length a <> n then Codec.corrupt "snapshot register arrays truncated";
        Array.blit a 0 (get f) 0 n)
  in
  let regfile =
    let open Vliw.Regfile in
    Codec.
      [
        mut int (fun _ -> n) (fun _ m ->
            if m <> n then
              corrupt "snapshot register file has %d registers (this build \
                       has %d)" m n);
        copy (fun f -> f.working);
        copy (fun f -> f.shadow);
        mut int (fun f -> f.commits) (fun f v -> f.commits <- v);
        mut int (fun f -> f.rollbacks) (fun f v -> f.rollbacks <- v);
      ]
  in
  let open Cms.Cpu in
  Codec.
    [
      part regs regfile;
      mut bool (fun c -> c.halted) (fun c v -> c.halted <- v);
      mut bool (fun c -> c.iflag) (fun c v -> c.iflag <- v);
      mut int (fun c -> c.idt_base) (fun c v -> c.idt_base <- v);
    ]

let mmu =
  let open Machine.Mmu in
  Codec.
    [
      mut bool (fun m -> m.enabled) (fun m v -> m.enabled <- v);
      {
        put = (fun w m -> w_raw w (page_table_bytes m));
        take = (fun r m -> load_entries m (page_table.read r); m);
      };
    ]

let pmem =
  let open Machine.Mem in
  Codec.
    [
      {
        put = (fun w m -> w_ram w m.phys);
        take =
          (fun r m ->
            r_sparse_in r ~what:"PMEM" m.phys m.phys.size (fun phys addr s ->
                Machine.Phys.blit_string phys ~addr s);
            m);
      };
      mut int (fun m -> m.page_prot_faults) (fun m v -> m.page_prot_faults <- v);
      mut int (fun m -> m.smc_events) (fun m v -> m.smc_events <- v);
      mut int (fun m -> m.dma_smc_events) (fun m v -> m.dma_smc_events <- v);
    ]

let timer =
  let open Machine.Timer in
  Codec.
    [
      mut int (fun t -> t.period) (fun t v -> t.period <- v);
      mut int (fun t -> t.count) (fun t v -> t.count <- v);
      mut int (fun t -> t.fired) (fun t v -> t.fired <- v);
    ]

let irq =
  let open Machine.Irq in
  Codec.
    [
      mut int (fun i -> i.pending) (fun i v -> i.pending <- v);
      mut int (fun i -> i.mask) (fun i v -> i.mask <- v);
      mut int (fun i -> i.raised_total) (fun i v -> i.raised_total <- v);
      mut int (fun i -> i.delivered_total) (fun i v -> i.delivered_total <- v);
      mut int (fun i -> i.deferred_total) (fun i v -> i.deferred_total <- v);
    ]

let uart =
  let open Machine.Uart in
  Codec.
    [
      mut string output (fun u s ->
          Buffer.clear u.out_buf;
          Buffer.add_string u.out_buf s);
      mut (list int) (fun u -> u.in_fifo) (fun u v -> u.in_fifo <- v);
      mut int (fun u -> u.data_reads) (fun u v -> u.data_reads <- v);
      mut int (fun u -> u.data_writes) (fun u v -> u.data_writes <- v);
    ]

let disk =
  let open Machine.Disk in
  Codec.
    [
      mut int (fun d -> d.sector) (fun d v -> d.sector <- v);
      mut int (fun d -> d.dest) (fun d v -> d.dest <- v);
      mut int (fun d -> d.count) (fun d v -> d.count <- v);
      mut int (fun d -> d.busy) (fun d v -> d.busy <- v);
      mut int (fun d -> d.transfers) (fun d v -> d.transfers <- v);
      mut int (fun d -> d.latency) (fun d v -> d.latency <- v);
      {
        put = (fun w d -> w_sparse_chunks w d.image (disk_chunks d));
        take =
          (fun r d ->
            d.image <- r_sparse r;
            d.image_chunks <- None;
            d);
      };
    ]

let nic =
  let open Machine.Nic in
  Codec.
    [
      mut int (fun n -> n.ctrl) (fun n v -> n.ctrl <- v);
      mut int (fun n -> n.rx_base) (fun n v -> n.rx_base <- v);
      mut int (fun n -> n.rx_count) (fun n v -> n.rx_count <- v);
      mut int (fun n -> n.rx_head) (fun n v -> n.rx_head <- v);
      mut int (fun n -> n.tx_base) (fun n v -> n.tx_base <- v);
      mut int (fun n -> n.tx_count) (fun n v -> n.tx_count <- v);
      mut int (fun n -> n.tx_head) (fun n v -> n.tx_head <- v);
      mut bool (fun n -> n.tx_pending) (fun n v -> n.tx_pending <- v);
      mut int (fun n -> n.mitigation) (fun n v -> n.mitigation <- v);
      mut int (fun n -> n.isr) (fun n v -> n.isr <- v);
      mut int (fun n -> n.busy) (fun n v -> n.busy <- v);
      mut int (fun n -> n.coalesce_acc) (fun n v -> n.coalesce_acc <- v);
      mut (list string) (fun n -> n.backlog) (fun n v ->
          n.backlog <- v;
          n.backlog_len <- List.length v);
      mut int (fun n -> n.rx_frames) (fun n v -> n.rx_frames <- v);
      mut int (fun n -> n.tx_frames) (fun n v -> n.tx_frames <- v);
      mut int (fun n -> n.rx_dropped) (fun n v -> n.rx_dropped <- v);
      mut int (fun n -> n.irqs_raised) (fun n v -> n.irqs_raised <- v);
      mut int (fun n -> n.irqs_coalesced) (fun n v -> n.irqs_coalesced <- v);
      mut int (fun n -> n.latency) (fun n v -> n.latency <- v);
    ]

let fbuf =
  let open Machine.Framebuf in
  Codec.
    [
      {
        put = (fun w fb -> w_sparse_chunks w fb.mem (fb_chunks fb));
        take =
          (fun r fb ->
            r_sparse_in r ~what:"FBUF" fb.mem fb.size (fun mem off s ->
                Bytes.blit_string s 0 mem off (String.length s));
            fb.chunks <- None;
            fb);
      };
      mut int (fun fb -> fb.writes) (fun fb v -> fb.writes <- v);
      mut int (fun fb -> fb.reads) (fun fb v -> fb.reads <- v);
      mut int (fun fb -> fb.frames) (fun fb v -> fb.frames <- v);
    ]

let bus =
  let open Machine.Bus in
  Codec.
    [
      mut int (fun b -> b.mmio_reads) (fun b v -> b.mmio_reads <- v);
      mut int (fun b -> b.mmio_writes) (fun b v -> b.mmio_writes <- v);
      mut int (fun b -> b.port_ops) (fun b v -> b.port_ops <- v);
    ]

let adapt =
  let open Cms.Adapt in
  let entry =
    Codec.(
      record
        [
          mut Stable.policy (fun e -> e.pol) (fun e v -> e.pol <- v);
          mut int (fun e -> e.touch) (fun e v -> e.touch <- v);
          mut int (fun e -> e.escalations) (fun e v -> e.escalations <- v);
          mut int (fun e -> e.failures) (fun e v -> e.failures <- v);
        ]
        (fun () ->
          let pol = Cms.Policy.default Cms.Config.default in
          { pol; touch = 0; escalations = 0; failures = 0 }))
  in
  Codec.
    [
      mut int (fun a -> a.clock) (fun a v -> a.clock <- v);
      mut (list (pair int entry)) dump load;
    ]

(** The machine's state sections after META and CONF, in image order:
    each a table of the machine, which {!freeze} writes and {!restore}
    reads back into a machine fresh from {!Cms.create}. *)
let state : (string * Cms.t Codec.field list) list =
  let dev f = Codec.part (fun c -> f (Cms.platform c)) in
  Machine.Platform.
    [
      ("CPUS", [ Codec.part Cms.cpu cpu ]);
      ("MMUS", [ Codec.part (fun c -> (Cms.mem c).Machine.Mem.mmu) mmu ]);
      ("PMEM", [ Codec.part Cms.mem pmem ]);
      ("TIMR", [ dev (fun p -> p.timer) timer ]);
      ("IRQC", [ dev (fun p -> p.irq) irq ]);
      ("UART", [ dev (fun p -> p.uart) uart ]);
      ("DISK", [ dev (fun p -> p.disk) disk ]);
      ("NICC", [ dev (fun p -> p.nic) nic ]);
      ("FBUF", [ dev (fun p -> p.fb) fbuf ]);
      ("BUSC", [ Codec.part (fun c -> (Cms.mem c).Machine.Mem.bus) bus ]);
      ("STAT", [ Codec.part Cms.stats Stable.stats ]);
      ("PERF", [ Codec.part Cms.perf Stable.perf ]);
      ("ADPT", [ Codec.part (fun c -> c.Cms.Engine.adapt) adapt ]);
    ]

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)
(* ------------------------------------------------------------------ *)

(** A snapshot image with its digests not yet filled in: the writer it
    was frozen into.  {!seal} turns it into the image. *)
type frozen = Codec.w

(** Write every section of [c]'s snapshot into [into] (a fresh
    {!Codec.image_capacity} writer by default), leaving the digests for
    {!seal}.  Costs what the guest wrote: unwritten RAM pages are skipped
    unread, and the page-table and frame-buffer encodings are reused
    while those did not change.
    The frozen bytes are [into]'s own, never guest RAM, so they outlive
    {!Cms.release} of [c].  Counts the snapshot and its final length in
    [c]'s stats, as a capture does. *)
let freeze ?(label = "") ?(injector : Journal.injector option)
    ?(into = Codec.writer ~capacity:Codec.image_capacity ()) (c : Cms.t) :
    frozen =
  if not (consistent c) then
    raise
      (Inconsistent
         "snapshot capture requires a consistent commit boundary \
          (uncommitted working state or gated stores pending)");
  let meta =
    {
      label;
      retired = Cms.retired c;
      molecules = Cms.total_molecules c;
      irq_cursor = (match injector with Some i -> i.Journal.irq_next | None -> 0);
      sync_cursor =
        (match injector with Some i -> i.Journal.sync_taken | None -> 0);
    }
  in
  Codec.freeze_container into ~kind ~version (fun sec ->
      sec "META" (fun w -> meta_codec.Codec.write w meta);
      sec "CONF" (fun w -> Stable.config.Codec.write w c.Cms.Engine.cfg);
      Codec.w_sections state sec c);
  let stats = Cms.stats c in
  stats.Cms.Stats.snapshots_written <- stats.Cms.Stats.snapshots_written + 1;
  stats.Cms.Stats.snapshot_bytes <-
    stats.Cms.Stats.snapshot_bytes + into.Codec.len;
  into

(** The image of a frozen snapshot.  Sealing fills in exactly the bytes
    freezing left out, so [seal (freeze c)] is the image whenever it is
    sealed. *)
let seal : frozen -> string = Codec.seal

(** The snapshot image of [c] now. *)
let capture ?label ?injector (c : Cms.t) : string =
  seal (freeze ?label ?injector c)

(* ------------------------------------------------------------------ *)
(* Restore                                                             *)
(* ------------------------------------------------------------------ *)

(** Rebuild a machine from a snapshot image.  The returned engine is at
    the captured commit boundary with a *cold* translation cache;
    continue it with [Cms.run].  [on_diag] observes its verifier, as in
    {!Cms.create}.  Raises {!Codec.Corrupt} on any image defect. *)
let restore ?on_diag data : Cms.t * meta =
  let sections = Codec.read_container ~kind ~version data in
  let head tag c =
    Codec.decode ~ctx:("snapshot section " ^ tag) c (Codec.section sections tag)
  in
  let meta = head "META" meta_codec in
  (* No [Cms.boot]: booting would identity-map low memory and reset the
     CPU; the snapshot carries the real page table and register file.
     The machine is made to the RAM size PMEM starts with, and every
     state section, RAM and disk image included, is then read into it. *)
  let pmem = Codec.section sections "PMEM" in
  let ram_size = Codec.r_int (Codec.reader ~ctx:"snapshot section PMEM" pmem) in
  if ram_size < 0 then Codec.corrupt "snapshot PMEM: negative RAM size %d" ram_size;
  let c =
    Cms.create ?on_diag ~cfg:(head "CONF" Stable.config) ~ram_size
      ~disk_image:Bytes.empty ()
  in
  ignore (Codec.r_sections ~ctx:"snapshot" state sections c : Cms.t);
  (* Device time already consumed before capture must not be re-ticked:
     align the engine's molecule cursor with the restored counters. *)
  c.Cms.Engine.ticked <- Cms.total_molecules c;
  let stats = Cms.stats c in
  stats.Cms.Stats.resumes <- stats.Cms.Stats.resumes + 1;
  (c, meta)

(** Restore [data] and install the suffix of the guest events [guest]
    its run had not yet delivered (the image's delivery cursors): the
    one way a run continues from a checkpoint.  Returns the machine and
    its injector, ready for [Cms.run]. *)
let resume ?on_diag data (guest : Journal.guest_event list) =
  let c, meta = restore ?on_diag data in
  ( c,
    Journal.install_guest ~irq_cursor:meta.irq_cursor
      ~sync_cursor:meta.sync_cursor c guest )

(* ------------------------------------------------------------------ *)
(* Periodic checkpointing                                              *)
(* ------------------------------------------------------------------ *)

(** A boundary-driven checkpointer: keeps the latest snapshot, frozen
    and unsealed, so a crash is always replayable from the most recent
    checkpoint while a checkpoint nobody reads costs no digest and no
    image copy.  It owns two buffers and freezes into the one not
    holding [latest], so a checkpoint allocates almost nothing and
    [latest] is never half-written.  The first starts at
    {!Codec.image_capacity} and the second at the size the first
    reached, so neither regrows by doubling. *)
type checkpointer = {
  mutable latest : frozen option;
      (** most recent checkpoint; {!seal} it to read it.  It stays valid
          until the checkpointer freezes twice more. *)
  mutable spare : frozen;  (** the buffer the next checkpoint freezes into *)
  mutable captures : int;
  mutable last_capture : int;  (** retired clock of the last capture *)
}

(** Arm periodic checkpointing on [c]: every [every] retired
    instructions (checked at dispatch boundaries), freeze a snapshot.
    Composes with any already-installed [on_boundary] hook, running it
    first — so journal delivery at a boundary is reflected in the
    snapshot taken at that same boundary. *)
let arm ?label ?injector (c : Cms.t) ~every =
  if every <= 0 then invalid_arg "Snapshot.arm: every must be positive";
  let ck =
    {
      latest = None;
      spare = Codec.writer ~capacity:Codec.image_capacity ();
      captures = 0;
      last_capture = 0;
    }
  in
  let prev = c.Cms.Engine.on_boundary in
  c.Cms.Engine.on_boundary <-
    Some
      (fun retired ->
        (match prev with Some f -> f retired | None -> ());
        if retired - ck.last_capture >= every then begin
          let frozen = freeze ?label ?injector ~into:ck.spare c in
          ck.spare <-
            (match ck.latest with
            | Some old -> old
            | None -> Codec.writer ~capacity:(Bytes.length frozen.Codec.buf) ());
          ck.latest <- Some frozen;
          ck.captures <- ck.captures + 1;
          ck.last_capture <- retired
        end);
  ck

(** The latest checkpoint's image, sealed now. *)
let latest_image ck = Option.map seal ck.latest
