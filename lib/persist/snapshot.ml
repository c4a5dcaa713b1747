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
    The protection map is still written to the image ({b PROT} section)
    for crash forensics.

    Capture is only legal at a consistent commit boundary (working =
    shadow registers, store buffer empty) — precisely where
    [Engine.on_boundary] fires — so a restored machine re-enters the
    dispatch loop as if it had just committed.  {!capture} raises
    {!Inconsistent} anywhere else.

    Restore rebuilds the machine from the image alone: configuration,
    RAM size and disk contents all come from the snapshot, so a resumed
    run needs no access to the original workload files. *)

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
   every translation). *)
let version = 9
let kind = "SNAP"

let consistent (c : Cms.t) =
  let exec = c.Cms.Engine.cpu.Cms.Cpu.exec in
  Vliw.Regfile.consistent exec.Vliw.Exec.regs
  && Vliw.Storebuf.is_empty exec.Vliw.Exec.sbuf

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)
(* ------------------------------------------------------------------ *)

(* PMEM chunks are RAM pages, so a page that {!Machine.Phys} never
   saw written is a chunk the encoder may skip unread. *)
let () = assert (Codec.sparse_chunk = Machine.Mmu.page_size)

let capture ?(label = "") ?(injector : Journal.injector option) (c : Cms.t) :
    string =
  if not (consistent c) then
    raise
      (Inconsistent
         "snapshot capture requires a consistent commit boundary \
          (uncommitted working state or gated stores pending)");
  let plat = Cms.platform c in
  let mem = Cms.mem c in
  let stats = Cms.stats c in
  let image =
    Codec.container ~kind ~version (fun sec ->
        sec "META" (fun b ->
            Codec.w_string b label;
            Codec.w_int b (Cms.retired c);
            Codec.w_int b (Cms.total_molecules c);
            match injector with
            | Some i ->
                Codec.w_int b i.Journal.irq_next;
                Codec.w_int b i.Journal.sync_taken
            | None ->
                Codec.w_int b 0;
                Codec.w_int b 0);
        sec "CONF" (fun b -> Stable.w_config b c.Cms.Engine.cfg);
        sec "CPUS" (fun b ->
            let cpu = Cms.cpu c in
            let regs = Cms.Cpu.regs cpu in
            Codec.w_int b Vliw.Abi.num_regs;
            Codec.w_int_array b regs.Vliw.Regfile.working;
            Codec.w_int_array b regs.Vliw.Regfile.shadow;
            Codec.w_int b regs.Vliw.Regfile.commits;
            Codec.w_int b regs.Vliw.Regfile.rollbacks;
            Codec.w_bool b cpu.Cms.Cpu.halted;
            Codec.w_bool b cpu.Cms.Cpu.iflag;
            Codec.w_int b cpu.Cms.Cpu.idt_base);
        sec "MMUS" (fun b ->
            let mmu = mem.Machine.Mem.mmu in
            Codec.w_bool b mmu.Machine.Mmu.enabled;
            Codec.w_list b
              (fun b (vpn, ppn, present, writable) ->
                Codec.w_int b vpn;
                Codec.w_int b ppn;
                Codec.w_bool b present;
                Codec.w_bool b writable)
              (Machine.Mmu.dump_entries mmu);
            Codec.w_int b mmu.Machine.Mmu.tlb_hits;
            Codec.w_int b mmu.Machine.Mmu.tlb_misses);
        sec "PMEM" (fun b ->
            let phys = mem.Machine.Mem.phys in
            Codec.w_sparse ~live:(Machine.Phys.written phys) b
              phys.Machine.Phys.data;
            Codec.w_int b mem.Machine.Mem.page_prot_faults;
            Codec.w_int b mem.Machine.Mem.smc_events;
            Codec.w_int b mem.Machine.Mem.dma_smc_events;
            Codec.w_int b mem.Machine.Mem.fast_reads;
            Codec.w_int b mem.Machine.Mem.fast_writes);
        (* Derived protection state, for forensics only: restore leaves it
           cold (the fresh engine has no translations to protect). *)
        sec "PROT" (fun b ->
            let sorted_keys h =
              Hashtbl.fold (fun k () acc -> k :: acc) h [] |> List.sort compare
            in
            Codec.w_list b Codec.w_int
              (sorted_keys mem.Machine.Mem.protected_pages);
            Codec.w_list b Codec.w_int (sorted_keys mem.Machine.Mem.fg_pages);
            Codec.w_list b
              (fun b (ppn, mask) ->
                Codec.w_int b ppn;
                Codec.w_int64 b mask)
              (Machine.Finegrain.dump mem.Machine.Mem.fg));
        sec "TIMR" (fun b ->
            let period, count, fired =
              Machine.Timer.snapshot plat.Machine.Platform.timer
            in
            Codec.w_int b period;
            Codec.w_int b count;
            Codec.w_int b fired);
        sec "IRQC" (fun b ->
            let pending, mask, raised, delivered, deferred =
              Machine.Irq.snapshot plat.Machine.Platform.irq
            in
            Codec.w_int b pending;
            Codec.w_int b mask;
            Codec.w_int b raised;
            Codec.w_int b delivered;
            Codec.w_int b deferred);
        sec "UART" (fun b ->
            let out, in_fifo, reads, writes =
              Machine.Uart.snapshot plat.Machine.Platform.uart
            in
            Codec.w_string b out;
            Codec.w_list b Codec.w_int in_fifo;
            Codec.w_int b reads;
            Codec.w_int b writes);
        sec "DISK" (fun b ->
            let d = plat.Machine.Platform.disk in
            let sector, dest, count, busy, transfers = Machine.Disk.snapshot d in
            Codec.w_int b sector;
            Codec.w_int b dest;
            Codec.w_int b count;
            Codec.w_int b busy;
            Codec.w_int b transfers;
            Codec.w_int b d.Machine.Disk.latency;
            (* the image is a creation parameter: scan it once *)
            let chunks =
              match d.Machine.Disk.image_chunks with
              | Some l -> l
              | None ->
                  let l = Codec.sparse_chunks d.Machine.Disk.image in
                  d.Machine.Disk.image_chunks <- Some l;
                  l
            in
            Codec.w_sparse_chunks b d.Machine.Disk.image chunks);
        sec "NICC" (fun b ->
            let n = plat.Machine.Platform.nic in
            let ( (ctrl, rx_base, rx_count, rx_head, tx_base, tx_count, tx_head,
                   tx_pending),
                  (mitigation, isr, busy, coalesce_acc, backlog),
                  (rx_frames, tx_frames, rx_dropped, irqs_raised, irqs_coalesced)
                ) =
              Machine.Nic.snapshot n
            in
            List.iter (Codec.w_int b)
              [ ctrl; rx_base; rx_count; rx_head; tx_base; tx_count; tx_head ];
            Codec.w_bool b tx_pending;
            List.iter (Codec.w_int b) [ mitigation; isr; busy; coalesce_acc ];
            Codec.w_list b Codec.w_string backlog;
            List.iter (Codec.w_int b)
              [ rx_frames; tx_frames; rx_dropped; irqs_raised; irqs_coalesced ];
            Codec.w_int b n.Machine.Nic.latency);
        sec "FBUF" (fun b ->
            let fb = plat.Machine.Platform.fb in
            Codec.w_sparse b fb.Machine.Framebuf.mem;
            Codec.w_int b fb.Machine.Framebuf.writes;
            Codec.w_int b fb.Machine.Framebuf.reads;
            Codec.w_int b fb.Machine.Framebuf.frames);
        sec "BUSC" (fun b ->
            let bus = mem.Machine.Mem.bus in
            Codec.w_int b bus.Machine.Bus.mmio_reads;
            Codec.w_int b bus.Machine.Bus.mmio_writes;
            Codec.w_int b bus.Machine.Bus.port_ops);
        sec "STAT" (fun b -> Stable.w_stats b stats);
        sec "PERF" (fun b -> Stable.w_perf b (Cms.perf c));
        sec "ADPT" (fun b ->
            let a = c.Cms.Engine.adapt in
            Codec.w_int b a.Cms.Adapt.clock;
            Codec.w_int b a.Cms.Adapt.evictions;
            Codec.w_list b
              (fun b (key, pol, touch, escalations, failures) ->
                Codec.w_int b key;
                Stable.w_policy b pol;
                Codec.w_int b touch;
                Codec.w_int b escalations;
                Codec.w_int b failures)
              (Cms.Adapt.dump a));
        sec "TCAC" (fun b ->
            let tc = c.Cms.Engine.tcache in
            Codec.w_int b tc.Cms.Tcache.flushes;
            Codec.w_int b tc.Cms.Tcache.evictions;
            Codec.w_int b tc.Cms.Tcache.evicted))
  in
  stats.Cms.Stats.snapshots_written <- stats.Cms.Stats.snapshots_written + 1;
  stats.Cms.Stats.snapshot_bytes <-
    stats.Cms.Stats.snapshot_bytes + String.length image;
  image

(* ------------------------------------------------------------------ *)
(* Restore                                                             *)
(* ------------------------------------------------------------------ *)

let read_meta_sec sections =
  let r = Codec.reader ~ctx:"snapshot section META" (Codec.section sections "META") in
  let label = Codec.r_string r in
  let retired = Codec.r_int r in
  let molecules = Codec.r_int r in
  let irq_cursor = Codec.r_int r in
  let sync_cursor = Codec.r_int r in
  Codec.r_end r;
  { label; retired; molecules; irq_cursor; sync_cursor }

(** Peek at an image's metadata without building a machine. *)
let inspect data = read_meta_sec (Codec.read_container ~kind ~version data)

(** Rebuild a machine from a snapshot image.  The returned engine is at
    the captured commit boundary with a *cold* translation cache;
    continue it with [Cms.run].  Raises {!Codec.Corrupt} on any image
    defect. *)
let restore data : Cms.t * meta =
  let sections = Codec.read_container ~kind ~version data in
  let sec tag =
    Codec.reader ~ctx:("snapshot section " ^ tag) (Codec.section sections tag)
  in
  let meta = read_meta_sec sections in
  let conf = sec "CONF" in
  let cfg = Stable.r_config conf in
  Codec.r_end conf;
  (* RAM size and the disk image come from the snapshot: they are
     creation parameters of the platform. *)
  let disk = sec "DISK" in
  let d_sector = Codec.r_int disk in
  let d_dest = Codec.r_int disk in
  let d_count = Codec.r_int disk in
  let d_busy = Codec.r_int disk in
  let d_transfers = Codec.r_int disk in
  let _latency = Codec.r_int disk in
  let disk_image = Codec.r_sparse disk in
  Codec.r_end disk;
  (* No [Cms.boot]: booting would identity-map low memory and reset the
     CPU; the snapshot carries the real page table and register file.
     RAM chunks decode straight into the new machine's zeroed RAM, so
     exactly the pages the image carries are flagged written. *)
  let pmem = sec "PMEM" in
  let c =
    Codec.r_sparse_into pmem
      ~alloc:(fun ram_size -> Cms.create ~cfg ~ram_size ~disk_image ())
      ~blit:(fun c addr s ->
        Machine.Phys.blit_string (Cms.mem c).Machine.Mem.phys ~addr s)
  in
  let page_prot_faults = Codec.r_int pmem in
  let smc_events = Codec.r_int pmem in
  let dma_smc_events = Codec.r_int pmem in
  let fast_reads = Codec.r_int pmem in
  let fast_writes = Codec.r_int pmem in
  Codec.r_end pmem;
  let mem = Cms.mem c in
  mem.Machine.Mem.page_prot_faults <- page_prot_faults;
  mem.Machine.Mem.smc_events <- smc_events;
  mem.Machine.Mem.dma_smc_events <- dma_smc_events;
  mem.Machine.Mem.fast_reads <- fast_reads;
  mem.Machine.Mem.fast_writes <- fast_writes;
  let cpus = sec "CPUS" in
  let nregs = Codec.r_int cpus in
  if nregs <> Vliw.Abi.num_regs then
    Codec.corrupt
      "snapshot register file has %d registers (this build has %d)" nregs
      Vliw.Abi.num_regs;
  let working = Codec.r_int_array cpus in
  let shadow = Codec.r_int_array cpus in
  if Array.length working <> nregs || Array.length shadow <> nregs then
    Codec.corrupt "snapshot register arrays truncated";
  let commits = Codec.r_int cpus in
  let rollbacks = Codec.r_int cpus in
  let halted = Codec.r_bool cpus in
  let iflag = Codec.r_bool cpus in
  let idt_base = Codec.r_int cpus in
  Codec.r_end cpus;
  let cpu = Cms.cpu c in
  let regs = Cms.Cpu.regs cpu in
  Array.blit working 0 regs.Vliw.Regfile.working 0 nregs;
  Array.blit shadow 0 regs.Vliw.Regfile.shadow 0 nregs;
  regs.Vliw.Regfile.commits <- commits;
  regs.Vliw.Regfile.rollbacks <- rollbacks;
  cpu.Cms.Cpu.halted <- halted;
  cpu.Cms.Cpu.iflag <- iflag;
  cpu.Cms.Cpu.idt_base <- idt_base;
  let mmus = sec "MMUS" in
  let mmu = mem.Machine.Mem.mmu in
  let enabled = Codec.r_bool mmus in
  let entries =
    Codec.r_list mmus (fun r ->
        let vpn = Codec.r_int r in
        let ppn = Codec.r_int r in
        let present = Codec.r_bool r in
        let writable = Codec.r_bool r in
        (vpn, ppn, present, writable))
  in
  let tlb_hits = Codec.r_int mmus in
  let tlb_misses = Codec.r_int mmus in
  Codec.r_end mmus;
  Machine.Mmu.restore_entries mmu entries;
  mmu.Machine.Mmu.enabled <- enabled;
  mmu.Machine.Mmu.tlb_hits <- tlb_hits;
  mmu.Machine.Mmu.tlb_misses <- tlb_misses;
  Machine.Mmu.flush_tlb mmu;
  let plat = Cms.platform c in
  let timr = sec "TIMR" in
  let t_period = Codec.r_int timr in
  let t_count = Codec.r_int timr in
  let t_fired = Codec.r_int timr in
  Codec.r_end timr;
  Machine.Timer.restore plat.Machine.Platform.timer (t_period, t_count, t_fired);
  let irqc = sec "IRQC" in
  let i_pending = Codec.r_int irqc in
  let i_mask = Codec.r_int irqc in
  let i_raised = Codec.r_int irqc in
  let i_delivered = Codec.r_int irqc in
  let i_deferred = Codec.r_int irqc in
  Codec.r_end irqc;
  Machine.Irq.restore plat.Machine.Platform.irq
    (i_pending, i_mask, i_raised, i_delivered, i_deferred);
  let uart = sec "UART" in
  let u_out = Codec.r_string uart in
  let u_fifo = Codec.r_list uart Codec.r_int in
  let u_reads = Codec.r_int uart in
  let u_writes = Codec.r_int uart in
  Codec.r_end uart;
  Machine.Uart.restore plat.Machine.Platform.uart
    (u_out, u_fifo, u_reads, u_writes);
  Machine.Disk.restore plat.Machine.Platform.disk
    (d_sector, d_dest, d_count, d_busy, d_transfers);
  let nicc = sec "NICC" in
  let n_ctrl = Codec.r_int nicc in
  let n_rx_base = Codec.r_int nicc in
  let n_rx_count = Codec.r_int nicc in
  let n_rx_head = Codec.r_int nicc in
  let n_tx_base = Codec.r_int nicc in
  let n_tx_count = Codec.r_int nicc in
  let n_tx_head = Codec.r_int nicc in
  let n_tx_pending = Codec.r_bool nicc in
  let n_mitigation = Codec.r_int nicc in
  let n_isr = Codec.r_int nicc in
  let n_busy = Codec.r_int nicc in
  let n_coalesce = Codec.r_int nicc in
  let n_backlog = Codec.r_list nicc Codec.r_string in
  let n_rx_frames = Codec.r_int nicc in
  let n_tx_frames = Codec.r_int nicc in
  let n_rx_dropped = Codec.r_int nicc in
  let n_irqs_raised = Codec.r_int nicc in
  let n_irqs_coalesced = Codec.r_int nicc in
  let _nic_latency = Codec.r_int nicc in
  Codec.r_end nicc;
  Machine.Nic.restore plat.Machine.Platform.nic
    ( ( n_ctrl, n_rx_base, n_rx_count, n_rx_head, n_tx_base, n_tx_count,
        n_tx_head, n_tx_pending ),
      (n_mitigation, n_isr, n_busy, n_coalesce, n_backlog),
      (n_rx_frames, n_tx_frames, n_rx_dropped, n_irqs_raised, n_irqs_coalesced)
    );
  let fbuf = sec "FBUF" in
  let f_mem = Codec.r_sparse fbuf in
  let f_writes = Codec.r_int fbuf in
  let f_reads = Codec.r_int fbuf in
  let f_frames = Codec.r_int fbuf in
  Codec.r_end fbuf;
  (try
     Machine.Framebuf.restore plat.Machine.Platform.fb
       (f_mem, f_writes, f_reads, f_frames)
   with Invalid_argument m -> Codec.corrupt "snapshot FBUF: %s" m);
  let busc = sec "BUSC" in
  let bus = mem.Machine.Mem.bus in
  bus.Machine.Bus.mmio_reads <- Codec.r_int busc;
  bus.Machine.Bus.mmio_writes <- Codec.r_int busc;
  bus.Machine.Bus.port_ops <- Codec.r_int busc;
  Codec.r_end busc;
  let stat = sec "STAT" in
  Stable.r_stats_into stat (Cms.stats c);
  Codec.r_end stat;
  let perf = sec "PERF" in
  Stable.r_perf_into perf (Cms.perf c);
  Codec.r_end perf;
  let adpt = sec "ADPT" in
  let a_clock = Codec.r_int adpt in
  let a_evictions = Codec.r_int adpt in
  let a_entries =
    Codec.r_list adpt (fun r ->
        let key = Codec.r_int r in
        let pol = Stable.r_policy r in
        let touch = Codec.r_int r in
        let escalations = Codec.r_int r in
        let failures = Codec.r_int r in
        (key, pol, touch, escalations, failures))
  in
  Codec.r_end adpt;
  Cms.Adapt.restore c.Cms.Engine.adapt ~clock:a_clock ~evictions:a_evictions
    a_entries;
  let tcac = sec "TCAC" in
  let tc = c.Cms.Engine.tcache in
  tc.Cms.Tcache.flushes <- Codec.r_int tcac;
  tc.Cms.Tcache.evictions <- Codec.r_int tcac;
  tc.Cms.Tcache.evicted <- Codec.r_int tcac;
  Codec.r_end tcac;
  (* Device time already consumed before capture must not be re-ticked:
     align the engine's molecule cursor with the restored counters. *)
  c.Cms.Engine.ticked <- Cms.total_molecules c;
  let stats = Cms.stats c in
  stats.Cms.Stats.resumes <- stats.Cms.Stats.resumes + 1;
  (c, meta)

let save path ?label ?injector c = Codec.write_file path (capture ?label ?injector c)

let load path : Cms.t * meta = restore (Codec.read_file path)

(* ------------------------------------------------------------------ *)
(* Periodic checkpointing                                              *)
(* ------------------------------------------------------------------ *)

(** A boundary-driven checkpointer: keeps the latest snapshot image (and
    nothing else) so a crash is always replayable from the most recent
    checkpoint. *)
type checkpointer = {
  mutable image : string option;  (** most recent snapshot image *)
  mutable captures : int;
  mutable last_capture : int;  (** retired clock of the last capture *)
}

(** Arm periodic checkpointing on [c]: every [every] retired
    instructions (checked at dispatch boundaries), capture a snapshot.
    Composes with any already-installed [on_boundary] hook, running it
    first — so journal delivery at a boundary is reflected in the
    snapshot taken at that same boundary. *)
let arm ?label ?injector (c : Cms.t) ~every =
  if every <= 0 then invalid_arg "Snapshot.arm: every must be positive";
  let ck = { image = None; captures = 0; last_capture = 0 } in
  let prev = c.Cms.Engine.on_boundary in
  c.Cms.Engine.on_boundary <-
    Some
      (fun retired ->
        (match prev with Some f -> f retired | None -> ());
        if retired - ck.last_capture >= every then begin
          ck.image <- Some (capture ?label ?injector c);
          ck.captures <- ck.captures + 1;
          ck.last_capture <- retired
        end);
  ck
