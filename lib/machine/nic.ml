(** MMIO-programmed NIC with DMA descriptor rings.

    The guest programs RX and TX descriptor rings in its own memory
    through a 32-bit MMIO register window, then exchanges whole frames
    with the device by DMA.  Everything the device stores — frame
    payloads *and* descriptor status words — goes through the injected
    [dma_write] callback, i.e. through the same §3.6.1 ladder as disk
    DMA: a frame landing in a page that carries translations invalidates
    them behind the CPU's back.  Device reads (descriptors, TX payloads)
    use the injected [read32]/[read8] callbacks straight from physical
    memory, so they perturb no architectural access counters.

    Descriptors are 8 bytes: word0 = buffer physical address, word1 =
    status.  RX status: guest arms a slot by writing the buffer
    capacity with {!rx_done} clear; the device fills the buffer, writes
    [rx_done lor length] and advances.  TX status: guest writes
    [tx_ready lor length]; after transmitting the device writes
    [tx_done lor length].  Both rings are scanned in order with a
    device-owned head index, so guests never do index arithmetic.

    Ingress has two paths with distinct timing disciplines:
    - {!rx_inject} delivers a frame to the ring *immediately* — the
      record-replay injector uses it at retired-clock boundaries, gated
      on {!can_accept}, so delivery is an exact architectural event.
    - {!queue_frame} appends to a bounded host-side backlog that the
      molecule-clocked ticker drains one frame per latency period;
      overflow and ring-full drains are counted drops, never unbounded
      growth.  Loopback TX re-enters through this path.

    RX interrupts are coalescable: the mitigation register makes the
    device latch its line once per N delivered frames (suppressed
    raises are counted).  The ISR register is read-to-clear — safe
    because translated MMIO loads fault [Mmio_spec] *before* touching
    the bus, so the architectural read happens exactly once. *)

let desc_size = 8
let max_frame = 2048
let max_ring = 1024

(* Status word bits (descriptor word1). *)
let rx_done = 0x8000_0000
let tx_ready = 0x8000_0000
let tx_done = 0x4000_0000

(* Register offsets from the MMIO window base. *)
let r_ctrl = 0x00 (* bit0 rx enable, bit1 tx enable, bit2 loopback *)
let r_status = 0x04 (* RO: bit0 backlog nonempty, bit1 busy *)
let r_rx_base = 0x08
let r_rx_count = 0x0c (* writing resets the RX head *)
let r_tx_base = 0x10
let r_tx_count = 0x14 (* writing resets the TX head *)
let r_tx_kick = 0x18 (* write-only: start scanning TX descriptors *)
let r_mitigation = 0x1c (* raise the RX line once per max(1,N) frames *)
let r_isr = 0x20 (* read-to-clear: bit0 RX, bit1 TX *)
let r_rx_frames = 0x24 (* RO *)
let r_tx_frames = 0x28 (* RO *)
let r_rx_dropped = 0x2c (* RO *)
let r_backlog = 0x30 (* RO: current backlog depth *)

let isr_rx = 1
let isr_tx = 2

type t = {
  irq : Irq.t;
  line : int;
  mutable latency : int;  (** molecules per backlog-drain / TX work unit *)
  backlog_cap : int;
  mutable ctrl : int;
  mutable rx_base : int;
  mutable rx_count : int;
  mutable rx_head : int;
  mutable tx_base : int;
  mutable tx_count : int;
  mutable tx_head : int;
  mutable tx_pending : bool;
  mutable mitigation : int;
  mutable isr : int;
  mutable busy : int;  (** molecules until the next work unit; 0 = idle *)
  mutable coalesce_acc : int;  (** RX frames since the last raise *)
  mutable backlog : string list;  (** reversed arrival order *)
  mutable backlog_len : int;
  (* counters (guest-visible through RO registers) *)
  mutable rx_frames : int;
  mutable tx_frames : int;
  mutable rx_dropped : int;
  mutable irqs_raised : int;
  mutable irqs_coalesced : int;
  mutable dma_write : int -> Bytes.t -> unit;
  mutable read32 : int -> int;
  mutable read8 : int -> int;
}

let create ~irq ~line ?(latency = 400) ?(backlog_cap = 32) () =
  {
    irq;
    line;
    latency;
    backlog_cap;
    ctrl = 0;
    rx_base = 0;
    rx_count = 0;
    rx_head = 0;
    tx_base = 0;
    tx_count = 0;
    tx_head = 0;
    tx_pending = false;
    mitigation = 1;
    isr = 0;
    busy = 0;
    coalesce_acc = 0;
    backlog = [];
    backlog_len = 0;
    rx_frames = 0;
    tx_frames = 0;
    rx_dropped = 0;
    irqs_raised = 0;
    irqs_coalesced = 0;
    dma_write = (fun _ _ -> invalid_arg "Nic: dma_write not wired");
    read32 = (fun _ -> invalid_arg "Nic: read32 not wired");
    read8 = (fun _ -> invalid_arg "Nic: read8 not wired");
  }

let set_dma t ~write ~read32 ~read8 =
  t.dma_write <- write;
  t.read32 <- read32;
  t.read8 <- read8

let rx_enabled t = t.ctrl land 1 <> 0
let tx_enabled t = t.ctrl land 2 <> 0
let loopback t = t.ctrl land 4 <> 0

(* ------------------------------------------------------------------ *)
(* RX                                                                  *)
(* ------------------------------------------------------------------ *)

let rx_desc_addr t = t.rx_base + (desc_size * t.rx_head)

(** Can the ring take a frame right now?  True iff RX is enabled and
    the descriptor at the head is armed (done bit clear).  A pure
    function of guest-visible state — the journal injector gates
    packet-arrival events on it so that delivery is identical in every
    execution configuration. *)
let can_accept t =
  rx_enabled t && t.rx_count > 0
  && t.read32 (rx_desc_addr t + 4) land rx_done = 0

let raise_rx t =
  t.coalesce_acc <- t.coalesce_acc + 1;
  if t.coalesce_acc >= max 1 t.mitigation then begin
    t.coalesce_acc <- 0;
    t.isr <- t.isr lor isr_rx;
    t.irqs_raised <- t.irqs_raised + 1;
    Irq.raise_line t.irq t.line
  end
  else t.irqs_coalesced <- t.irqs_coalesced + 1

(** Deliver [data] to the ring immediately.  Returns false (and counts
    a drop) if the head descriptor is not armed. *)
let rx_inject t data =
  if not (can_accept t) then begin
    t.rx_dropped <- t.rx_dropped + 1;
    false
  end
  else begin
    let d = rx_desc_addr t in
    let buf = t.read32 d in
    let cap = t.read32 (d + 4) land 0xffff in
    let len = min (String.length data) (min cap max_frame) in
    if len > 0 then t.dma_write buf (Bytes.of_string (String.sub data 0 len));
    t.dma_write (d + 4)
      (let b = Bytes.create 4 in
       Bytes.set_int32_le b 0 (Int32.of_int (rx_done lor len));
       b);
    t.rx_head <- (t.rx_head + 1) mod t.rx_count;
    t.rx_frames <- t.rx_frames + 1;
    raise_rx t;
    true
  end

(** Append a frame to the bounded backlog (dropped and counted when
    full); the ticker drains it one frame per latency period. *)
let queue_frame t data =
  if t.backlog_len >= t.backlog_cap then
    t.rx_dropped <- t.rx_dropped + 1
  else begin
    t.backlog <- data :: t.backlog;
    t.backlog_len <- t.backlog_len + 1
  end

let backlog_pop t =
  match List.rev t.backlog with
  | [] -> None
  | first :: rest ->
      t.backlog <- List.rev rest;
      t.backlog_len <- t.backlog_len - 1;
      Some first

(* ------------------------------------------------------------------ *)
(* TX                                                                  *)
(* ------------------------------------------------------------------ *)

let read_frame t ~addr ~len = String.init len (fun i -> Char.chr (t.read8 (addr + i)))

(* Process the descriptor at the TX head if the guest marked it ready;
   clears [tx_pending] when the scan catches up with the guest. *)
let tx_unit t =
  if not (tx_enabled t) || t.tx_count = 0 then t.tx_pending <- false
  else begin
    let d = t.tx_base + (desc_size * t.tx_head) in
    let st = t.read32 (d + 4) in
    if st land tx_ready = 0 then t.tx_pending <- false
    else begin
      let len = min (st land 0xffff) max_frame in
      let frame = read_frame t ~addr:(t.read32 d) ~len in
      t.tx_frames <- t.tx_frames + 1;
      if loopback t && rx_enabled t then queue_frame t frame;
      t.dma_write (d + 4)
        (let b = Bytes.create 4 in
         Bytes.set_int32_le b 0 (Int32.of_int (tx_done lor len));
         b);
      t.tx_head <- (t.tx_head + 1) mod t.tx_count;
      t.isr <- t.isr lor isr_tx;
      t.irqs_raised <- t.irqs_raised + 1;
      Irq.raise_line t.irq t.line
    end
  end

(* ------------------------------------------------------------------ *)
(* Time                                                                *)
(* ------------------------------------------------------------------ *)

let has_work t = t.backlog_len > 0 || t.tx_pending

(** Device-side activity the engine's halt loop must wait out.  The
    backlog always drains (every frame either lands in the ring or is
    counted as a drop), so this quiesces on every run. *)
let active t = t.busy > 0 || has_work t

(* One work unit per latency period: drain one backlog frame (ring-full
   at drain time is a counted drop — explicit backpressure), else
   transmit one ready TX descriptor. *)
let work_unit t =
  match backlog_pop t with
  | Some frame ->
      if not (rx_inject t frame) then ()
      (* rx_inject counted the drop *)
  | None -> if t.tx_pending then tx_unit t

let tick t molecules =
  if t.busy = 0 && has_work t then t.busy <- t.latency;
  if t.busy > 0 then begin
    t.busy <- t.busy - molecules;
    if t.busy <= 0 then begin
      t.busy <- 0;
      work_unit t;
      if has_work t then t.busy <- t.latency
    end
  end

(* ------------------------------------------------------------------ *)
(* MMIO window                                                         *)
(* ------------------------------------------------------------------ *)

let reg_read t off =
  if off = r_ctrl then t.ctrl
  else if off = r_status then
    (if t.backlog_len > 0 then 1 else 0) lor (if t.busy > 0 then 2 else 0)
  else if off = r_rx_base then t.rx_base
  else if off = r_rx_count then t.rx_count
  else if off = r_tx_base then t.tx_base
  else if off = r_tx_count then t.tx_count
  else if off = r_mitigation then t.mitigation
  else if off = r_isr then begin
    let v = t.isr in
    t.isr <- 0;
    v
  end
  else if off = r_rx_frames then t.rx_frames
  else if off = r_tx_frames then t.tx_frames
  else if off = r_rx_dropped then t.rx_dropped
  else if off = r_backlog then t.backlog_len
  else 0

let reg_write t off v =
  if off = r_ctrl then t.ctrl <- v land 7
  else if off = r_rx_base then t.rx_base <- v
  else if off = r_rx_count then begin
    t.rx_count <- min (max v 0) max_ring;
    t.rx_head <- 0
  end
  else if off = r_tx_base then t.tx_base <- v
  else if off = r_tx_count then begin
    t.tx_count <- min (max v 0) max_ring;
    t.tx_head <- 0
  end
  else if off = r_tx_kick then begin
    if tx_enabled t && t.tx_count > 0 then t.tx_pending <- true
  end
  else if off = r_mitigation then t.mitigation <- v land 0xffff
  else () (* STATUS / ISR / counters: read-only *)

let attach t bus ~base ~size =
  Bus.add_mmio bus
    {
      Bus.lo = base;
      hi = base + size;
      mread =
        (fun paddr sz ->
          let off = paddr - base in
          let v = reg_read t (off land lnot 3) in
          let shift = (off land 3) * 8 in
          let mask = if sz >= 4 then 0xffff_ffff else (1 lsl (8 * sz)) - 1 in
          (v lsr shift) land mask);
      mwrite =
        (fun paddr sz v ->
          let off = paddr - base in
          let aligned = off land lnot 3 in
          if sz >= 4 then reg_write t aligned v
          else begin
            (* sub-word write: read-modify-write the 32-bit register,
               without triggering read side effects (ISR is RMW-safe
               here because partial writes to it are ignored anyway) *)
            let cur =
              if aligned = r_isr then t.isr else reg_read t aligned
            in
            let shift = (off land 3) * 8 in
            let mask = ((1 lsl (8 * sz)) - 1) lsl shift in
            reg_write t aligned
              (cur land lnot mask lor ((v lsl shift) land mask))
          end);
    };
  Bus.add_ticker bus (tick t)
