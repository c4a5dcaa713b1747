(** The deterministic event journal: every nondeterministic input to a
    run, keyed to deterministic clocks, so that record → replay
    reproduces the identical execution bit for bit.

    Two event classes:

    - {b Guest events} are the fuzzer's injected inputs: asynchronous
      IRQ assertions keyed to the retired-instruction clock (delivered
      from [Engine.on_boundary]), and synchronous DMA writes /
      page-protection flips consumed by guest [out]s to
      {!Machine.Platform.fuzz_port}.  The installer here is the single
      authoritative implementation — [Cms_fuzz.Inject] is an alias — and
      it exposes delivery cursors so a snapshot can record how far the
      schedule had progressed and a resume can replay only the suffix.
    - {b Host events} are the chaos layer's realized injections
      (translator kills, forced pre-execution faults, spoofed interrupt
      polls, flush/evict storms), recorded via {!Cms_robust.Chaos.tap}
      with their *opportunity index* — the nth invocation of the
      corresponding hook.  Replay re-injects by counter matching alone:
      no RNG runs at replay time, so a journal replays identically even
      if the chaos profile, RNG, or rate tuning changes later.

    The replay-fidelity argument: the machine is deterministic apart
    from these inputs, and every opportunity index is a pure function of
    the execution so far; by induction over events, the replayed run
    makes exactly the recorded injections at exactly the recorded
    points, hence ends in the identical state. *)

type guest_event =
  | Irq of { at : int; line : int }
      (** raise IRQ [line] once ≥ [at] instructions have retired *)
  | Dma of { addr : int; data : string }
      (** device write of [data] at physical [addr] *)
  | Prot of { virt : int; writable : bool }
      (** flip page-table writability of the page at [virt] *)
  | Pkt of { at : int; data : string }
      (** deliver a frame into the NIC RX ring once ≥ [at] instructions
          have retired.  Delivery is additionally gated on the NIC's
          line latch being clear *and* {!Machine.Nic.can_accept}, so
          the set of frames that land — and where — is a pure function
          of the event list in every execution configuration *)
  | Dma_at of { at : int; addr : int; data : string }
      (** asynchronous device write of [data] at physical [addr], fired
          at the first boundary once ≥ [at] instructions have retired —
          the §3.6.1 DMA-vs-translation race, journaled verbatim *)

let pp_guest_event ppf = function
  | Irq { at; line } -> Fmt.pf ppf "irq@%d line=%d" at line
  | Dma { addr; data } -> Fmt.pf ppf "dma@%#x len=%d" addr (String.length data)
  | Prot { virt; writable } -> Fmt.pf ppf "prot@%#x w=%b" virt writable
  | Pkt { at; data } -> Fmt.pf ppf "pkt@%d len=%d" at (String.length data)
  | Dma_at { at; addr; data } ->
      Fmt.pf ppf "dma@%d->%#x len=%d" at addr (String.length data)

type host_event =
  | Kill of { nth : int }  (** nth translation attempt dies *)
  | Pre_fault of { nth : int; alias : bool }
      (** nth pre-execution check injects a native fault *)
  | Spoof of { nth : int }  (** nth interrupt poll reports a phantom IRQ *)
  | Flush of { nth : int }  (** nth dispatch boundary flushes the tcache *)
  | Evict of { nth : int }  (** nth boundary evicts the coldest generation *)
  | Unlink of { nth : int; k : int }
      (** nth boundary forcibly unlinks a chained exit, selected by [k]
          over the canonical {!Cms.Tcache.chained_exits} order (the
          selection is a pure function of tcache state, so replaying
          [(nth, k)] cuts the identical link) *)

let pp_host_event ppf = function
  | Kill { nth } -> Fmt.pf ppf "kill@%d" nth
  | Pre_fault { nth; alias } -> Fmt.pf ppf "fault@%d alias=%b" nth alias
  | Spoof { nth } -> Fmt.pf ppf "spoof@%d" nth
  | Flush { nth } -> Fmt.pf ppf "flush@%d" nth
  | Evict { nth } -> Fmt.pf ppf "evict@%d" nth
  | Unlink { nth; k } -> Fmt.pf ppf "unlink@%d k=%d" nth k

type t = {
  label : string;  (** workload / case name *)
  cfg : Cms.Config.t;  (** exact configuration of the recorded run *)
  guest : guest_event list;
  host : host_event list;
  arch_hex : string option;  (** recorded final {!Digests.arch_hex} *)
  strict_hex : string option;  (** recorded final strict digest (hex) *)
}

(* ------------------------------------------------------------------ *)
(* Guest-event injection                                               *)
(* ------------------------------------------------------------------ *)

(** Delivery cursors of an installed guest-event schedule; snapshots
    capture them so a resume can install the undelivered suffix. *)
type injector = {
  mutable irq_next : int;
      (** next index into the sorted asynchronous schedule (IRQ raises,
          packet arrivals and async DMA, merged in [at] order) *)
  mutable sync_taken : int;  (** synchronous events already fired *)
  n_irq : int;
  n_sync : int;
}

(** Wire [events] into a freshly created (or restored) engine, before
    [run].  IRQ events install the boundary hook; DMA/protection events
    queue on the fuzz port, fired by successive guest [out]s.
    [irq_cursor]/[sync_cursor] skip the prefix a resumed run's snapshot
    already saw delivered. *)
let install_guest ?(irq_cursor = 0) ?(sync_cursor = 0) (c : Cms.t)
    (events : guest_event list) : injector =
  let plat = Cms.platform c in
  let mem = plat.Machine.Platform.mem in
  let stats = Cms.stats c in
  let asyncs =
    List.filter_map
      (function
        | Irq { at; line } -> Some (at, `Irq line)
        | Pkt { at; data } -> Some (at, `Pkt data)
        | Dma_at { at; addr; data } -> Some (at, `Dma (addr, data))
        | Dma _ | Prot _ -> None)
      events
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> Array.of_list
  in
  let syncs =
    List.filter
      (function Dma _ | Prot _ -> true | Irq _ | Pkt _ | Dma_at _ -> false)
      events
    |> Array.of_list
  in
  let inj =
    {
      irq_next = irq_cursor;
      sync_taken = sync_cursor;
      n_irq = Array.length asyncs;
      n_sync = Array.length syncs;
    }
  in
  if Array.length asyncs > 0 then begin
    (* Gate each raise on the line's latch being clear: the PIC latches
       a line as a single bit, so raising the same line twice before
       the first delivery would collapse two events into one — and
       whether two nearby events straddle a delivery is exactly what
       differs between interpreter and translator boundaries.  Holding
       the later event back until the earlier one has been delivered
       makes the total delivery count per line a pure function of the
       event list in every configuration.  Packet arrivals extend the
       same discipline to the NIC: deliver only when the NIC's line
       latch is clear *and* the RX ring has an armed descriptor, so
       frame placement is also schedule-independent.  The queue is
       head-blocking on purpose: a held-back event delays everything
       behind it identically in every configuration. *)
    let irqc = plat.Machine.Platform.irq in
    let nic = plat.Machine.Platform.nic in
    c.Cms.Engine.on_boundary <-
      Some
        (fun retired ->
          let continue_ = ref true in
          while !continue_ && inj.irq_next < Array.length asyncs do
            let at, ev = asyncs.(inj.irq_next) in
            let fired =
              at <= retired
              &&
              match ev with
              | `Irq line ->
                  irqc.Machine.Irq.pending land (1 lsl line) = 0
                  && begin
                       Machine.Irq.raise_line irqc line;
                       true
                     end
              | `Pkt data ->
                  irqc.Machine.Irq.pending land (1 lsl nic.Machine.Nic.line)
                  = 0
                  && Machine.Nic.can_accept nic
                  && Machine.Nic.rx_inject nic data
              | `Dma (addr, data) ->
                  Machine.Mem.dma_write mem addr (Bytes.of_string data);
                  true
            in
            if fired then begin
              stats.Cms.Stats.journal_events <-
                stats.Cms.Stats.journal_events + 1;
              inj.irq_next <- inj.irq_next + 1
            end
            else continue_ := false
          done)
  end;
  let fire _v =
    if inj.sync_taken < inj.n_sync then begin
      let e = syncs.(inj.sync_taken) in
      inj.sync_taken <- inj.sync_taken + 1;
      stats.Cms.Stats.journal_events <- stats.Cms.Stats.journal_events + 1;
      match e with
      | Dma { addr; data } ->
          Machine.Mem.dma_write mem addr (Bytes.of_string data)
      | Prot { virt; writable } ->
          Machine.Mmu.set_writable mem.Machine.Mem.mmu ~virt writable
      | Irq _ | Pkt _ | Dma_at _ -> assert false
    end
  in
  Machine.Bus.add_port mem.Machine.Mem.bus Machine.Platform.fuzz_port
    {
      Machine.Bus.pread = (fun _ -> inj.n_sync - inj.sync_taken);
      pwrite = (fun _ v -> fire v);
    };
  inj

(* ------------------------------------------------------------------ *)
(* Host-event replay                                                   *)
(* ------------------------------------------------------------------ *)

exception Replayed_death of int
(** The replayed analogue of {!Cms_robust.Chaos.Injected}: raised from
    [on_translate] inside the engine's containment boundary when the
    journal says the nth translation attempt died. *)

(** Re-inject a recorded host-event schedule into an engine: the chaos
    run, replayed without the chaos layer (and without its RNG).
    Composes with an already-installed [on_boundary] hook (the guest
    injector), running it first — the same order {!Cms_robust.Chaos}
    uses when recording. *)
let install_host (c : Cms.t) (events : host_event list) =
  let stats = Cms.stats c in
  let kills = Queue.create () in
  let faults = Queue.create () in
  let spoofs = Queue.create () in
  let flushes = Queue.create () in
  let evicts = Queue.create () in
  let unlinks = Queue.create () in
  List.iter
    (function
      | Kill { nth } -> Queue.add nth kills
      | Pre_fault { nth; alias } -> Queue.add (nth, alias) faults
      | Spoof { nth } -> Queue.add nth spoofs
      | Flush { nth } -> Queue.add nth flushes
      | Evict { nth } -> Queue.add nth evicts
      | Unlink { nth; k } -> Queue.add (nth, k) unlinks)
    events;
  let due q n =
    match Queue.peek_opt q with
    | Some m when m = n ->
        ignore (Queue.pop q);
        stats.Cms.Stats.journal_events <- stats.Cms.Stats.journal_events + 1;
        true
    | _ -> false
  in
  let n_boundary = ref 0 in
  let n_translate = ref 0 in
  let n_exec = ref 0 in
  let n_spoof = ref 0 in
  let prev = c.Cms.Engine.on_boundary in
  c.Cms.Engine.on_boundary <-
    Some
      (fun retired ->
        (match prev with Some f -> f retired | None -> ());
        let n = !n_boundary in
        incr n_boundary;
        if due flushes n then Cms.Tcache.flush c.Cms.Engine.tcache;
        if due evicts n then
          ignore (Cms.Tcache.evict_coldest c.Cms.Engine.tcache);
        match Queue.peek_opt unlinks with
        | Some (m, k) when m = n ->
            ignore (Queue.pop unlinks);
            stats.Cms.Stats.journal_events <-
              stats.Cms.Stats.journal_events + 1;
            ignore (Cms.Tcache.unlink_nth c.Cms.Engine.tcache ~k)
        | _ -> ());
  c.Cms.Engine.chaos <-
    Some
      {
        Cms.Engine.on_translate =
          (fun entry ->
            let n = !n_translate in
            incr n_translate;
            if due kills n then raise (Replayed_death entry));
        pre_exec =
          (fun _tr ->
            let n = !n_exec in
            incr n_exec;
            match Queue.peek_opt faults with
            | Some (m, alias) when m = n ->
                ignore (Queue.pop faults);
                stats.Cms.Stats.journal_events <-
                  stats.Cms.Stats.journal_events + 1;
                Some
                  (if alias then Vliw.Nexn.Alias_violation 0
                   else Vliw.Nexn.Sbuf_overflow)
            | _ -> None);
        irq_spoof =
          (fun () ->
            let n = !n_spoof in
            incr n_spoof;
            due spoofs n);
      }

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

(* version 2: the embedded Config grew closure_exec/chain_exits, and
   host events grew the chaos unlink storm (tag 5).
   version 3: the embedded Config grew the background-translator knob
   and queue bound, Stats grew its counters, and host events the
   background-consume boundary (tag 6).
   version 4: guest events grew NIC packet arrivals (tag 3) and
   asynchronous retired-clock DMA bursts (tag 4); the embedded Stats
   grew the interrupt-pressure counters.
   version 5: the background translator is gone: the embedded Config
   and Stats lost its fields, and host events the background-consume
   boundary (tag 6).
   version 6: the decoder tier is gone: the embedded Config lost
   closure_exec, chain_exits, validate_molecules and enforce_latency.
   version 7: the embedded Config lost the verifier knob (the
   verifier runs on every translation). *)
let version = 7
let kind = "JRNL"

let w_guest_event b = function
  | Irq { at; line } ->
      Codec.w_int b 0;
      Codec.w_int b at;
      Codec.w_int b line
  | Dma { addr; data } ->
      Codec.w_int b 1;
      Codec.w_int b addr;
      Codec.w_string b data
  | Prot { virt; writable } ->
      Codec.w_int b 2;
      Codec.w_int b virt;
      Codec.w_bool b writable
  | Pkt { at; data } ->
      Codec.w_int b 3;
      Codec.w_int b at;
      Codec.w_string b data
  | Dma_at { at; addr; data } ->
      Codec.w_int b 4;
      Codec.w_int b at;
      Codec.w_int b addr;
      Codec.w_string b data

let r_guest_event r =
  match Codec.r_int r with
  | 0 ->
      let at = Codec.r_int r in
      let line = Codec.r_int r in
      Irq { at; line }
  | 1 ->
      let addr = Codec.r_int r in
      let data = Codec.r_string r in
      Dma { addr; data }
  | 2 ->
      let virt = Codec.r_int r in
      let writable = Codec.r_bool r in
      Prot { virt; writable }
  | 3 ->
      let at = Codec.r_int r in
      let data = Codec.r_string r in
      Pkt { at; data }
  | 4 ->
      let at = Codec.r_int r in
      let addr = Codec.r_int r in
      let data = Codec.r_string r in
      Dma_at { at; addr; data }
  | k -> Codec.corrupt "journal: unknown guest-event tag %d" k

let w_host_event b = function
  | Kill { nth } ->
      Codec.w_int b 0;
      Codec.w_int b nth
  | Pre_fault { nth; alias } ->
      Codec.w_int b 1;
      Codec.w_int b nth;
      Codec.w_bool b alias
  | Spoof { nth } ->
      Codec.w_int b 2;
      Codec.w_int b nth
  | Flush { nth } ->
      Codec.w_int b 3;
      Codec.w_int b nth
  | Evict { nth } ->
      Codec.w_int b 4;
      Codec.w_int b nth
  | Unlink { nth; k } ->
      Codec.w_int b 5;
      Codec.w_int b nth;
      Codec.w_int b k

let r_host_event r =
  match Codec.r_int r with
  | 0 -> Kill { nth = Codec.r_int r }
  | 1 ->
      let nth = Codec.r_int r in
      let alias = Codec.r_bool r in
      Pre_fault { nth; alias }
  | 2 -> Spoof { nth = Codec.r_int r }
  | 3 -> Flush { nth = Codec.r_int r }
  | 4 -> Evict { nth = Codec.r_int r }
  | 5 ->
      let nth = Codec.r_int r in
      let k = Codec.r_int r in
      Unlink { nth; k }
  | k -> Codec.corrupt "journal: unknown host-event tag %d" k

let to_string (t : t) =
  Codec.container ~kind ~version (fun sec ->
      sec "META" (fun b ->
          Codec.w_string b t.label;
          Codec.w_opt b Codec.w_string t.arch_hex;
          Codec.w_opt b Codec.w_string t.strict_hex);
      sec "CONF" (fun b -> Stable.w_config b t.cfg);
      sec "GEVT" (fun b -> Codec.w_list b w_guest_event t.guest);
      sec "HEVT" (fun b -> Codec.w_list b w_host_event t.host))

let of_string data : t =
  let sections = Codec.read_container ~kind ~version data in
  let sec tag = Codec.reader ~ctx:("journal section " ^ tag) (Codec.section sections tag) in
  let meta = sec "META" in
  let label = Codec.r_string meta in
  let arch_hex = Codec.r_opt meta Codec.r_string in
  let strict_hex = Codec.r_opt meta Codec.r_string in
  Codec.r_end meta;
  let conf = sec "CONF" in
  let cfg = Stable.r_config conf in
  Codec.r_end conf;
  let gevt = sec "GEVT" in
  let guest = Codec.r_list gevt r_guest_event in
  Codec.r_end gevt;
  let hevt = sec "HEVT" in
  let host = Codec.r_list hevt r_host_event in
  Codec.r_end hevt;
  { label; cfg; guest; host; arch_hex; strict_hex }

let save path t = Codec.write_file path (to_string t)
let load path : t = of_string (Codec.read_file path)
