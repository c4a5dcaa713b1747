(** Interrupt-storm and device-fault campaigns.

    Where {!Chaos} attacks the engine from the *host* side (translator
    deaths, spoofed polls, cache storms), this layer attacks it from
    the *device* side: seeded packet storms against the NIC, IRQ floods
    on arbitrary lines at adversarial retired-clock instants, and
    asynchronous DMA bursts aimed at the guest's own code image — the
    §3.6.1 race between device writes and installed translations.

    Frame-level faults (drops, corruptions, duplicates, reorderings)
    are applied at *generation* time: the post-transform frame list is
    the ground truth, the RX-server kernel's expected checksum is
    computed from it, and the journal's gated installer guarantees
    exactly those frames land, in that order, in every execution
    configuration.  What the campaign then checks per case:

    - every configuration self-validates (EAX checksum, EBX syscall
      count) and halts — interpreter-only, full translator, and a
      chaos-composed translator with scrambled capacities;
    - {!Cms.Engine.speculation_visible} is armed on every rollback:
      an asynchronous event that exposes shadow state is a finding;
    - the translator run record-replays bit-identically through
      {!Cms_persist.Journal} (serialized and re-parsed, so the on-disk
      codec is in the loop). *)

module Journal = Cms_persist.Journal
module Digests = Cms_persist.Digests
module Suite = Workloads.Suite
module Progs_kernel = Workloads.Progs_kernel

(* ------------------------------------------------------------------ *)
(* Campaign profile                                                    *)
(* ------------------------------------------------------------------ *)

(** Storm shape.  Ranges are inclusive; rates are per-mille, applied
    per frame at generation time. *)
type profile = {
  n_pkts : int * int;  (** frames per RX case *)
  pkt_len : int * int;  (** frame payload length *)
  oversize : int;
      (** per-mille: frame longer than the descriptor's 64-byte buffer,
          exercising the device's DMA truncation *)
  drop : int;  (** frame lost before reaching the NIC *)
  corrupt : int;  (** one payload byte flipped in flight *)
  duplicate : int;  (** frame delivered twice *)
  reorder : int;  (** frame swapped with its successor *)
  n_irqs : int * int;  (** IRQ-flood raises per case, any line *)
  n_dmas : int * int;  (** async DMA bursts per case *)
  at_hi : int;  (** latest retired-clock instant for any event *)
  chaos_share : int;  (** percent of cases also chaos-armed *)
}

let default_profile =
  {
    n_pkts = (4, 14);
    pkt_len = (1, 48);
    oversize = 80;
    drop = 120;
    corrupt = 150;
    duplicate = 120;
    reorder = 150;
    n_irqs = (0, 24);
    n_dmas = (0, 6);
    at_hi = 150_000;
    chaos_share = 40;
  }

(* ------------------------------------------------------------------ *)
(* Case generation                                                     *)
(* ------------------------------------------------------------------ *)

(* Generate the raw frame stream, then act the channel faults out on
   it.  Whatever survives *is* the delivered stream: the kernel's
   expected checksum is computed from the transformed list, so a
   generation-time drop is indistinguishable from a link-level loss,
   and determinism across configurations is untouched. *)
let gen_frames rng (p : profile) =
  let lo, hi = p.n_pkts in
  let n = Srng.range rng (max 1 lo) hi in
  let raw =
    List.init n (fun _ ->
        let len =
          if Srng.chance rng p.oversize 1000 then Srng.range rng 65 96
          else Srng.range rng (fst p.pkt_len) (snd p.pkt_len)
        in
        String.init len (fun _ -> Char.chr (Srng.int rng 256)))
  in
  let kept = List.filter (fun _ -> not (Srng.chance rng p.drop 1000)) raw in
  let kept = if kept = [] then [ List.hd raw ] else kept in
  let corrupted =
    List.map
      (fun f ->
        if String.length f > 0 && Srng.chance rng p.corrupt 1000 then begin
          let i = Srng.int rng (String.length f) in
          let bit = 1 lsl Srng.int rng 8 in
          let b = Bytes.of_string f in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit));
          Bytes.to_string b
        end
        else f)
      kept
  in
  let duplicated =
    List.concat_map
      (fun f -> if Srng.chance rng p.duplicate 1000 then [ f; f ] else [ f ])
      corrupted
  in
  let rec reorder = function
    | a :: b :: tl when Srng.chance rng p.reorder 1000 -> b :: reorder (a :: tl)
    | a :: tl -> a :: reorder tl
    | [] -> []
  in
  reorder duplicated

let sorted_ats rng (p : profile) n =
  List.init n (fun _ -> Srng.range rng 1_000 p.at_hi) |> List.sort compare

let gen_irq_flood rng (p : profile) =
  let lo, hi = p.n_irqs in
  let n = Srng.range rng lo hi in
  List.init n (fun _ ->
      Journal.Irq
        {
          at = Srng.range rng 1_000 p.at_hi;
          line = Srng.int rng Machine.Irq.lines;
        })

(* Asynchronous DMA bursts that write the guest's *own code bytes*
   back over the image: architecturally inert, but every burst that
   lands on translated code must invalidate the covering translations
   at a consistent boundary (the §3.6.1 protocol).  Timing them with
   the retired clock steers them into translation / install / chain
   windows across configurations. *)
let gen_dma_bursts rng (p : profile) (listing : X86.Asm.listing) =
  let image = listing.X86.Asm.image in
  let size = Bytes.length image in
  let lo, hi = p.n_dmas in
  let n = Srng.range rng lo hi in
  List.init n (fun _ ->
      let len = Srng.range rng 4 16 in
      let off = Srng.int rng (max 1 (size - len)) in
      Journal.Dma_at
        {
          at = Srng.range rng 1_000 p.at_hi;
          addr = listing.X86.Asm.base + off;
          data = Bytes.sub_string image off len;
        })

type case = {
  idx : int;
  ckind : string;  (** "rr" | "echo" | "rx" *)
  workload : Suite.t;
  events : Journal.guest_event list;
  expected_ebx : int;
  chaos_seed : int option;
}

(* The echo kernel keeps its own loopback frame in flight, so external
   packets would race it for the armed descriptor — schedule-dependent
   and deliberately excluded: echo and rr cases take the IRQ floods
   and DMA bursts, the rx kernel takes the packet storms. *)
let gen_case rng (p : profile) idx =
  let ckind =
    Srng.choose rng [| "rx"; "rx"; "echo"; "rr" |] (* rx-heavy mix *)
  in
  let workload, pkt_events, expected_ebx =
    match ckind with
    | "rx" ->
        let frames = gen_frames rng p in
        let ats = sorted_ats rng p (List.length frames) in
        let w = Progs_kernel.kernel_rx frames in
        let evs =
          List.map2 (fun at data -> Journal.Pkt { at; data }) ats frames
        in
        (w, evs, snd (Progs_kernel.rx_expected frames))
    | "echo" ->
        ( Progs_kernel.kernel_echo,
          [],
          Progs_kernel.expected_calls Progs_kernel.kernel_echo )
    | _ ->
        ( Progs_kernel.kernel_rr,
          [],
          Progs_kernel.expected_calls Progs_kernel.kernel_rr )
  in
  let irqs = gen_irq_flood rng p in
  let dmas = gen_dma_bursts rng p workload.Suite.listing in
  let chaos_seed =
    if Srng.chance rng p.chaos_share 100 then Some (Srng.int rng 0x3fffffff)
    else None
  in
  { idx; ckind; workload; events = pkt_events @ irqs @ dmas; expected_ebx;
    chaos_seed }

(* ------------------------------------------------------------------ *)
(* Running one configuration                                           *)
(* ------------------------------------------------------------------ *)

let cfg_translate = Cms.Config.default

(* The kernels keep their task stacks inside this window; dead bytes
   below a preempted task's ESP are molecule-clock territory and are
   masked out of every memory digest, exactly as the fuzz oracle does
   for its canonical stack. *)
let stack_mask = [ (0x70000, 0x80000) ]

type stop_kind = Halted | Limit | Crash of string

let stop_name = function
  | Halted -> "halted"
  | Limit -> "insn-limit"
  | Crash m -> "crash: " ^ m

type outcome = {
  stop : stop_kind;
  arch : Digests.arch;
  strict : Digest.t;
  spec_violation : bool;
      (** a rollback left speculative state architecturally visible *)
  stats : Cms.Stats.t;
}

let execute ~cfg ~setup (w : Suite.t) : outcome * Cms.t =
  let c = Suite.prepare ~cfg w in
  let spec = ref false in
  c.Cms.Engine.on_rollback <-
    Some
      (fun () ->
        if Cms.Engine.speculation_visible c then begin
          spec := true;
          failwith "speculative state visible after rollback"
        end);
  setup c;
  let stop =
    match Cms.run ~max_insns:w.Suite.max_insns c with
    | Cms.Engine.Halted -> Halted
    | Cms.Engine.Insn_limit -> Limit
    | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
    | exception e -> Crash (Printexc.to_string e)
  in
  ( {
      stop;
      arch = Digests.arch ~mask:stack_mask c;
      strict = Digests.strict ~mask:stack_mask c;
      spec_violation = !spec;
      stats = Cms.stats c;
    },
    c )

(* Self-validation of one finished run: halted, checksum in EAX,
   syscall count in EBX — both schedule-independent by construction,
   hence identical in every configuration. *)
let validate (case : case) tag (o : outcome) c =
  let w = case.workload in
  match o.stop with
  | Limit -> Error (Fmt.str "%s: hit the %d-insn limit" tag w.Suite.max_insns)
  | Crash m -> Error (Fmt.str "%s: %s" tag m)
  | Halted ->
      let eax = Cms.gpr c X86.Regs.eax in
      let ebx = Cms.gpr c X86.Regs.ebx in
      let want_eax = Option.get w.Suite.expected_eax in
      if eax <> want_eax then
        Error
          (Fmt.str "%s: checksum mismatch: expected %#x, got %#x" tag want_eax
             eax)
      else if ebx <> case.expected_ebx then
        Error
          (Fmt.str "%s: syscall count mismatch: expected %d, got %d" tag
             case.expected_ebx ebx)
      else Ok ()

let chaos_of_seed seed cfg =
  let rng = Srng.create seed in
  let cfg = Chaos.scramble_cfg rng cfg in
  (cfg, Chaos.create rng)

(* ------------------------------------------------------------------ *)
(* Record / replay through the journal                                 *)
(* ------------------------------------------------------------------ *)

(* Record the translator run of [case] (chaos-composed when the case
   carries a chaos seed), serialize the journal through the stable
   codec, re-parse it, replay it, and require a bit-identical outcome.
   Mirrors the fuzz oracle's record/replay differential, with the
   serialization round-trip added so the version-4 guest-event codec
   (packet arrivals, async DMA) is exercised on every case. *)
let check_record_replay (case : case) : (unit, string) result =
  let cfg, chaos =
    match case.chaos_seed with
    | None -> (cfg_translate, None)
    | Some seed ->
        let cfg, ch = chaos_of_seed seed cfg_translate in
        (cfg, Some ch)
  in
  let host = ref [] in
  let setup c =
    ignore (Journal.install_guest c case.events : Journal.injector);
    match chaos with
    | Some ch -> Chaos.install ~record:(fun ev -> host := ev :: !host) ch c
    | None -> ()
  in
  let recorded, _c = execute ~cfg ~setup case.workload in
  let journal =
    Journal.of_string
      (Journal.to_string
         {
           Journal.label = case.workload.Suite.name;
           cfg;
           guest = case.events;
           host = List.rev !host;
           arch_hex = Some (Digests.arch_hex recorded.arch);
           strict_hex = Some (Digests.strict_hex recorded.strict);
         })
  in
  let setup c =
    ignore (Journal.install_guest c journal.Journal.guest : Journal.injector);
    if journal.Journal.host <> [] then Journal.install_host c journal.Journal.host
  in
  let replayed, _c = execute ~cfg:journal.Journal.cfg ~setup case.workload in
  if recorded.stop <> replayed.stop then
    Error
      (Fmt.str "record/replay stop mismatch (%s vs %s)"
         (stop_name recorded.stop) (stop_name replayed.stop))
  else if recorded.arch <> replayed.arch then
    Error ("record/replay arch: " ^ Digests.arch_diff recorded.arch replayed.arch)
  else if recorded.strict <> replayed.strict then
    Error "record/replay strict digest mismatch"
  else if recorded.spec_violation || replayed.spec_violation then
    Error "record/replay: speculative state visible"
  else Ok ()

(* ------------------------------------------------------------------ *)
(* One case through the full gauntlet                                  *)
(* ------------------------------------------------------------------ *)

type case_report = {
  r_idx : int;
  r_kind : string;
  r_chaos : bool;
  r_error : string option;
  r_spec_violations : int;
  r_events_fired : int;  (** journaled deliveries in the translator run *)
  r_nic_rx : int;
  r_nic_drops : int;
  r_irq_delivered : int;
  r_irq_rollbacks : int;
}

let run_case (case : case) : case_report =
  let clean_setup c =
    ignore (Journal.install_guest c case.events : Journal.injector)
  in
  let run_one tag ~cfg ~setup =
    let o, c = execute ~cfg ~setup case.workload in
    (validate case tag o c, o)
  in
  let spec_violations = ref 0 in
  let note_spec (o : outcome) =
    if o.spec_violation then incr spec_violations
  in
  let interp = run_one "interp" ~cfg:Cms.interp_only_cfg ~setup:clean_setup in
  let hot = run_one "translate" ~cfg:cfg_translate ~setup:clean_setup in
  let chaosed =
    match case.chaos_seed with
    | None -> None
    | Some seed ->
        let cfg, ch = chaos_of_seed seed cfg_translate in
        let setup c =
          clean_setup c;
          Chaos.install ch c
        in
        Some (run_one "chaos" ~cfg ~setup)
  in
  note_spec (snd interp);
  note_spec (snd hot);
  (match chaosed with Some (_, o) -> note_spec o | None -> ());
  let error =
    match (fst interp, fst hot) with
    | Error e, _ | _, Error e -> Some e
    | Ok (), Ok () -> (
        match chaosed with
        | Some (Error e, _) -> Some e
        | _ -> (
            match check_record_replay case with
            | Error e -> Some e
            | Ok () -> None))
  in
  let error =
    match error with
    | Some _ -> error
    | None ->
        if !spec_violations > 0 then Some "speculative state visible" else None
  in
  let s = (snd hot).stats in
  {
    r_idx = case.idx;
    r_kind = case.ckind;
    r_chaos = case.chaos_seed <> None;
    r_error = error;
    r_spec_violations = !spec_violations;
    r_events_fired = s.Cms.Stats.journal_events;
    r_nic_rx = s.Cms.Stats.nic_rx_frames;
    r_nic_drops = s.Cms.Stats.nic_rx_dropped;
    r_irq_delivered = s.Cms.Stats.irq_delivered;
    r_irq_rollbacks = s.Cms.Stats.irq_rollbacks;
  }

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

type totals = {
  mutable cases : int;
  mutable passed : int;
  mutable failed : int;
  mutable spec_violations : int;
  mutable frames_injected : int;
  mutable irqs_injected : int;
  mutable dmas_injected : int;
  mutable events_fired : int;
  mutable nic_rx : int;
  mutable nic_drops : int;
  mutable irq_delivered : int;
  mutable irq_rollbacks : int;
  mutable failures : (int * string) list;  (** newest first, capped *)
}

let campaign ?(profile = default_profile) ?on_case ~seed ~cases () =
  let rng = Srng.create seed in
  let t =
    {
      cases = 0;
      passed = 0;
      failed = 0;
      spec_violations = 0;
      frames_injected = 0;
      irqs_injected = 0;
      dmas_injected = 0;
      events_fired = 0;
      nic_rx = 0;
      nic_drops = 0;
      irq_delivered = 0;
      irq_rollbacks = 0;
      failures = [];
    }
  in
  for idx = 0 to cases - 1 do
    let case = gen_case (Srng.split rng) profile idx in
    List.iter
      (function
        | Journal.Pkt _ -> t.frames_injected <- t.frames_injected + 1
        | Journal.Irq _ -> t.irqs_injected <- t.irqs_injected + 1
        | Journal.Dma_at _ -> t.dmas_injected <- t.dmas_injected + 1
        | Journal.Dma _ | Journal.Prot _ -> ())
      case.events;
    let r = run_case case in
    t.cases <- t.cases + 1;
    (match r.r_error with
    | None -> t.passed <- t.passed + 1
    | Some e ->
        t.failed <- t.failed + 1;
        if List.length t.failures < 20 then
          t.failures <- (idx, e) :: t.failures);
    t.spec_violations <- t.spec_violations + r.r_spec_violations;
    t.events_fired <- t.events_fired + r.r_events_fired;
    t.nic_rx <- t.nic_rx + r.r_nic_rx;
    t.nic_drops <- t.nic_drops + r.r_nic_drops;
    t.irq_delivered <- t.irq_delivered + r.r_irq_delivered;
    t.irq_rollbacks <- t.irq_rollbacks + r.r_irq_rollbacks;
    match on_case with Some f -> f r | None -> ()
  done;
  t

let pp_totals ppf (t : totals) =
  Fmt.pf ppf
    "storm: %d cases, %d passed, %d failed, %d speculation violations@.\
     injected: %d frames, %d irq raises, %d dma bursts (%d fired in the \
     translator runs)@.\
     translator runs: nic-rx=%d ring-full-drops=%d irq-delivered=%d \
     irq-rollbacks=%d"
    t.cases t.passed t.failed t.spec_violations t.frames_injected
    t.irqs_injected t.dmas_injected t.events_fired t.nic_rx t.nic_drops
    t.irq_delivered t.irq_rollbacks
