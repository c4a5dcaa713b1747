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
    - no rollback leaves speculative state visible (the engine checks
      every one): an asynchronous event that exposes shadow state is a
      finding;
    - the translator run record-replays bit-identically through
      {!Cms_persist.Trial} (the journal serialized and re-parsed, so the
      on-disk codec is in the loop). *)

module Journal = Cms_persist.Journal
module Trial = Cms_persist.Trial
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

(* The channel faults both frame generators share.  Rates are per
   mille, drawn per frame: a rate of 0 still draws, so the generators'
   later draws do not depend on it. *)

(** [n] random frames: [oversize] per mille are 65-96 bytes, longer
    than the RX ring's 64-byte buffers; the rest are [pkt_len] long. *)
let raw_frames rng ~n ~oversize ~pkt_len =
  List.init n (fun _ ->
      let len =
        if Srng.chance rng oversize 1000 then Srng.range rng 65 96
        else Srng.range rng (fst pkt_len) (snd pkt_len)
      in
      String.init len (fun _ -> Char.chr (Srng.int rng 256)))

(** Flip one bit of a non-empty frame, at [rate] per mille. *)
let corrupt_frames rng ~rate frames =
  List.map
    (fun f ->
      if String.length f > 0 && Srng.chance rng rate 1000 then begin
        let i = Srng.int rng (String.length f) in
        let bit = 1 lsl Srng.int rng 8 in
        let b = Bytes.of_string f in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit));
        Bytes.to_string b
      end
      else f)
    frames

(** Swap a frame with its successor, at [rate] per mille. *)
let rec reorder_frames rng ~rate = function
  | a :: b :: tl when Srng.chance rng rate 1000 ->
      b :: reorder_frames rng ~rate (a :: tl)
  | a :: tl -> a :: reorder_frames rng ~rate tl
  | [] -> []

(* Generate the raw frame stream, then act the channel faults out on
   it.  Whatever survives *is* the delivered stream: the kernel's
   expected checksum is computed from the transformed list, so a
   generation-time drop is indistinguishable from a link-level loss,
   and determinism across configurations is untouched. *)
let gen_frames rng (p : profile) =
  let lo, hi = p.n_pkts in
  let n = Srng.range rng (max 1 lo) hi in
  let raw = raw_frames rng ~n ~oversize:p.oversize ~pkt_len:p.pkt_len in
  let kept = List.filter (fun _ -> not (Srng.chance rng p.drop 1000)) raw in
  let kept = if kept = [] then [ List.hd raw ] else kept in
  let corrupted = corrupt_frames rng ~rate:p.corrupt kept in
  let duplicated =
    List.concat_map
      (fun f -> if Srng.chance rng p.duplicate 1000 then [ f; f ] else [ f ])
      corrupted
  in
  reorder_frames rng ~rate:p.reorder duplicated

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

(* The kernels keep their task stacks inside this window; dead bytes
   below a preempted task's ESP are molecule-clock territory and are
   masked out of every memory digest, exactly as the fuzz oracle does
   for its canonical stack. *)
let stack_mask = [ (0x70000, 0x80000) ]

(* Self-validation of one finished run: the suite self-check (halted,
   checksum in EAX, clean) and the syscall count in EBX — both
   schedule-independent by construction, hence identical in every
   configuration. *)
let validate (case : case) tag (o : Trial.outcome) c =
  let ebx = Cms.gpr c X86.Regs.ebx in
  match Trial.suite_check case.workload o with
  | Error e -> Error (tag ^ ": " ^ e)
  | Ok () when ebx <> case.expected_ebx ->
      Error
        (Fmt.str "%s: syscall count mismatch: expected %d, got %d" tag
           case.expected_ebx ebx)
  | Ok () -> Ok ()

let chaos_of_seed seed cfg =
  let rng = Srng.create seed in
  let cfg = Chaos.scramble_cfg rng cfg in
  (cfg, Chaos.create rng)

(* ------------------------------------------------------------------ *)
(* One case through the full gauntlet                                  *)
(* ------------------------------------------------------------------ *)

type case_report = {
  r_idx : int;
  r_kind : string;
  r_chaos : bool;
  r_error : string option;
  r_spec_violations : int;
  r_stats : Cms.Stats.t;  (** the translator run's counters *)
}

(* Interpreter, translator and (when the case carries a chaos seed) the
   chaos-composed translator must each self-validate; then the
   translator run, chaos-composed when armed, must record-replay
   bit-identically through the serialized journal.  That run records
   its journal as it goes, so no run repeats another: three machines
   per case, four when armed. *)
let run_case (case : case) : case_report =
  let s = Trial.of_suite ~mask:stack_mask case.workload in
  let run_one tag ~cfg =
    let o, c =
      Trial.execute s ~cfg ~setup:(fun c ->
          ignore (Journal.install_guest c case.events : Journal.injector))
    in
    (validate case tag o c, o)
  in
  let interp = run_one "interp" ~cfg:Cms.interp_only_cfg in
  let plain =
    Option.map
      (fun _ -> run_one "translate" ~cfg:Cms.Config.default)
      case.chaos_seed
  in
  let tag, cfg, schedule =
    match case.chaos_seed with
    | None -> ("translate", Cms.Config.default, None)
    | Some seed ->
        let cfg, ch = chaos_of_seed seed Cms.Config.default in
        ("chaos", cfg, Some (Chaos.schedule ch))
  in
  let recording =
    Trial.record s ~label:case.workload.Suite.name ~cfg ~guest:case.events
      ?schedule ()
  in
  let recorded =
    ( validate case tag recording.Trial.outcome recording.Trial.machine,
      recording.Trial.outcome )
  in
  let hot = Option.value plain ~default:recorded in
  let runs = (interp :: Option.to_list plain) @ [ recorded ] in
  let error_of = function Ok () -> None | Error e -> Some e in
  (* a speculation violation stops its run as a [Crash], which fails
     that run's validation *)
  let error =
    match List.find_map (fun (v, _) -> error_of v) runs with
    | Some e -> Some e
    | None -> error_of (Trial.check_replay s recording)
  in
  let spec_violations =
    List.length
      (List.filter (fun (_, (o : Trial.outcome)) -> o.spec_violation) runs)
  in
  {
    r_idx = case.idx;
    r_kind = case.ckind;
    r_chaos = case.chaos_seed <> None;
    r_error = error;
    r_spec_violations = spec_violations;
    r_stats = (snd hot).stats;
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
  stats : Cms.Stats.t;  (** the translator runs' counters, summed *)
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
      stats = Cms.Stats.create ();
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
    Cms.Stats.add ~into:t.stats r.r_stats;
    match on_case with Some f -> f r | None -> ()
  done;
  t

let pp_totals ppf (t : totals) =
  let s = t.stats in
  Fmt.pf ppf
    "storm: %d cases, %d passed, %d failed, %d speculation violations@.\
     injected: %d frames, %d irq raises, %d dma bursts (%d fired in the \
     translator runs)@.\
     translator runs: nic-rx=%d ring-full-drops=%d irq-delivered=%d \
     irq-rollbacks=%d"
    t.cases t.passed t.failed t.spec_violations t.frames_injected
    t.irqs_injected t.dmas_injected s.Cms.Stats.journal_events
    s.Cms.Stats.nic_rx_frames s.Cms.Stats.nic_rx_dropped
    s.Cms.Stats.irq_delivered s.Cms.Stats.irq_rollbacks
