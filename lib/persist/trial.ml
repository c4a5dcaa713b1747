(** One differential trial: the harness every differential run shares.

    The fuzz oracles, the storm gauntlet, the fleet's solo mirror,
    [cmsrun]'s record/replay, AOT check and soak drill, and [bench]'s
    checks all do the same thing: build one machine, wire its event
    sources, run it to a classified stop, digest it; record a run's
    nondeterministic inputs into a {!Journal}, replay the journal,
    resume a run from its snapshots, and require two runs to agree.
    This module is that harness, once, and {!verdict} is the only
    comparison of two outcomes: what the runs must share (strict,
    architectural or clock-free state) is its one argument.  The
    callers keep only the rules that judge a set of runs, not a pair
    (the fuzz oracles' hang rule and "any crash is a divergence").

    The speculation probe is not wired here: the engine checks
    {!Cms.Engine.speculation_visible} after every rollback and raises
    {!Cms.Engine.Speculation_visible}, which {!execute} classifies. *)

(** What a caller runs: a machine builder, the byte ranges its memory
    digests leave out, and its instruction budget. *)
type subject = {
  boot : cfg:Cms.Config.t -> on_diag:(Cms.Diag.t -> unit) -> Cms.t;
      (** a fresh, loaded, booted machine, not yet run *)
  mask : (int * int) list;
      (** [lo, hi) ranges zeroed before every memory digest (dead stack
          bytes below ESP legitimately differ across configurations) *)
  max_insns : int;
}

(** A suite workload as a subject: the machine {!Workloads.Suite.prepare}
    builds, its own instruction budget, and [mask] (none by default). *)
let of_suite ?(mask = []) (w : Workloads.Suite.t) : subject =
  {
    boot = (fun ~cfg ~on_diag -> Workloads.Suite.prepare ~on_diag ~cfg w);
    mask;
    max_insns = w.Workloads.Suite.max_insns;
  }

type stop = Halted | Limit | Crash of string

let stop_name = function
  | Halted -> "halted"
  | Limit -> "insn-limit"
  | Crash m -> "crash:" ^ m

type outcome = {
  stop : stop;
  arch : Digests.arch;
  strict : Digest.t;
  spec_violation : bool;
      (** a rollback left speculative state architecturally visible *)
  ndiags : int;
      (** rejecting verifier diagnostics collected during the run;
          advisory rules (recoverable runtime events like
          [sbuf-overflow], which fire routinely under chaos-scrambled
          capacities) are excluded, matching the rejecting verifier's
          own contract *)
  stats : Cms.Stats.t;
}

(* Boot [s] under [cfg] counting rejecting diagnostics, [setup] it,
   and let [run] drive it to a stop.  [run] gets the counting [on_diag]
   and the machine's cell, which a resumed leg points at each machine
   it restores; the last machine is the one digested. *)
let drive (s : subject) ~cfg ~setup ~run : outcome * Cms.t =
  let ndiags = ref 0 in
  let on_diag d = if not (Cms.Diag.is_advisory d) then incr ndiags in
  let c = s.boot ~cfg ~on_diag in
  setup c;
  let cell = ref c in
  let spec = ref false in
  let stop =
    match run ~on_diag cell with
    | Cms.Engine.Halted -> Halted
    | Cms.Engine.Insn_limit -> Limit
    | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
    | exception Cms.Engine.Speculation_visible ->
        spec := true;
        Crash "speculative state visible after rollback"
    | exception Cms.Cpu.Panic msg -> Crash msg
    | exception e -> Crash (Printexc.to_string e)
  in
  let c = !cell in
  let arch = Digests.arch ~mask:s.mask c in
  ( {
      stop;
      arch;
      strict = Digests.strict arch c;
      spec_violation = !spec;
      ndiags = !ndiags;
      stats = Cms.stats c;
    },
    c )

(** Run one configuration: boot, [setup] (which wires the event
    sources), run to the budget, classify the stop and digest.  Returns
    the machine too, for capture and self-validation.  Anything but
    resource exhaustion escaping the run is a [Crash]: "zero unhandled
    exceptions" is part of every harness's contract. *)
let execute (s : subject) ~cfg ~setup =
  drive s ~cfg ~setup ~run:(fun ~on_diag:_ c -> Cms.run ~max_insns:s.max_insns !c)

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let eax (a : Digests.arch) = List.nth a.Digests.gprs X86.Regs.eax

(** What a run is compared against: another run's outcome, or a journal
    read back from disk, which carries only its digests and stands for
    the clean outcome {!record_suite} requires. *)
type reference = Outcome of outcome | Journal of Journal.t

(** What two runs must share, beyond their stop, speculation flag and
    diagnostic count:

    - [Strict]: the strict digest — runs of one configuration
      (record/replay, host fast paths on and off);
    - [Arch]: the architectural digest — runs of different
      configurations;
    - [Clock_free]: the architectural state minus the memory digest and
      the MMIO/port counters — legs whose molecule clocks legitimately
      differ on a timer-driven workload (a resumed or AOT-warm run
      tiles the code differently, and the timer fires on molecules:
      jiffy counts, dead handler-frame bytes and device-poll counts
      move; GPRs, EIP, EFLAGS, UART output and the frame buffer must
      not). *)
type share = Strict | Arch | Clock_free

let clock_free (a : Digests.arch) =
  { a with Digests.mem = ""; mmio_reads = 0; mmio_writes = 0; port_ops = 0 }

(** The one outcome comparison: [got] against [want], field by field in
    the order stop, arch (clock-free at [Clock_free]), strict (at
    [Strict] only), speculation flag, diagnostic count.  The error,
    prefixed by [what], names the first field that moved.  A journal
    carries no clock-free digest, so it is compared at [Arch] or
    [Strict] only. *)
let verdict ~what share (want : reference) (got : outcome) :
    (unit, string) result =
  let fail fmt = Fmt.kstr (fun m -> Error (what ^ " " ^ m)) fmt in
  let stop, spec, ndiags =
    match want with
    | Outcome o -> (o.stop, o.spec_violation, o.ndiags)
    | Journal _ -> (Halted, false, 0)
  in
  let project = if share = Clock_free then clock_free else Fun.id in
  let arch_now = Digests.arch_hex got.arch in
  let strict_now = Digests.strict_hex got.strict in
  let digests =
    match want with
    | Journal _ when share = Clock_free ->
        invalid_arg "Trial.verdict: a journal has no clock-free digest"
    | Outcome o when project o.arch <> project got.arch ->
        fail "arch: %s" (Digests.arch_diff (project o.arch) (project got.arch))
    | Outcome o when share = Strict && o.strict <> got.strict ->
        fail "strict digest"
    | Journal { Journal.arch_hex = Some h; _ } when h <> arch_now ->
        fail "arch_hex: recorded %s, replayed %s" h arch_now
    | Journal { Journal.strict_hex = Some h; _ }
      when share = Strict && h <> strict_now ->
        fail "strict_hex: recorded %s, replayed %s" h strict_now
    | Outcome _ | Journal _ -> Ok ()
  in
  match digests with
  | _ when stop <> got.stop ->
      fail "stop mismatch (%s vs %s)" (stop_name stop) (stop_name got.stop)
  | Error _ -> digests
  | Ok () when spec <> got.spec_violation ->
      fail "speculation violation (%b vs %b)" spec got.spec_violation
  | Ok () when ndiags <> got.ndiags ->
      fail "diagnostics (%d vs %d)" ndiags got.ndiags
  | Ok () -> Ok ()

(** What a suite workload's runs under one configuration share across
    translation tilings (an AOT-warm or a resumed leg against a cold
    uninterrupted one): clock-free state when it is timer-driven,
    the architectural digest otherwise. *)
let suite_share (w : Workloads.Suite.t) =
  if w.Workloads.Suite.uses_timer then Clock_free else Arch

(** {!Workloads.Suite.self_check} on an outcome: no crash (a
    speculation violation stops a run as one), halted with the expected
    EAX checksum, and no rejecting diagnostic. *)
let suite_check (w : Workloads.Suite.t) (o : outcome) : (unit, string) result =
  let name = w.Workloads.Suite.name in
  match o.stop with
  | Crash m -> Error (Fmt.str "workload %s crashed: %s" name m)
  | Halted | Limit -> (
      match
        Workloads.Suite.self_check w ~halted:(o.stop = Halted) ~eax:(eax o.arch)
      with
      | Ok () when o.ndiags > 0 ->
          Error (Fmt.str "workload %s: %d verifier diagnostics" name o.ndiags)
      | r -> r)

(* ------------------------------------------------------------------ *)
(* Record / replay                                                     *)
(* ------------------------------------------------------------------ *)

type recording = {
  journal : Journal.t;
  outcome : outcome;
  machine : Cms.t;  (** the recorded machine, after its run *)
  checkpoint : string option;  (** last periodic checkpoint image *)
}

(** The recorded machine's final snapshot, unless a [Crash] left it
    mid-molecule. *)
let final_image (r : recording) =
  if Snapshot.consistent r.machine then
    Some (Snapshot.capture ~label:r.journal.Journal.label r.machine)
  else None

(** Run [s] under [cfg] while recording every nondeterministic input:
    the [guest] events verbatim, and the host events [schedule] fires
    (through {!Journal.install_schedule}'s [~record] sink) as
    opportunity indices.  [checkpoint_every] arms periodic
    snapshotting so a later failure is resumable from mid-run. *)
let record (s : subject) ~cfg ~guest ?schedule ?checkpoint_every
    ?(label = "case") () : recording =
  let host = ref [] in
  let ckpt = ref None in
  let setup c =
    let injector = Journal.install_guest c guest in
    (match checkpoint_every with
    | Some every -> ckpt := Some (Snapshot.arm ~label ~injector c ~every)
    | None -> ());
    match schedule with
    | Some sch ->
        Journal.install_schedule ~record:(fun ev -> host := ev :: !host) c sch
    | None -> ()
  in
  let outcome, c = execute s ~cfg ~setup in
  {
    journal =
      {
        (Journal.unrecorded ~label ~cfg ~host:(List.rev !host) guest) with
        arch_hex = Some (Digests.arch_hex outcome.arch);
        strict_hex = Some (Digests.strict_hex outcome.strict);
      };
    outcome;
    machine = c;
    checkpoint = Option.bind !ckpt Snapshot.latest_image;
  }

(** Record suite workload [w]: a pure function of [cfg], so its journal
    carries no events, just [cfg] and the final digests.  A run that
    fails {!suite_check} is refused. *)
let record_suite ~cfg (w : Workloads.Suite.t) : (recording, string) result =
  let r =
    record (of_suite w) ~cfg ~guest:[] ~label:w.Workloads.Suite.name ()
  in
  Result.map (fun () -> r) (suite_check w r.outcome)

(** Re-run a journal deterministically: guest events through the same
    gated installer, host events by opportunity-counter matching.  No
    RNG runs; the journal alone drives every injection. *)
let replay (s : subject) (j : Journal.t) : outcome * Cms.t =
  let setup c =
    ignore (Journal.install_guest c j.Journal.guest : Journal.injector);
    if j.Journal.host <> [] then Journal.install_host c j.Journal.host
  in
  execute s ~cfg:j.Journal.cfg ~setup

(** The record/replay differential: serialize and re-parse the
    recorded journal (the on-disk codec is in the loop), replay it, and
    require the recorded outcome bit for bit. *)
let check_replay (s : subject) (r : recording) : (unit, string) result =
  verdict ~what:"record/replay" Strict (Outcome r.outcome)
    (fst (replay s (Journal.roundtrip r.journal)))

(** The same differential for a journal read back from disk; returns
    the replayed run too. *)
let check_journal (s : subject) (j : Journal.t) =
  let o, c = replay s j in
  ((o, c), verdict ~what:"record/replay" Strict (Journal j) o)

(* ------------------------------------------------------------------ *)
(* AOT warm vs cold                                                    *)
(* ------------------------------------------------------------------ *)

(** Run [s] booted from the AOT image [img], installed copy-on-validate
    before [setup] runs.  Raises {!Aot.Stale} on a mismatched image. *)
let execute_aot (s : subject) ~cfg ?(setup = ignore) (img : Aot.t) =
  let rep = ref None in
  let install c = rep := Some (Aot.install c img) in
  let o, c = execute s ~cfg ~setup:(fun c -> install c; setup c) in
  (Option.get !rep, o, c)

(** The AOT differential: run [w] cold under [cfg]; both runs must pass
    {!suite_check}, then share {!suite_share} state: AOT regions tile
    the code differently from a cold run's, and on a timer-driven
    workload interrupts land on consistent exits (§3.3), so only its
    clock-free state is comparable.  Returns the cold run too. *)
let check_aot (w : Workloads.Suite.t) ~cfg (warm : outcome) =
  let cold, c = execute (of_suite w) ~cfg ~setup:ignore in
  let result =
    match (suite_check w warm, suite_check w cold) with
    | Error e, _ -> Error ("aot-warm: " ^ e)
    | _, Error e -> Error ("cold: " ^ e)
    | Ok (), Ok () ->
        verdict ~what:"aot-warm vs cold" (suite_share w) (Outcome cold) warm
  in
  ((cold, c), result)

(* ------------------------------------------------------------------ *)
(* Kill and resume                                                     *)
(* ------------------------------------------------------------------ *)

(** Retired instructions between the soak drill's cuts: short enough
    that every workload of the suite is cut at least once. *)
let soak_every = 100_000

(** The kill-and-resume soak drill: run [w] under [cfg] uninterrupted,
    and again in segments of {!soak_every} retired instructions — at
    each cut capture a snapshot, drop the machine and {!Snapshot.resume}
    a fresh one from the image alone — and require the two legs to
    share {!suite_share} state (a resumed machine restarts with a cold
    translation cache, so its molecule clock differs).  The
    uninterrupted leg must pass {!suite_check}, and the cut leg must
    have resumed at least once: a drill that never cut compared two
    uninterrupted runs.  Any state a snapshot misses shows up as a
    divergence.  Returns the number of resumes (one per snapshot) and
    the image bytes written. *)
let soak (w : Workloads.Suite.t) ~cfg =
  let s = of_suite w in
  let whole, _ = execute s ~cfg ~setup:ignore in
  let resumes = ref 0 and bytes = ref 0 in
  (* [max_insns] bounds the retired clock, which a snapshot carries, so
     the segment targets are absolute across resumes *)
  let rec segments ~on_diag c target =
    let stop = Cms.run ~max_insns:(min target s.max_insns) !c in
    if Cms.retired !c >= s.max_insns || stop = Cms.Engine.Halted then stop
    else begin
      let image = Snapshot.capture ~label:"soak" !c in
      bytes := !bytes + String.length image;
      c := fst (Snapshot.resume ~on_diag image []);
      incr resumes;
      segments ~on_diag c (target + soak_every)
    end
  in
  let cut, _ =
    drive s ~cfg ~setup:ignore ~run:(fun ~on_diag c ->
        segments ~on_diag c soak_every)
  in
  let result =
    match suite_check w whole with
    | Error e -> Error ("uninterrupted: " ^ e)
    | Ok () when !resumes = 0 -> Error "never cut: the run ended in its first segment"
    | Ok () ->
        verdict ~what:"resumed vs uninterrupted" (suite_share w) (Outcome whole)
          cut
  in
  ((!resumes, !bytes), result)
