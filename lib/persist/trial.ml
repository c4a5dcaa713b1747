(** One differential trial: the harness every differential run shares.

    The fuzz oracles, the storm gauntlet and the fleet's solo mirror
    all do the same thing: build one machine, wire its event sources,
    run it to a classified stop, digest it; record a run's
    nondeterministic inputs into a {!Journal}, replay the journal, and
    require the two runs to agree.  This module is that harness, once.

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

(** Run one configuration: boot, [setup] (which wires the event
    sources), run to the budget, classify the stop and digest.  Returns
    the machine too, for capture and self-validation.  Anything but
    resource exhaustion escaping the run is a [Crash]: "zero unhandled
    exceptions" is part of every harness's contract. *)
let execute (s : subject) ~cfg ~setup : outcome * Cms.t =
  let ndiags = ref 0 in
  let on_diag d = if not (Cms.Diag.is_advisory d) then incr ndiags in
  let c = s.boot ~cfg ~on_diag in
  setup c;
  let spec = ref false in
  let stop =
    match Cms.run ~max_insns:s.max_insns c with
    | Cms.Engine.Halted -> Halted
    | Cms.Engine.Insn_limit -> Limit
    | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
    | exception Cms.Engine.Speculation_visible ->
        spec := true;
        Crash "speculative state visible after rollback"
    | exception Cms.Cpu.Panic msg -> Crash msg
    | exception e -> Crash (Printexc.to_string e)
  in
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

(* ------------------------------------------------------------------ *)
(* Record / replay                                                     *)
(* ------------------------------------------------------------------ *)

type recording = {
  journal : Journal.t;
  outcome : outcome;
  final_image : string option;
      (** final-state snapshot (when the run ended at a consistent
          boundary — a [Crash] can leave the machine mid-molecule) *)
  checkpoint : string option;  (** last periodic checkpoint image *)
}

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
        Journal.label;
        cfg;
        guest;
        host = List.rev !host;
        arch_hex = Some (Digests.arch_hex outcome.arch);
        strict_hex = Some (Digests.strict_hex outcome.strict);
      };
    outcome;
    final_image =
      (if Snapshot.consistent c then Some (Snapshot.capture ~label c)
       else None);
    checkpoint = Option.bind !ckpt Snapshot.latest_image;
  }

(** Re-run a journal deterministically: guest events through the same
    gated installer, host events by opportunity-counter matching.  No
    RNG runs; the journal alone drives every injection. *)
let replay (s : subject) (j : Journal.t) : outcome =
  let setup c =
    ignore (Journal.install_guest c j.Journal.guest : Journal.injector);
    if j.Journal.host <> [] then Journal.install_host c j.Journal.host
  in
  fst (execute s ~cfg:j.Journal.cfg ~setup)

(** The record/replay differential: serialize and re-parse the
    recorded journal (the on-disk codec is in the loop), replay it, and
    require the recorded outcome bit for bit — stop, architectural
    digest, strict digest, speculation flag and diagnostic count.  The
    error names the first field that moved. *)
let check_replay (s : subject) (r : recording) : (unit, string) result =
  let o = r.outcome in
  let rep = replay s (Journal.roundtrip r.journal) in
  if o.stop <> rep.stop then
    Error
      (Fmt.str "record/replay stop mismatch (%s vs %s)" (stop_name o.stop)
         (stop_name rep.stop))
  else if o.arch <> rep.arch then
    Error ("record/replay arch: " ^ Digests.arch_diff o.arch rep.arch)
  else if o.strict <> rep.strict then Error "record/replay strict digest"
  else if o.spec_violation <> rep.spec_violation then
    Error
      (Fmt.str "record/replay speculation violation (%b vs %b)"
         o.spec_violation rep.spec_violation)
  else if o.ndiags <> rep.ndiags then
    Error
      (Fmt.str "record/replay diagnostics (%d vs %d)" o.ndiags rep.ndiags)
  else Ok ()
