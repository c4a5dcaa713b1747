(** Multi-oracle differential executor.

    Each case runs under four configurations:

    - {b A} interpreter-only (reference semantics),
    - {b B} full translator with the static verifier armed,
    - {b C} translator with host fast paths (software TLB, decode
      cache, RAM fast path) disabled, verifier armed,
    - {b D} translator booted from an ahead-of-time translation image
      built for the case, round-tripped through the stable codec and
      installed copy-on-validate ({!Cms_persist.Aot}) — AOT-warm vs
      AOT-off must agree architecturally (strict digests legitimately
      differ: translation counts do).

    Correctness claims checked:

    - A, B and C agree on everything *architectural*: GPRs, EIP, the
      architectural EFLAGS, a digest of physical memory, MMIO/port
      access counts, UART output and the frame-buffer checksum.  The
      stack pages are zeroed before digesting: interrupt delivery
      boundaries legitimately differ between interpreter and translator
      (§3.3 — the translator only stops at consistent exits), leaving
      different dead bytes below ESP.  CMS-internal event counters
      (SMC, protection faults) are excluded too — the interpreter never
      protects pages, so those ladders only run under B/C.
    - B and C agree on the *strict* PR 2 digest as well: full stats
      (host-cache counters normalized), molecule count, retired count,
      SMC/protection/DMA-SMC events and the whole VLIW perf record —
      fast paths must be observationally invisible.
    - The translation verifier reports zero diagnostics in B and C.
    - All three stop the same way.  Hitting the instruction limit in
      every configuration is a {!Hang} (a generator bug, counted but
      not bit-compared — states at an arbitrary cut-off differ
      legitimately); hitting it in only some is a divergence.

    Digests come from {!Cms_persist.Digests} (stable byte format, no
    [Marshal]).  The module also hosts the fuzzer side of
    record-replay: {!record} runs a case while journaling every
    nondeterministic input (guest events verbatim; chaos injections via
    {!Cms_robust.Chaos.tap} as opportunity indices), {!replay} re-runs
    a journal with no RNG at all, and {!check_record_replay} asserts
    the two runs are bit-identical. *)

module Digests = Cms_persist.Digests
module Journal = Cms_persist.Journal
module Snapshot = Cms_persist.Snapshot

type rendered = {
  listing : X86.Asm.listing;
  entry : int;
  events : Inject.event list;
  max_insns : int;
  chaos : int option;
      (** chaos-mode seed: run the translator oracle under a seeded
          host-side injection schedule ({!Cms_robust.Chaos}) with
          scrambled capacities, and require architectural equality
          with the clean interpreter anyway *)
}

let default_max_insns = 200_000

let render ?(max_insns = default_max_insns) ?chaos (case : Gen.case) =
  {
    listing = Gen.assemble case.Gen.prog;
    entry = Gen.code_base;
    events = case.Gen.events;
    max_insns;
    chaos;
  }

(* 2 MiB backs exactly the identity-mapped window the generator uses;
   keeping RAM small keeps the per-run memory digests cheap. *)
let ram_size = 2 * 1024 * 1024

let cfg_interp =
  { Cms.Config.default with Cms.Config.translate_threshold = max_int }

let cfg_translate = Cms.Config.default

let cfg_nofast =
  { cfg_translate with Cms.Config.host_fast_paths = false }

(* ------------------------------------------------------------------ *)
(* Digests                                                             *)
(* ------------------------------------------------------------------ *)

(* Interrupt delivery boundaries differ legitimately between
   configurations, leaving different dead bytes below ESP: mask the
   stack pages out of every memory digest. *)
let stack_mask = [ (Gen.stack_lo, Gen.stack_top) ]

type arch = Digests.arch

let arch_digest (c : Cms.t) = Digests.arch ~mask:stack_mask c
let arch_diff = Digests.arch_diff

(* ------------------------------------------------------------------ *)
(* Running one configuration                                           *)
(* ------------------------------------------------------------------ *)

type stop_kind = Halted | Limit | Crash of string

type outcome = {
  stop : stop_kind;
  arch : arch;
  strict : Digest.t;
  ndiags : int;
      (** rejecting verifier diagnostics collected during the run;
          advisory rules (recoverable runtime events like
          [sbuf-overflow], which fire routinely under chaos-scrambled
          capacities) are excluded, matching the rejecting verifier's
          own contract *)
}

(* Run one configuration of [r] with [setup] wiring the event sources
   (recorded-journal replay installs different hooks than first-run
   injection); returns the outcome *and* the machine for capture. *)
let execute ~cfg ~setup (r : rendered) : outcome * Cms.t =
  let diags = ref [] in
  let c =
    Cms.create ~on_diag:(fun d -> diags := d :: !diags) ~cfg ~ram_size ()
  in
  Cms.load c r.listing;
  Cms.boot c ~entry:r.entry;
  (* standing invariant on every oracle run: after any rollback, no
     speculative state — shadow registers, gated stores, armed alias
     ranges — may be architecturally observable.  A violation escapes as
     an exception and lands in [Crash], i.e. a divergence. *)
  c.Cms.Engine.on_rollback <-
    Some
      (fun () ->
        if Cms.Engine.speculation_visible c then
          failwith "speculative state visible after rollback");
  setup c;
  let stop =
    match Cms.run ~max_insns:r.max_insns c with
    | Cms.Engine.Halted -> Halted
    | Cms.Engine.Insn_limit -> Limit
    | exception Cms.Cpu.Panic msg -> Crash msg
    | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
    | exception e ->
        (* "zero unhandled exceptions" is part of the chaos-mode
           contract: anything escaping the engine is a finding *)
        Crash (Printexc.to_string e)
  in
  let rejecting = List.filter (fun d -> not (Cms.Diag.is_advisory d)) !diags in
  ( {
      stop;
      arch = arch_digest c;
      strict = Digests.strict ~mask:stack_mask c;
      ndiags = List.length rejecting;
    },
    c )

let run_config ?chaos cfg (r : rendered) : outcome =
  let setup c =
    Inject.install c r.events;
    match chaos with Some ch -> Cms_robust.Chaos.install ch c | None -> ()
  in
  fst (execute ~cfg ~setup r)

(* ------------------------------------------------------------------ *)
(* AOT oracle                                                          *)
(* ------------------------------------------------------------------ *)

(* Build an ahead-of-time image from a pristine (booted, never run)
   machine for this case.  Deterministic: the same rendered case always
   yields byte-identical image contents. *)
let aot_image (r : rendered) =
  let c = Cms.create ~cfg:cfg_translate ~ram_size () in
  Cms.load c r.listing;
  Cms.boot c ~entry:r.entry;
  (Cms_analysis.Aotgen.build ~label:"fuzz case" c ~entry:r.entry)
    .Cms_analysis.Aotgen.image

(** The serialized AOT image for a case, for forensics bundles; [None]
    when the build itself crashes (which the oracle reports its own
    way). *)
let aot_image_bytes (r : rendered) =
  match aot_image r with
  | img -> Some (Cms_persist.Aot.to_string img)
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception _ -> None

(* Oracle D: build the image, round-trip it through the stable codec
   (the persistence path is under test, not just the translations),
   install it on a fresh machine and run the translator from the warm
   cache. *)
let run_config_aot (r : rendered) : outcome =
  let img =
    Cms_persist.Aot.of_string (Cms_persist.Aot.to_string (aot_image r))
  in
  let setup c =
    ignore (Cms_persist.Aot.install c img : Cms_persist.Aot.install_report);
    Inject.install c r.events
  in
  fst (execute ~cfg:cfg_translate ~setup r)

(* ------------------------------------------------------------------ *)
(* Verdict                                                             *)
(* ------------------------------------------------------------------ *)

type verdict =
  | Pass
  | Hang  (** instruction limit reached in every configuration *)
  | Divergence of string

let stop_name = function
  | Halted -> "halted"
  | Limit -> "insn-limit"
  | Crash m -> "crash:" ^ m

(* The clean four-oracle differential (no injection). *)
let check_clean (r : rendered) : verdict =
  let a = run_config cfg_interp r in
  let b = run_config cfg_translate r in
  let c = run_config cfg_nofast r in
  match run_config_aot r with
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception e ->
      (* the build/serialize/install harness itself must never throw —
         a per-region failure demotes, a stale image raises only when
         memory actually changed, and neither can happen here *)
      Divergence ("aot harness crash: " ^ Printexc.to_string e)
  | d ->
      let crash =
        List.exists (fun o -> match o.stop with Crash _ -> true | _ -> false)
      in
      if crash [ a; b; c; d ] then
        Divergence
          (Fmt.str "crash (interp=%s translator=%s nofast=%s aot=%s)"
             (stop_name a.stop) (stop_name b.stop) (stop_name c.stop)
             (stop_name d.stop))
      else if
        a.stop = Limit && b.stop = Limit && c.stop = Limit && d.stop = Limit
      then Hang
      else if a.stop <> b.stop || b.stop <> c.stop then
        Divergence
          (Fmt.str "stop mismatch (interp=%s translator=%s nofast=%s)"
             (stop_name a.stop) (stop_name b.stop) (stop_name c.stop))
      else if a.stop <> d.stop then
        Divergence
          (Fmt.str "aot stop mismatch (interp=%s aot=%s)" (stop_name a.stop)
             (stop_name d.stop))
      else if b.ndiags > 0 || c.ndiags > 0 then
        Divergence
          (Fmt.str "verifier diagnostics (translator=%d nofast=%d)" b.ndiags
             c.ndiags)
      else if d.ndiags > 0 then
        Divergence (Fmt.str "aot verifier diagnostics (%d)" d.ndiags)
      else if a.arch <> b.arch then
        Divergence ("interpreter vs translator: " ^ arch_diff a.arch b.arch)
      else if a.arch <> c.arch then
        Divergence ("interpreter vs fast-paths-off: " ^ arch_diff a.arch c.arch)
      else if a.arch <> d.arch then
        (* AOT-warm vs AOT-off: strict digests differ by design
           (translation counts do), the architectural state must not *)
        Divergence ("aot: interpreter vs aot-warm: " ^ arch_diff a.arch d.arch)
      else if b.strict <> c.strict then
        Divergence "strict digest: fast paths on vs off"
      else Pass

(* The chaos run's configuration and injector, derived from the seed.
   The split order is load-bearing: it fixes the byte-for-byte RNG
   streams, so a seed names one exact adversity schedule. *)
let chaos_cfg_of_seed seed =
  let rng = Srng.create seed in
  let cfg = Cms_robust.Chaos.scramble_cfg (Srng.split rng) cfg_translate in
  let ch = Cms_robust.Chaos.create (Srng.split rng) in
  (cfg, ch)

(* The chaos differential: clean interpreter vs the translator under a
   seeded injection schedule and scrambled capacities.  The strict
   digest is meaningless here (injection perturbs every counter), but
   the *architectural* state must still match bit-for-bit — the paper's
   recovery thesis under host-side attack. *)
let check_chaos (r : rendered) ~seed : verdict =
  let a = run_config cfg_interp r in
  let cfg, ch = chaos_cfg_of_seed seed in
  let b = run_config ~chaos:ch cfg r in
  let crashed o = match o.stop with Crash _ -> true | _ -> false in
  if crashed a || crashed b then
    Divergence
      (Fmt.str "crash under chaos (interp=%s chaos=%s)" (stop_name a.stop)
         (stop_name b.stop))
  else if a.stop = Limit && b.stop = Limit then Hang
  else if a.stop <> b.stop then
    Divergence
      (Fmt.str "stop mismatch under chaos (interp=%s chaos=%s)"
         (stop_name a.stop) (stop_name b.stop))
  else if b.ndiags > 0 then
    Divergence (Fmt.str "verifier diagnostics under chaos (%d)" b.ndiags)
  else if a.arch <> b.arch then
    Divergence ("interpreter vs chaos translator: " ^ arch_diff a.arch b.arch)
  else Pass

(** Run a rendered case through its oracle: the clean three-way
    differential, or the chaos differential when the case carries a
    chaos seed. *)
let check (r : rendered) : verdict =
  match r.chaos with
  | None -> check_clean r
  | Some seed -> check_chaos r ~seed

let diverges (r : rendered) =
  match check r with Divergence _ -> true | Pass | Hang -> false

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

(** Run [r]'s translator configuration (chaos-scrambled when the case
    carries a chaos seed) while recording every nondeterministic input.
    Guest events are journaled verbatim; chaos injections are observed
    through {!Cms_robust.Chaos.tap} and journaled as opportunity
    indices.  [checkpoint_every] arms periodic snapshotting so a later
    failure is resumable from mid-run. *)
let record ?checkpoint_every ?(label = "case") (r : rendered) : recording =
  let cfg, chaos =
    match r.chaos with
    | None -> (cfg_translate, None)
    | Some seed ->
        let cfg, ch = chaos_cfg_of_seed seed in
        (cfg, Some ch)
  in
  let host = ref [] in
  let tap =
    {
      Cms_robust.Chaos.tap_kill =
        (fun nth -> host := Journal.Kill { nth } :: !host);
      tap_fault =
        (fun nth alias -> host := Journal.Pre_fault { nth; alias } :: !host);
      tap_spoof = (fun nth -> host := Journal.Spoof { nth } :: !host);
      tap_flush = (fun nth -> host := Journal.Flush { nth } :: !host);
      tap_evict = (fun nth -> host := Journal.Evict { nth } :: !host);
      tap_unlink = (fun nth k -> host := Journal.Unlink { nth; k } :: !host);
    }
  in
  let ckpt = ref None in
  let setup c =
    let injector = Journal.install_guest c r.events in
    (match checkpoint_every with
    | Some every ->
        ckpt := Some (Snapshot.arm ~label ~injector c ~every)
    | None -> ());
    match chaos with
    | Some ch -> Cms_robust.Chaos.install ~tap ch c
    | None -> ()
  in
  let outcome, c = execute ~cfg ~setup r in
  let final_image =
    if Snapshot.consistent c then Some (Snapshot.capture ~label c) else None
  in
  let journal =
    {
      Journal.label;
      cfg;
      guest = r.events;
      host = List.rev !host;
      arch_hex = Some (Digests.arch_hex outcome.arch);
      strict_hex = Some (Digests.strict_hex outcome.strict);
    }
  in
  {
    journal;
    outcome;
    final_image;
    checkpoint = (match !ckpt with Some ck -> ck.Snapshot.image | None -> None);
  }

(** Re-run a journal deterministically: guest events through the same
    gated installer, host events by opportunity-counter matching.  No
    RNG runs; the journal alone drives every injection. *)
let replay (r : rendered) (j : Journal.t) : outcome =
  let setup c =
    ignore (Journal.install_guest c j.Journal.guest);
    if j.Journal.host <> [] then Journal.install_host c j.Journal.host
  in
  fst (execute ~cfg:j.Journal.cfg ~setup { r with chaos = None })

(** The record-replay differential: record [r], replay the journal, and
    require bit-identical outcomes (stop kind, architectural digest,
    strict digest, verifier diagnostics). *)
let check_record_replay (r : rendered) : verdict =
  let rec_ = record r in
  let rep = replay r rec_.journal in
  let o = rec_.outcome in
  if o.stop <> rep.stop then
    Divergence
      (Fmt.str "record/replay stop mismatch (%s vs %s)" (stop_name o.stop)
         (stop_name rep.stop))
  else if o.arch <> rep.arch then
    Divergence ("record/replay arch: " ^ arch_diff o.arch rep.arch)
  else if o.strict <> rep.strict then Divergence "record/replay strict digest"
  else if o.ndiags <> rep.ndiags then
    Divergence
      (Fmt.str "record/replay diagnostics (%d vs %d)" o.ndiags rep.ndiags)
  else Pass
