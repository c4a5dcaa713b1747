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

    Correctness claims checked, the rules on the whole set first:

    - No configuration crashes: any [Crash] is a divergence.
    - Hitting the instruction limit in every configuration is a
      {!Hang} (a generator bug, counted but not bit-compared — states
      at an arbitrary cut-off differ legitimately).

    Then each pair through {!Cms_persist.Trial.verdict}, which also
    requires the same stop, speculation flag and diagnostic count (the
    interpreter never translates, so B, C and D must report no
    verifier diagnostic):

    - B, C and D each share A's *architectural* state
      ([Trial.Arch]): GPRs, EIP, the architectural EFLAGS, a digest of
      physical memory, MMIO/port access counts, UART output and the
      frame-buffer checksum.  The stack pages are zeroed before
      digesting: interrupt delivery boundaries legitimately differ
      between interpreter and translator (§3.3 — the translator only
      stops at consistent exits), leaving different dead bytes below
      ESP.  CMS-internal event counters (SMC, protection faults) are
      excluded too — the interpreter never protects pages, so those
      ladders only run under B/C/D.  D's reasons start with [aot], so
      the campaign's forensics bundle its image.
    - B and C share the *strict* digest as well ([Trial.Strict]): full
      stats (host-cache counters normalized), molecule count, retired
      count, SMC/protection/DMA-SMC events and the whole VLIW perf
      record — fast paths must be observationally invisible.

    Every run goes through {!Cms_persist.Trial}: one execution path,
    stable digests (no [Marshal]), and the engine's own check that no
    rollback leaves speculative state visible.  The module also hosts
    the fuzzer side of record-replay: {!record} runs a case while
    journaling every nondeterministic input (guest events verbatim;
    chaos injections as opportunity indices), and
    {!Trial.check_replay} replays the journal with no RNG at all and
    requires the two runs to be bit-identical. *)

module Journal = Cms_persist.Journal
module Trial = Cms_persist.Trial

type rendered = {
  listing : X86.Asm.listing;
  entry : int;
  events : Journal.guest_event list;
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

(* Interrupt delivery boundaries differ legitimately between
   configurations, leaving different dead bytes below ESP: mask the
   stack pages out of every memory digest. *)
let stack_mask = [ (Gen.stack_lo, Gen.stack_top) ]

(** The case as a {!Trial.subject}: a fresh machine with the program
    loaded and booted. *)
let subject (r : rendered) : Trial.subject =
  {
    Trial.boot =
      (fun ~cfg ~on_diag ->
        let c = Cms.create ~on_diag ~cfg ~ram_size () in
        Cms.load c r.listing;
        Cms.boot c ~entry:r.entry;
        c);
    mask = stack_mask;
    max_insns = r.max_insns;
  }

let cfg_nofast = { Cms.Config.default with Cms.Config.host_fast_paths = false }

(* The case's ahead-of-time image, built from a pristine machine and
   round-tripped through the stable codec (the persistence path is
   under test, not just the translations). *)
let aot_image (r : rendered) =
  Cms_analysis.Aotgen.warm_image (subject r) ~cfg:Cms.Config.default
    ~label:"fuzz case" ~entry:r.entry

(** The serialized AOT image for a case, for forensics bundles; [None]
    when the build itself crashes (which the oracle reports its own
    way). *)
let aot_image_bytes (r : rendered) =
  match aot_image r with
  | img -> Some (Cms_persist.Aot.to_string img)
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception _ -> None

(* One configuration of [r], its guest events wired (and the chaos
   schedule, when given); booted from [aot] when given (oracle D). *)
let run_config ?chaos ?aot cfg (r : rendered) : Trial.outcome =
  let setup c =
    ignore (Journal.install_guest c r.events : Journal.injector);
    match chaos with Some ch -> Cms_robust.Chaos.install ch c | None -> ()
  in
  match aot with
  | None -> fst (Trial.execute (subject r) ~cfg ~setup)
  | Some img ->
      let _, o, _ = Trial.execute_aot (subject r) ~cfg ~setup img in
      o

(* ------------------------------------------------------------------ *)
(* Verdict                                                             *)
(* ------------------------------------------------------------------ *)

type verdict =
  | Pass
  | Hang  (** instruction limit reached in every configuration *)
  | Divergence of string

let crashed (o : Trial.outcome) =
  match o.stop with Trial.Crash _ -> true | Trial.Halted | Trial.Limit -> false

(* The clean four-oracle differential (no injection).  The hang and
   crash rules judge the set of runs; every pair is judged by
   {!Trial.verdict}.  Oracle D's reasons start with "aot": the campaign
   bundles the AOT image for exactly those. *)
let check_clean (r : rendered) : verdict =
  let a = run_config Cms.interp_only_cfg r in
  let b = run_config Cms.Config.default r in
  let c = run_config cfg_nofast r in
  match run_config ~aot:(aot_image r) Cms.Config.default r with
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception e ->
      (* the build/serialize/install harness itself must never throw —
         a per-region failure demotes, a stale image raises only when
         memory actually changed, and neither can happen here *)
      Divergence ("aot harness crash: " ^ Printexc.to_string e)
  | d -> (
      if List.exists crashed [ a; b; c; d ] then
        Divergence
          (Fmt.str "crash (interp=%s translator=%s nofast=%s aot=%s)"
             (Trial.stop_name a.stop) (Trial.stop_name b.stop)
             (Trial.stop_name c.stop) (Trial.stop_name d.stop))
      else if
        List.for_all (fun o -> o.Trial.stop = Trial.Limit) [ a; b; c; d ]
      then Hang
      else
        let judge (what, share, want, got) =
          match Trial.verdict ~what share (Trial.Outcome want) got with
          | Ok () -> None
          | Error e -> Some e
        in
        match
          List.find_map judge
            [
              ("interpreter vs translator", Trial.Arch, a, b);
              ("interpreter vs fast-paths-off", Trial.Arch, a, c);
              ("aot: interpreter vs aot-warm", Trial.Arch, a, d);
              ("fast paths on vs off", Trial.Strict, b, c);
            ]
        with
        | None -> Pass
        | Some e -> Divergence e)

(* The chaos run's configuration and injector, derived from the seed.
   The split order is load-bearing: it fixes the byte-for-byte RNG
   streams, so a seed names one exact adversity schedule. *)
let chaos_cfg_of_seed seed =
  let rng = Srng.create seed in
  let cfg =
    Cms_robust.Chaos.scramble_cfg (Srng.split rng) Cms.Config.default
  in
  let ch = Cms_robust.Chaos.create (Srng.split rng) in
  (cfg, ch)

(* The chaos differential: clean interpreter vs the translator under a
   seeded injection schedule and scrambled capacities.  The strict
   digest is meaningless here (injection perturbs every counter), but
   the *architectural* state must still match bit-for-bit — the paper's
   recovery thesis under host-side attack. *)
let check_chaos (r : rendered) ~seed : verdict =
  let a = run_config Cms.interp_only_cfg r in
  let cfg, ch = chaos_cfg_of_seed seed in
  let b = run_config ~chaos:ch cfg r in
  if crashed a || crashed b then
    Divergence
      (Fmt.str "crash under chaos (interp=%s chaos=%s)"
         (Trial.stop_name a.stop) (Trial.stop_name b.stop))
  else if a.stop = Trial.Limit && b.stop = Trial.Limit then Hang
  else
    match
      Trial.verdict ~what:"interpreter vs chaos translator" Trial.Arch
        (Trial.Outcome a) b
    with
    | Ok () -> Pass
    | Error e -> Divergence e

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

(** Record [r]'s translator configuration (chaos-scrambled, with the
    chaos schedule's injections journaled, when the case carries a
    chaos seed); see {!Trial.record}. *)
let record ?checkpoint_every ?label (r : rendered) : Trial.recording =
  let cfg, schedule =
    match r.chaos with
    | None -> (Cms.Config.default, None)
    | Some seed ->
        let cfg, ch = chaos_cfg_of_seed seed in
        (cfg, Some (Cms_robust.Chaos.schedule ch))
  in
  Trial.record (subject r) ~cfg ~guest:r.events ?schedule ?checkpoint_every
    ?label ()
