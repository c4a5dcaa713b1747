(** Chaos mode: deterministic host-side fault injection.

    The guest can exercise the recovery machinery only from the inside
    (faults, SMC, interrupts); this layer attacks it from the *host*
    side, injecting the adversities a real Crusoe would meet as
    translator bugs, verifier rejections and cache pressure — all
    seeded from a {!Srng} stream, so a campaign replays bit-identically
    from its seed.

    Injected adversities:
    - translator/verifier death: {!Cms_persist.Journal.Injected} raised
      from inside the engine's containment boundary at a translation
      attempt;
    - spurious rollbacks: a native fault ({!Vliw.Nexn.Alias_violation}
      or {!Vliw.Nexn.Sbuf_overflow}) forced before a translation runs,
      and spoofed interrupt-pending signals that make a running
      translation roll back with nothing to deliver;
    - cache-pressure storms: surprise full tcache flushes and
      coldest-generation evictions at dispatch boundaries;
    - artificially tiny capacities via {!scramble_cfg}.

    This module is only the RNG {!schedule}: {!Cms_persist.Journal}
    owns the host events and the one wiring that applies them, the same
    one that replays a recorded journal.

    Every one of these must be architecturally invisible: the hardened
    engine absorbs them with containment, the demotion ladder and the
    forward-progress watchdog, and the run must end bit-identical to a
    clean interpreter run (the [chaos] oracle in [lib/fuzz] enforces
    exactly that for every fuzz case). *)

module Journal = Cms_persist.Journal

(** Injection rates.  The integer rates are per-mille probabilities
    drawn per opportunity. *)
type profile = {
  translate_die : int;  (** a translation attempt dies *)
  pre_fault : int;  (** a dispatch forces a native fault pre-execution *)
  alias_share : int;
      (** of injected pre-faults, percent that are alias-check false
          positives (the rest are store-buffer overflows) *)
  irq_spoof : int;  (** an in-translation poll reports a phantom IRQ *)
  flush_storm : int;  (** a dispatch boundary full-flushes the tcache *)
  evict_storm : int;  (** a boundary evicts the coldest generation *)
  unlink_storm : int;
      (** a boundary forcibly unlinks one chained exit (selected
          deterministically over {!Cms.Tcache.chained_exits}); the
          engine must re-chain through the normal patch path with no
          architectural effect *)
}

let default_profile =
  {
    translate_die = 30;
    pre_fault = 30;
    alias_share = 50;
    irq_spoof = 15;
    flush_storm = 3;
    evict_storm = 12;
    unlink_storm = 20;
  }

(** A profile that only starves capacities — no event injection; used
    to isolate graceful-degradation bugs from recovery bugs. *)
let pressure_only =
  {
    translate_die = 0;
    pre_fault = 0;
    alias_share = 0;
    irq_spoof = 0;
    flush_storm = 5;
    evict_storm = 40;
    unlink_storm = 0;
  }

type t = { rng : Srng.t; profile : profile }

let create ?(profile = default_profile) rng = { rng; profile }

(** Shrink the run's capacities so pressure paths fire constantly:
    tcache small enough that real workloads evict, policy table small
    enough that it churns, store buffer small enough that conservative
    translations still fit (the interpreter bypasses it, so this only
    starves translations).  Architecturally invisible by construction —
    capacities are host resources. *)
let scramble_cfg rng (cfg : Cms.Config.t) =
  let tcache_capacity = Srng.range rng 3 24 in
  let sbuf_capacity = Srng.range rng 8 24 in
  let adapt_capacity = Srng.range rng 4 64 in
  { cfg with Cms.Config.tcache_capacity; sbuf_capacity; adapt_capacity }

(** The RNG schedule.  Each opportunity draws, in this order, for the
    events it can fire — a boundary draws flush, evict, unlink and then
    the link selector [k] (unconditionally after an unlink hit, so the
    stream does not depend on tcache state); a pre-execution check
    draws the alias share only after a hit — and a zero rate draws
    nothing.  The order is load-bearing: it fixes which adversity a
    seed names. *)
let schedule t : Journal.schedule =
  let p = t.profile in
  let hit rate = rate > 0 && Srng.chance t.rng rate 1000 in
  fun opp nth ->
    match opp with
    | Journal.Boundary ->
        let flush =
          if hit p.flush_storm then [ Journal.Flush { nth } ] else []
        in
        let evict =
          if hit p.evict_storm then [ Journal.Evict { nth } ] else []
        in
        let unlink =
          if hit p.unlink_storm then
            [ Journal.Unlink { nth; k = Srng.range t.rng 0 65536 } ]
          else []
        in
        flush @ evict @ unlink
    | Journal.Translate ->
        if hit p.translate_die then [ Journal.Kill { nth } ] else []
    | Journal.Exec ->
        if hit p.pre_fault then
          let alias = Srng.chance t.rng p.alias_share 100 in
          [ Journal.Pre_fault { nth; alias } ]
        else []
    | Journal.Poll -> if hit p.irq_spoof then [ Journal.Spoof { nth } ] else []

(** Arm an engine with the RNG schedule (composing with any installed
    [on_boundary] hook, which runs first).  [record] sees every event
    that fires, with its opportunity index — a journal's host events;
    it draws nothing, so recorded and unrecorded runs are
    bit-identical. *)
let install ?record t (e : Cms.Engine.t) =
  Journal.install_schedule ?record e (schedule t)
