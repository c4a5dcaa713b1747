(** Chaos mode: deterministic host-side fault injection.

    The guest can exercise the recovery machinery only from the inside
    (faults, SMC, interrupts); this layer attacks it from the *host*
    side, injecting the adversities a real Crusoe would meet as
    translator bugs, verifier rejections and cache pressure — all
    seeded from a {!Srng} stream, so a campaign replays bit-identically
    from its seed.

    Injected adversities:
    - translator/verifier death: {!Injected} raised from inside the
      engine's containment boundary at a translation attempt;
    - spurious rollbacks: a native fault ({!Vliw.Nexn.Alias_violation}
      or {!Vliw.Nexn.Sbuf_overflow}) forced before a translation runs,
      and spoofed interrupt-pending signals that make a running
      translation roll back with nothing to deliver;
    - cache-pressure storms: surprise full tcache flushes and
      coldest-generation evictions at dispatch boundaries;
    - artificially tiny capacities via {!scramble_cfg}.

    Every one of these must be architecturally invisible: the hardened
    engine absorbs them with containment, the demotion ladder and the
    forward-progress watchdog, and the run must end bit-identical to a
    clean interpreter run (the [chaos] oracle in [lib/fuzz] enforces
    exactly that for every fuzz case). *)

(** The simulated translator/verifier death.  Raised only from
    [on_translate], i.e. inside the engine's containment boundary; if
    it ever escapes to a caller, containment is broken. *)
exception Injected of string

(** Injection rates.  The integer rates are per-mille probabilities
    drawn per opportunity. *)
type profile = {
  translate_die : int;  (** a translation attempt raises {!Injected} *)
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
  tiny_caches : bool;  (** scramble capacities with {!scramble_cfg} *)
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
    tiny_caches = true;
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
    tiny_caches = true;
  }

type t = {
  rng : Srng.t;
  profile : profile;
  (* what actually got injected (for campaign reporting and for tests
     asserting the schedule fired at all) *)
  mutable translator_kills : int;
  mutable injected_faults : int;
  mutable irq_spoofs : int;
  mutable flushes : int;
  mutable evicted : int;
  mutable unlinks : int;  (** chained exits actually cut by unlink storms *)
}

let create ?(profile = default_profile) rng =
  {
    rng;
    profile;
    translator_kills = 0;
    injected_faults = 0;
    irq_spoofs = 0;
    flushes = 0;
    evicted = 0;
    unlinks = 0;
  }

let injections t =
  t.translator_kills + t.injected_faults + t.irq_spoofs + t.flushes
  + t.evicted + t.unlinks

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

let hit t rate = rate > 0 && Srng.chance t.rng rate 1000

(** Observer for the injections that actually fire, keyed by
    *opportunity index* — the nth time the corresponding hook ran.  The
    opportunity streams are pure functions of the deterministic
    execution, so a recorded [(kind, nth)] list replayed by counter
    matching (no RNG) reproduces the identical injection schedule: this
    is what {!Cms_persist.Journal} records for record-replay. *)
type tap = {
  tap_kill : int -> unit;  (** nth [on_translate] opportunity *)
  tap_fault : int -> bool -> unit;
      (** nth [pre_exec] opportunity; [true] = alias fault, [false] =
          store-buffer overflow *)
  tap_spoof : int -> unit;  (** nth [irq_spoof] poll *)
  tap_flush : int -> unit;  (** nth dispatch boundary *)
  tap_evict : int -> unit;  (** nth dispatch boundary *)
  tap_unlink : int -> int -> unit;
      (** nth dispatch boundary, with the link selector [k] (the RNG
          draw); recorded even when no link existed to cut — replaying
          the attempt is then also a no-op *)
}

(** Arm an engine.  Composes with any already-installed
    [on_boundary] hook (the fuzzer's event injector), running the
    previous hook first.  [tap] observes realized injections with their
    opportunity indices (for the record-replay journal); counting the
    opportunities draws nothing from the RNG, so armed-with-tap and
    armed-without-tap runs are bit-identical. *)
let install ?tap t (e : Cms.Engine.t) =
  let n_boundary = ref 0 in
  let n_translate = ref 0 in
  let n_exec = ref 0 in
  let n_spoof = ref 0 in
  let prev = e.Cms.Engine.on_boundary in
  e.Cms.Engine.on_boundary <-
    Some
      (fun retired ->
        (match prev with Some f -> f retired | None -> ());
        let n = !n_boundary in
        incr n_boundary;
        if hit t t.profile.flush_storm then begin
          t.flushes <- t.flushes + 1;
          (match tap with Some tp -> tp.tap_flush n | None -> ());
          Cms.Tcache.flush e.Cms.Engine.tcache
        end;
        if hit t t.profile.evict_storm then begin
          (match tap with Some tp -> tp.tap_evict n | None -> ());
          t.evicted <-
            t.evicted + Cms.Tcache.evict_coldest e.Cms.Engine.tcache
        end;
        if hit t t.profile.unlink_storm then begin
          (* the selector draws unconditionally so the RNG stream does
             not depend on tcache state *)
          let k = Srng.range t.rng 0 65536 in
          (match tap with Some tp -> tp.tap_unlink n k | None -> ());
          if Cms.Tcache.unlink_nth e.Cms.Engine.tcache ~k then
            t.unlinks <- t.unlinks + 1
        end);
  e.Cms.Engine.chaos <-
    Some
      {
        Cms.Engine.on_translate =
          (fun entry ->
            let n = !n_translate in
            incr n_translate;
            if hit t t.profile.translate_die then begin
              t.translator_kills <- t.translator_kills + 1;
              (match tap with Some tp -> tp.tap_kill n | None -> ());
              raise (Injected (Fmt.str "translator death at %#x" entry))
            end);
        pre_exec =
          (fun _tr ->
            let n = !n_exec in
            incr n_exec;
            if hit t t.profile.pre_fault then begin
              t.injected_faults <- t.injected_faults + 1;
              let alias = Srng.chance t.rng t.profile.alias_share 100 in
              (match tap with Some tp -> tp.tap_fault n alias | None -> ());
              Some
                (if alias then Vliw.Nexn.Alias_violation 0
                 else Vliw.Nexn.Sbuf_overflow)
            end
            else None);
        irq_spoof =
          (fun () ->
            let n = !n_spoof in
            incr n_spoof;
            if hit t t.profile.irq_spoof then begin
              t.irq_spoofs <- t.irq_spoofs + 1;
              (match tap with Some tp -> tp.tap_spoof n | None -> ());
              true
            end
            else false);
      }

let pp fmt t =
  Fmt.pf fmt
    "chaos[kills=%d faults=%d spoofs=%d flushes=%d evicted=%d unlinks=%d]"
    t.translator_kills t.injected_faults t.irq_spoofs t.flushes t.evicted
    t.unlinks
