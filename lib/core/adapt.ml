(** Per-entry adaptive translation policies.

    Records the conservatism accumulated for each translation entry
    point.  Upgrades go through {!Policy.merge}, so policies only ever
    become more conservative — the paper's defence against bouncing
    between incomparable translations (§3.2).  An entry present in the
    table is "hot": it was invalidated for adaptation and should be
    retranslated on next dispatch without climbing the interpreter
    threshold again.

    This module also owns the *demotion ladder*: per-entry budgets that
    escalate a misbehaving entry full-opt → hard-conservative →
    interpreter-only quarantine.  Quarantine is terminal (monotone, like
    every upgrade), which is what turns the paper's "interpreter as
    safety net" into a forward-progress guarantee — an entry whose
    translations fault on every execution climbs the ladder in a bounded
    number of rollbacks and then runs interpretively forever.

    The table is bounded ({!Config.adapt_capacity}): at capacity the
    coldest entry is evicted, preferring non-quarantined victims so the
    forward-progress state survives pressure. *)

type entry = {
  mutable pol : Policy.t;
  mutable touch : int;  (** clock stamp of the last access (for eviction) *)
  mutable escalations : int;  (** ladder rungs climbed (spec-fault storms) *)
  mutable failures : int;  (** contained translator/verifier failures *)
}

(** What a ladder step did to the entry. *)
type verdict = Demoted | Quarantined

type t = {
  tbl : (int, entry) Hashtbl.t;
  cfg : Config.t;
  mutable clock : int;
  mutable quarantined_live : int;
      (** quarantined entries currently in the table; keeps the
          per-dispatch {!quarantined} check off the hashing path while
          nothing is quarantined (the overwhelmingly common case) *)
  mutable evictions : int;
}

let create cfg =
  { tbl = Hashtbl.create 64; cfg; clock = 0; quarantined_live = 0;
    evictions = 0 }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* Evict the coldest entry to make room, preferring non-quarantined
   victims: evicting a quarantine would let an always-faulting entry
   re-climb the ladder from scratch. *)
let evict_one t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        let better =
          match acc with
          | None -> true
          | Some (_, best) ->
              let bq = best.pol.Policy.interp_only
              and eq = e.pol.Policy.interp_only in
              if bq <> eq then bq (* prefer a non-quarantined victim *)
              else e.touch < best.touch
        in
        if better then Some (key, e) else acc)
      t.tbl None
  in
  match victim with
  | None -> ()
  | Some (key, e) ->
      if e.pol.Policy.interp_only then
        t.quarantined_live <- t.quarantined_live - 1;
      Hashtbl.remove t.tbl key;
      t.evictions <- t.evictions + 1

let ensure t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      e.touch <- tick t;
      e
  | None ->
      if Hashtbl.length t.tbl >= t.cfg.Config.adapt_capacity then evict_one t;
      let e =
        { pol = Policy.default t.cfg; touch = tick t; escalations = 0;
          failures = 0 }
      in
      Hashtbl.add t.tbl key e;
      e

let get t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      e.touch <- tick t;
      e.pol
  | None -> Policy.default t.cfg

(** Is this entry marked for immediate retranslation?  (Checked once
    per dispatch; the length guard keeps the common nothing-is-hot
    case off the hashing path.)  Quarantined entries are never hot:
    they must not be fed back to the translator. *)
let hot t key =
  Hashtbl.length t.tbl > 0
  &&
  match Hashtbl.find_opt t.tbl key with
  | Some e -> not e.pol.Policy.interp_only
  | None -> false

(** Is this entry interpreter-only?  The dispatcher checks this before
    every profile bump / tcache probe; [quarantined_live] keeps the
    common case to one integer compare. *)
let quarantined t key =
  t.quarantined_live > 0
  &&
  match Hashtbl.find_opt t.tbl key with
  | Some e -> e.pol.Policy.interp_only
  | None -> false

let merge_into t e p =
  let was_q = e.pol.Policy.interp_only in
  e.pol <- Policy.merge e.pol p;
  if e.pol.Policy.interp_only && not was_q then begin
    t.quarantined_live <- t.quarantined_live + 1;
    true
  end
  else false

(** Merge [p] into the entry's policy (monotone). *)
let upgrade t key p = ignore (merge_into t (ensure t key) p)

let quarantine_policy t =
  { (Policy.default t.cfg) with Policy.interp_only = true }

(** Force an entry straight to interpreter-only (chaos / last-resort
    path).  Returns [true] if this call quarantined it. *)
let quarantine t key = merge_into t (ensure t key) (quarantine_policy t)

(** One rung of the demotion ladder, taken when a translation of this
    entry was scrapped for recurring speculation faults.  Escalation
    [demote_limit] merges the hard-conservative policy; escalation
    [quarantine_limit] merges interpreter-only.  The budgets are
    per-entry and never reset, so the ladder is climbed at most
    [quarantine_limit] times — the forward-progress bound. *)
let note_escalation t key =
  let e = ensure t key in
  e.escalations <- e.escalations + 1;
  if e.escalations >= t.cfg.Config.quarantine_limit then
    if merge_into t e (quarantine_policy t) then Some Quarantined else None
  else if e.escalations >= t.cfg.Config.demote_limit then begin
    let before = e.pol in
    ignore (merge_into t e (Policy.conservative t.cfg));
    if Policy.equal before e.pol then None else Some Demoted
  end
  else None

(** A translate/schedule/codegen attempt for this entry died (exception
    contained by the engine).  After [translate_fail_limit] failures the
    entry is quarantined: translation provably cannot succeed, stop
    paying for the attempts. *)
let note_translate_failure t key =
  let e = ensure t key in
  e.failures <- e.failures + 1;
  if e.failures >= t.cfg.Config.translate_fail_limit then
    if merge_into t e (quarantine_policy t) then Some Quarantined else None
  else None

(** Convenience upgrades. *)
let add_interp_insn t entry addr =
  upgrade t entry
    {
      (Policy.default t.cfg) with
      Policy.interp_insns = Policy.ISet.singleton addr;
    }

let add_stylized t entry addrs =
  upgrade t entry
    { (Policy.default t.cfg) with Policy.stylized_imms = addrs }

let set_no_reorder t entry =
  upgrade t entry { (Policy.default t.cfg) with Policy.no_reorder = true }

let set_self_check t entry =
  upgrade t entry { (Policy.default t.cfg) with Policy.self_check = true }

let set_self_reval t entry =
  upgrade t entry { (Policy.default t.cfg) with Policy.self_reval = true }

let cut_region t entry ~current =
  let target = max 4 (current / 2) in
  upgrade t entry { (Policy.default t.cfg) with Policy.max_insns = target }

let size t = Hashtbl.length t.tbl

(* ------------------------------------------------------------------ *)
(* Snapshot support                                                    *)
(* ------------------------------------------------------------------ *)

(** Enumerate the table in deterministic (entry-address) order. *)
let dump t =
  Hashtbl.fold
    (fun key e acc -> (key, e.pol, e.touch, e.escalations, e.failures) :: acc)
    t.tbl []
  |> List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> compare a b)

(** Rebuild the table from a {!dump}.  This is the soft state worth
    carrying across a restore: the demotion ladder's budgets and
    quarantines, so an always-faulting entry does not get to re-climb
    the ladder from scratch after a resume. *)
let restore t ~clock ~evictions entries =
  Hashtbl.reset t.tbl;
  t.quarantined_live <- 0;
  List.iter
    (fun (key, pol, touch, escalations, failures) ->
      if pol.Policy.interp_only then
        t.quarantined_live <- t.quarantined_live + 1;
      Hashtbl.replace t.tbl key { pol; touch; escalations; failures })
    entries;
  t.clock <- clock;
  t.evictions <- evictions
