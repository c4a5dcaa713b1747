(** Engine-side wiring of the shared translation store.

    One {!attach} per machine installs both fleet hooks on the engine:

    - {!Cms.Engine.shared_source} — consulted at the translate
      instant, after the tcache's translation groups missed.  The
      store key is derived from the canonical compile inputs computed
      *right there* (entry, current source bytes, adaptive policy),
      and a hit is only returned after
      {!Cms_persist.Tstore.decode_validated} fully revalidates the
      blob.  Any defect poisons the key fleet-wide (exactly once) and
      falls back to the private translator.
    - {!Cms.Engine.on_fresh_translation} — the publish seam.  Every
      freshly minted translation goes through the translator's
      acceptance check ({!Cms.Codegen.check_code}) *again* on the
      publisher side before its serialized form enters the store.

    A machine that has rejected [max_rejects] entries in total stops
    trusting the store altogether ({!t.detached}) and keeps serving
    from its private translator — graceful degradation, never an
    error. *)

module Tstore = Cms_persist.Tstore

type t = {
  store : Tstore.t;
  max_rejects : int;
      (** cumulative reject budget before the machine detaches: good
          hits in between do not reset the count *)
  mutable rejects : int;
  mutable detached : bool;
}

let attach ?(max_rejects = 8) (c : Cms.t) (store : Tstore.t) : t =
  let cfg = c.Cms.Engine.cfg and on_diag = c.Cms.Engine.on_diag in
  let stats = Cms.stats c in
  let sh = { store; max_rejects; rejects = 0; detached = false } in
  c.Cms.Engine.shared_source <-
    Some
      (fun ~entry ~region ~policy ~bytes_ ->
        if sh.detached then None
        else
          let k = Tstore.key ~entry ~bytes:bytes_ ~policy in
          match Tstore.lookup store k with
          | Tstore.Miss ->
              stats.Cms.Stats.store_misses <-
                stats.Cms.Stats.store_misses + 1;
              None
          | Tstore.Poisoned ->
              (* quarantined fleet-wide by some machine's earlier
                 rejection: fall back to the private translator without
                 paying for revalidation *)
              stats.Cms.Stats.store_misses <-
                stats.Cms.Stats.store_misses + 1;
              None
          | Tstore.Hit e -> (
              match
                Tstore.decode_validated ?on_diag ~cfg ~entry ~region ~policy
                  ~bytes:bytes_ e
              with
              | compiled -> Some compiled
              | exception Tstore.Untrusted reason ->
                  stats.Cms.Stats.store_rejects <-
                    stats.Cms.Stats.store_rejects + 1;
                  if Tstore.poison store ~key:k ~reason then
                    stats.Cms.Stats.store_quarantines <-
                      stats.Cms.Stats.store_quarantines + 1;
                  sh.rejects <- sh.rejects + 1;
                  if sh.rejects >= sh.max_rejects then sh.detached <- true;
                  None));
  c.Cms.Engine.on_fresh_translation <-
    Some
      (fun ~entry ~region ~policy ~bytes_ ~compiled ->
        if (not sh.detached) && Cms.Region.instruction_count region > 0 then
          match
            Cms.Codegen.check_code ~cfg ~entry
              ~ninsns:(Cms.Region.instruction_count region)
              compiled.Cms.Codegen.code
          with
          | exception Cms.Codegen.Verify_failed _ -> Tstore.note_refused store
          | () ->
              let key, blob =
                Tstore.encode ~entry ~region ~policy ~bytes:bytes_ ~compiled
              in
              if Tstore.publish store ~key ~blob then
                stats.Cms.Stats.store_published <-
                  stats.Cms.Stats.store_published + 1);
  sh

(** Remove both hooks (the machine keeps its installed translations). *)
let detach (c : Cms.t) =
  c.Cms.Engine.shared_source <- None;
  c.Cms.Engine.on_fresh_translation <- None
