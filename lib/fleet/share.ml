(** Engine-side wiring of the shared translation store.

    One {!attach} per machine installs both fleet hooks on the engine:

    - {!Cms.Engine.shared_source} — consulted at the translate
      instant, after the tcache's translation groups missed.  The
      store key is derived from the canonical compile inputs computed
      *right there* (entry, current source bytes, adaptive policy),
      and a hit is only returned after
      {!Cms_persist.Tstore.revalidate} — the walk an AOT install runs
      too — accepts the blob and its policy and region equal these
      inputs.  Any defect poisons the key fleet-wide (exactly once)
      and falls back to the private translator.
    - {!Cms.Engine.on_fresh_translation} — the publish seam.  Every
      freshly minted translation has already passed the verifier
      inside {!Cms.Codegen.compile_presnapped}, so its serialized form
      enters the store as is; trust is re-established on the consumer
      side, at every hit.

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
          | None ->
              stats.Cms.Stats.store_misses <-
                stats.Cms.Stats.store_misses + 1;
              None
          | Some e -> (
              match
                let ok =
                  Tstore.revalidate ?on_diag ~cfg ~entry
                    ~live:(fun _ -> bytes_) e
                in
                (* a hit must be exactly the translation this machine
                   would have compiled *)
                if not (Cms.Policy.equal ok.Tstore.tran.Tstore.policy policy)
                then Tstore.untrusted "entry %#x: policy drift" entry;
                if not (Cms.Region.equal ok.Tstore.region region) then
                  Tstore.untrusted "entry %#x: region shape drift" entry;
                ok.Tstore.compiled
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
          let key, blob =
            Tstore.encode ~entry ~region ~policy ~bytes:bytes_ ~compiled
          in
          if Tstore.publish store ~key ~blob then
            stats.Cms.Stats.store_published <-
              stats.Cms.Stats.store_published + 1);
  sh
