(** Self-modifying-code machinery (paper §3.6).

    Owns the authoritative per-page chunk masks and the protection
    ladder:

    page protection → fine-grain protection → self-revalidating
    translations (data writes only) → self-checking translations /
    stylized-SMC immediate reload / translation groups (code really
    changes).

    Installed as the {!Machine.Mem} SMC handler, so it runs for every
    ordered write that hits protection — from the interpreter directly,
    and for translated stores after rollback when the recovery
    interpreter replays the faulting region. *)

module ISet = Policy.ISet

type t = {
  cfg : Config.t;
  mem : Machine.Mem.t;
  tcache : Tcache.t;
  adapt : Adapt.t;
  stats : Stats.t;
  false_faults : (int, int ref) Hashtbl.t;
      (** per-page count of protection faults with no code overlap *)
  disarms : (int, int ref) Hashtbl.t;
      (** per-page count of self-reval disarm events; ping-ponging
          means the writer itself lives on the page -> self-check *)
  invalidation_counts : (int, int ref) Hashtbl.t;
      (** per-entry count of genuine SMC invalidations *)
}

let create ~cfg ~mem ~tcache ~adapt ~stats =
  {
    cfg;
    mem;
    tcache;
    adapt;
    stats;
    false_faults = Hashtbl.create 32;
    disarms = Hashtbl.create 32;
    invalidation_counts = Hashtbl.create 32;
  }

(* ------------------------------------------------------------------ *)
(* Mask bookkeeping                                                    *)
(* ------------------------------------------------------------------ *)

(* Authoritative chunk mask for a page: chunks covered by any valid
   translation's source bytes.  Self-checking translations are excluded:
   they verify their own source bytes at entry instead of relying on
   protection (§3.6.3: "leave the memory page unprotected"). *)
let page_mask t ~ppn =
  let lo_page = ppn lsl Machine.Mmu.page_shift in
  let hi_page = lo_page + Machine.Mmu.page_size in
  List.fold_left
    (fun acc (tr : Tcache.trans) ->
      if tr.Tcache.unprotected then acc
      else
      List.fold_left
        (fun acc (lo, hi) ->
          let lo = max lo lo_page and hi = min hi hi_page in
          if lo < hi then
            Int64.logor acc
              (Machine.Finegrain.mask_of_range ~paddr:lo ~len:(hi - lo))
          else acc)
        acc tr.Tcache.region.Region.src_ranges)
    0L (Tcache.on_page t.tcache ~ppn)

(* Re-derive a page's protection state after translations changed. *)
let refresh_page t ~ppn =
  let mask = page_mask t ~ppn in
  if mask = 0L then Machine.Mem.unprotect_page t.mem ~ppn
  else begin
    Machine.Mem.protect_page t.mem ~ppn;
    if Machine.Mem.in_fg_mode t.mem ~ppn then begin
      Machine.Finegrain.invalidate t.mem.Machine.Mem.fg ~ppn;
      Machine.Finegrain.install t.mem.Machine.Mem.fg ~ppn ~mask
    end
  end

(** Protect the pages of a (newly inserted or reactivated) translation.
    Self-checking translations stay unprotected: the embedded check is
    their consistency mechanism. *)
let register t (tr : Tcache.trans) =
  if not tr.Tcache.unprotected then
    List.iter
      (fun ppn ->
        Machine.Mem.protect_page t.mem ~ppn;
        if Machine.Mem.in_fg_mode t.mem ~ppn then refresh_page t ~ppn)
      (Tcache.pages_of tr)

(* [cause] labels the chained-exit unlink accounting and decides the
   translation's fate.  Everything in this module invalidates because
   of SMC, DMA or a failed self-check, so that is the default, and such
   a translation parks in its entry's group: the code may flip back.
   The engine's demotion-ladder callers pass [Udemote], which drops the
   translation, since the entry's policy has moved past it for good.
   A group holds only members of the entry's current policy (read with
   {!Adapt.peek}, which leaves the LRU clock alone): policies only
   ratchet, so a translation whose entry an escalation below upgraded
   just before invalidating it, and members parked before such an
   upgrade, could never be reactivated; both are dropped. *)
let invalidate ?(cause = Tcache.Usmc) t (tr : Tcache.trans) =
  let policy = Adapt.peek t.adapt tr.Tcache.entry in
  if
    t.cfg.Config.enable_groups && cause = Tcache.Usmc
    && Policy.equal tr.Tcache.policy policy
  then Tcache.park ~cause t.tcache tr
  else Tcache.invalidate ~cause t.tcache tr;
  Tcache.drop_stale t.tcache ~entry:tr.Tcache.entry ~policy;
  t.stats.Stats.invalidations <- t.stats.Stats.invalidations + 1;
  if tr.Tcache.aot then
    t.stats.Stats.aot_invalidated <- t.stats.Stats.aot_invalidated + 1;
  List.iter (fun ppn -> refresh_page t ~ppn) (Tcache.pages_of tr)

(** A translation was discarded by tcache eviction (capacity pressure,
    not an SMC event): re-derive the protection its pages still need
    from the translations that survived. *)
let note_evicted t (tr : Tcache.trans) =
  if tr.Tcache.aot then
    t.stats.Stats.aot_invalidated <- t.stats.Stats.aot_invalidated + 1;
  List.iter (fun ppn -> refresh_page t ~ppn) (Tcache.pages_of tr)

(* ------------------------------------------------------------------ *)
(* Write-fault handling                                                *)
(* ------------------------------------------------------------------ *)

let overlapping_translations t ~paddr ~len =
  let ppn = paddr lsr Machine.Mmu.page_shift in
  Tcache.on_page t.tcache ~ppn
  |> List.filter (fun (tr : Tcache.trans) ->
         List.exists
           (fun (lo, hi) -> paddr < hi && lo < paddr + len)
           tr.Tcache.region.Region.src_ranges)

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r ->
      incr r;
      !r
  | None ->
      Hashtbl.add tbl key (ref 1);
      1

(* Protection faults on a self-revalidating translation: disarm
   protection and arm the prologue (the fault handler "enables the
   prologue and turns off protection to avoid the cost of faulting
   again", §3.6.2). *)
let disarm_for_reval t (tr : Tcache.trans) =
  tr.Tcache.reval_armed <- true;
  List.iter (fun ppn -> Machine.Mem.unprotect_page t.mem ~ppn) (Tcache.pages_of tr)

(* A data write landed on a protected page/chunk without touching any
   translation's bytes. *)
let handle_false_fault t ~ppn =
  let page_faults = bump t.false_faults ppn in
  let trs_on_page = Tcache.on_page t.tcache ~ppn in
  let reval_ready =
    List.filter
      (fun (tr : Tcache.trans) ->
        tr.Tcache.policy.Policy.self_reval
        && not tr.Tcache.policy.Policy.self_check)
      trs_on_page
  in
  if
    reval_ready <> []
    && List.length reval_ready = List.length trs_on_page
  then begin
    let d = bump t.disarms ppn in
    if d > Config.smc_disarm_limit && t.cfg.Config.enable_self_check then
      (* the disarm/revalidate cycle keeps repeating: the writer itself
         lives on this page, the case §3.6.2 says self-revalidation
         cannot handle — escalate (once per translation) to
         self-checking translations *)
      List.iter
        (fun (tr : Tcache.trans) ->
          Adapt.set_self_check t.adapt tr.Tcache.entry;
          invalidate t tr)
        trs_on_page
    else
      (* all affected translations can revalidate: unprotect the page
         and arm their prologues; the write then proceeds freely *)
      List.iter (disarm_for_reval t) reval_ready
  end
  else if
    t.cfg.Config.enable_fine_grain
    && not (Machine.Mem.in_fg_mode t.mem ~ppn)
  then begin
    (* first line of defence: switch the page to fine-grain mode *)
    Machine.Mem.set_fg_mode t.mem ~ppn true;
    Machine.Finegrain.install t.mem.Machine.Mem.fg ~ppn ~mask:(page_mask t ~ppn);
    t.stats.Stats.fg_installs <- t.stats.Stats.fg_installs + 1;
    Stats.charge t.stats Config.fg_install_cost
  end
  else if
    t.cfg.Config.enable_self_reval
    && page_faults > Config.smc_false_limit
    && trs_on_page <> []
  then begin
    (* data shares chunks (or, without fine-grain hardware, the page)
       with code: move the page's translations to self-revalidation *)
    List.iter
      (fun (tr : Tcache.trans) ->
        tr.Tcache.smc_false <- tr.Tcache.smc_false + 1;
        Adapt.set_self_reval t.adapt tr.Tcache.entry;
        invalidate t tr)
      trs_on_page;
    Machine.Mem.(t.mem.write_pass <- true)
  end
  else
    (* handler performs the write; protection stays, so the next write
       will fault again — this is the expensive page-level ping-pong
       Table 1 quantifies *)
    Machine.Mem.(t.mem.write_pass <- true)

(* A write genuinely overlaps translated code bytes. *)
let handle_code_write t ~trs ~paddr ~len =
  List.iter
    (fun (tr : Tcache.trans) ->
      let entry = tr.Tcache.entry in
      (* stylized SMC: writes confined to imm32 fields *)
      let stylized =
        if t.cfg.Config.enable_stylized then
          Region.imm_cover tr.Tcache.region
            (List.init len (fun k -> paddr + k))
        else None
      in
      match stylized with
      | Some addrs ->
          if
            ISet.subset addrs tr.Tcache.policy.Policy.stylized_imms
            && tr.Tcache.policy.Policy.self_check
          then
            (* the translation already loads these immediates from the
               code bytes at run time and verifies everything else: the
               write needs no invalidation at all — the §3.6.4 payoff *)
            ()
          else begin
            Adapt.add_stylized t.adapt entry addrs;
            (* stylized translations still need their non-immediate bytes
               verified *)
            if t.cfg.Config.enable_self_check then
              Adapt.set_self_check t.adapt entry;
            invalidate t tr
          end
      | None ->
          let n = bump t.invalidation_counts entry in
          if t.cfg.Config.enable_self_check && n > Config.smc_false_limit
          then
            (* repeated rewrites: stop invalidating, start checking *)
            Adapt.set_self_check t.adapt entry;
          (* a revalidating translation whose region is written *by itself*
             cannot make progress with a prologue (§3.6.2); self-checking
             handles that case, which the upgrade above moves toward *)
          invalidate t tr)
    trs;
  Machine.Mem.(t.mem.write_pass <- true)

(** The [Machine.Mem.on_smc] handler. *)
let on_write t (hit : Machine.Mem.smc_hit) ~paddr ~len =
  let ppn = paddr lsr Machine.Mmu.page_shift in
  match hit with
  | Machine.Mem.Fg_miss ->
      (* software refill of the fine-grain cache *)
      Machine.Finegrain.install t.mem.Machine.Mem.fg ~ppn
        ~mask:(page_mask t ~ppn);
      t.stats.Stats.fg_installs <- t.stats.Stats.fg_installs + 1;
      Stats.charge t.stats Config.fg_install_cost
  | Machine.Mem.Page_level | Machine.Mem.Fg_chunk -> (
      Stats.charge t.stats Config.fault_handler_cost;
      t.stats.Stats.fault_entries <- t.stats.Stats.fault_entries + 1;
      match overlapping_translations t ~paddr ~len with
      | [] -> handle_false_fault t ~ppn
      | trs -> handle_code_write t ~trs ~paddr ~len)

(** The [Machine.Mem.on_dma_smc] handler: paging traffic gets the
    coarse treatment — invalidate everything on the page (§3.6.1). *)
let on_dma t ~ppn =
  Stats.charge t.stats Config.fault_handler_cost;
  List.iter (invalidate t) (Tcache.on_page t.tcache ~ppn);
  Machine.Mem.unprotect_page t.mem ~ppn

(* ------------------------------------------------------------------ *)
(* Self-check failure and self-revalidation                            *)
(* ------------------------------------------------------------------ *)

(** Charge one compare of [region]'s source bytes against the live
    code: what a self-revalidation prologue, a group reactivation and a
    shared-store hit each cost instead of a translation. *)
let charge_compare t region =
  Stats.charge t.stats (Region.src_bytes region * Config.reval_cost_per_byte)

(** Reactivate the parked translation of [region] keyed by [policy] and
    the region's current source [bytes], if its group holds one
    (§3.6.5): it pays {!charge_compare} and gets its pages protected
    again. *)
let reactivate t ~policy ~region ~bytes =
  if not t.cfg.Config.enable_groups then None
  else
    match Tcache.group_match t.tcache ~policy ~region ~bytes with
    | Some tr as hit ->
        charge_compare t region;
        t.stats.Stats.group_hits <- t.stats.Stats.group_hits + 1;
        register t tr;
        hit
    | None -> None

(** A running translation's embedded self-check found changed bytes.
    Record stylized candidates from the byte diff and park the
    translation.  The entry's next translate reactivates the member
    that matches the new bytes, if its group holds one: only the
    translate path can key a member, since the key's region is the one
    selected over the current code. *)
let on_selfcheck_fail t (tr : Tcache.trans) =
  t.stats.Stats.selfcheck_fails <- t.stats.Stats.selfcheck_fails + 1;
  Stats.charge t.stats Config.fault_handler_cost;
  let entry = tr.Tcache.entry and region = tr.Tcache.region in
  let current = Codegen.take_snapshot t.mem region in
  let snap = tr.Tcache.src in
  (* stylized-SMC detection from the byte diff: if every changed byte
     sits in some instruction's imm32 field, retranslate with those
     immediates loaded from the code stream at run time (§3.6.4) *)
  (if t.cfg.Config.enable_stylized && Bytes.length snap = Bytes.length current
   then
     match Region.changed_bytes region ~snap ~current with
     | [] -> ()
     | diffs -> (
         match Region.imm_cover region diffs with
         | Some addrs -> Adapt.add_stylized t.adapt entry addrs
         | None -> ()));
  invalidate t tr

(** Self-revalidation prologue (§3.6.2): called at dispatch when the
    translation's prologue is armed.  Verifies the source bytes,
    re-protects, and disables the prologue; returns [false] when the
    code really changed (caller treats it like a self-check failure). *)
(* Compare current source bytes against the snapshot, ignoring bytes
   inside the translation's stylized immediate fields (those are
   legitimately volatile: the translation reloads them at run time). *)
let snapshot_matches (tr : Tcache.trans) current =
  let snap = tr.Tcache.src in
  Bytes.length snap = Bytes.length current
  &&
  let excluded = Region.stylized_fields tr.Tcache.region tr.Tcache.policy in
  List.for_all
    (fun a -> List.exists (fun (lo, hi) -> a >= lo && a < hi) excluded)
    (Region.changed_bytes tr.Tcache.region ~snap ~current)

let revalidate t (tr : Tcache.trans) =
  t.stats.Stats.reval_checks <- t.stats.Stats.reval_checks + 1;
  charge_compare t tr.Tcache.region;
  let current = Codegen.take_snapshot t.mem tr.Tcache.region in
  if snapshot_matches tr current then begin
    t.stats.Stats.reval_hits <- t.stats.Stats.reval_hits + 1;
    tr.Tcache.reval_armed <- false;
    register t tr;
    true
  end
  else false
