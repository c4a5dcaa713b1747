(** The ahead-of-time translation builder: static discovery → verified
    pre-translation → persistent image.

    [build] walks the image with {!Discover}, then feeds every static
    leader through the *production* translator pipeline
    ({!Cms.Region.select} + {!Cms.Codegen.compile}), whose verifier
    rejects exactly as it does at run time: a region the verifier
    refuses is demoted to dynamic-only and recorded, never silently
    shipped.  The result is a {!Cms_persist.Aot} image keyed by
    code-page digests.

    Build-time regions differ from warm dynamic ones in exactly one
    way: the profile is empty, so conditional branches are traced
    fallthrough-biased (no taken-bias data) and no instruction is known
    to touch MMIO.  Both are safe — a pre-minted region that turns out
    to do MMIO faults [Mmio_spec] on first execution and the runtime
    adapts exactly as it does for any cold translation. *)

type demotion = {
  leader : int;
  why : string;  (** verifier diagnostic or selection failure *)
}

type build_result = {
  image : Cms_persist.Aot.t;
  discovery : Discover.t;
  minted : int;
  demotions : demotion list;
}

(* Translate one leader; [None] when nothing translatable starts there
   (interp-only first instruction, or the region kept being Too_big). *)
let translate_leader ~cfg ~mem ~profile leader =
  let rec attempt (policy : Cms.Policy.t) =
    match Cms.Region.select ~mem ~profile ~policy leader with
    | None -> None
    | Some region -> (
        match Cms.Codegen.compile ~cfg ~policy ~mem region with
        | compiled -> Some (policy, region, compiled)
        | exception Cms.Codegen.Too_big ->
            if policy.Cms.Policy.max_insns <= 4 then None
            else
              attempt
                { policy with Cms.Policy.max_insns = policy.Cms.Policy.max_insns / 2 })
  in
  attempt (Cms.Policy.default cfg)

(** Build an AOT image for the booted-but-unrun machine [c], starting
    discovery at [entry].  The machine is not executed — only its
    memory is read. *)
let build ?(max_insns = 65536) ~label (c : Cms.t) ~entry =
  let mem = Cms.mem c in
  let phys = mem.Machine.Mem.phys in
  let fetch a =
    if a >= 0 && a < phys.Machine.Phys.size then Machine.Phys.read8 phys a
    else raise (X86.Exn.Fault (X86.Exn.GP 0))
  in
  let d = Discover.discover ~max_insns ~fetch ~entry () in
  let cfg = c.Cms.Engine.cfg in
  let profile = Cms.Profile.create () in
  let smc_pages = d.Discover.smc_pages in
  let crosses_smc (region : Cms.Region.t) =
    List.exists
      (fun ppn -> List.mem ppn smc_pages)
      (Cms.Tcache.pages_of_ranges region.Cms.Region.src_ranges)
  in
  let minted = ref [] in
  let demotions = ref [] in
  let demoted_verify = ref 0 and demoted_select = ref 0 in
  List.iter
    (fun leader ->
      match translate_leader ~cfg ~mem ~profile leader with
      | None -> incr demoted_select
      | exception Cms.Codegen.Verify_failed why ->
          incr demoted_verify;
          demotions := { leader; why } :: !demotions
      | exception Out_of_memory -> raise Out_of_memory
      | exception Stack_overflow -> raise Stack_overflow
      | exception e ->
          (* translator containment, AOT flavour: a crash on one
             region demotes that region, not the build *)
          incr demoted_verify;
          demotions := { leader; why = Printexc.to_string e } :: !demotions
      | Some (policy, region, compiled) ->
          if crosses_smc region then
            (* grew onto a write-reachable page: dynamic-only *)
            demotions :=
              { leader; why = "region crosses a write-reachable page" }
              :: !demotions
          else
            let snapshot =
              match compiled.Cms.Codegen.snapshot with
              | Some s -> s
              | None -> Cms.Codegen.take_snapshot mem region
            in
            minted :=
              {
                Cms_persist.Aot.tentry = leader;
                policy;
                cont = region.Cms.Region.cont;
                src_ranges = region.Cms.Region.src_ranges;
                insns =
                  Array.to_list region.Cms.Region.insns
                  |> List.map (fun (i : Cms.Region.insn_info) ->
                         {
                           Cms_persist.Aot.addr = i.Cms.Region.addr;
                           len = i.Cms.Region.len;
                           follow =
                             (match i.Cms.Region.follow with
                             | Cms.Region.FNext -> 0
                             | Cms.Region.FTarget -> 1
                             | Cms.Region.FEnd -> 2);
                           loops = i.Cms.Region.loops;
                           imm32_addr = i.Cms.Region.imm32_addr;
                         });
                snapshot;
                code = compiled.Cms.Codegen.code;
              }
              :: !minted)
    (Discover.static_leaders d);
  let minted = List.rev !minted in
  (* digest every page any minted translation reads its source from *)
  let pages =
    List.concat_map
      (fun (t : Cms_persist.Aot.tran) ->
        Cms.Tcache.pages_of_ranges t.Cms_persist.Aot.src_ranges)
      minted
    |> List.sort_uniq compare
    |> List.filter_map (fun ppn ->
           Option.map
             (fun dg -> (ppn, dg))
             (Cms_persist.Aot.page_digest phys ppn))
  in
  let meta =
    {
      Cms_persist.Aot.label;
      entry;
      leaders = List.length d.Discover.leaders;
      insn_count = d.Discover.insn_count;
      bytes_static = d.Discover.bytes_static;
      bytes_deferred = d.Discover.bytes_deferred;
      deferred =
        List.map
          (fun (s : Discover.site) ->
            (s.Discover.addr, Discover.reason_name s.Discover.why))
          d.Discover.deferred;
      demoted_verify = !demoted_verify;
      demoted_select = !demoted_select;
      blind_stores = d.Discover.blind_stores;
      truncated = d.Discover.truncated;
    }
  in
  {
    image = { Cms_persist.Aot.meta; cfg; pages; trans = minted };
    discovery = d;
    minted = List.length minted;
    demotions = List.rev !demotions;
  }

let pp_result fmt r =
  Fmt.pf fmt "%a@.aot build: %d translations minted, %d demoted \
              (verify=%d select=%d)"
    Discover.pp r.discovery r.minted
    (List.length r.demotions)
    r.image.Cms_persist.Aot.meta.Cms_persist.Aot.demoted_verify
    r.image.Cms_persist.Aot.meta.Cms_persist.Aot.demoted_select
