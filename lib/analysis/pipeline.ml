(** Wiring the verifier into the translator, and result reporting.

    {!Cms.Codegen} exposes a hook rather than depending on this library
    (the dependency points the other way); [install] plugs the two
    passes in so that — with {!Cms.Config.verify_translations} on — a
    violation makes the translator reject the translation by raising
    {!Cms.Codegen.Verify_failed}.  [install_collect] records structured
    diagnostics through a sink instead of rejecting, which is what the
    [cmsverify] sweep and the suite-is-clean property test use. *)

let verifier ?sink () =
  let deliver ds =
    match sink with
    | None ->
        (* rejecting mode: advisory rules (recoverable runtime events,
           e.g. a statically overflow-prone store run the engine
           escalates on) must not kill the translation *)
        List.filter_map
          (fun d -> if Diag.is_advisory d then None else Some (Diag.to_string d))
          ds
    | Some f ->
        List.iter f ds;
        []
  in
  {
    Cms.Codegen.lint_ir =
      (fun ~stage ~entry ~ir items -> deliver (Irlint.lint ~stage ~entry ~ir items));
    verify_code =
      (fun ~cfg ~entry ~ninsns code ->
        deliver (Tverify.verify ~cfg ~entry ~ninsns code));
  }

(** Install the rejecting verifier: any violation raises
    {!Cms.Codegen.Verify_failed} out of the translator. *)
let install () = Cms.Codegen.verify_hook := Some (verifier ())

(** Install a collecting verifier: diagnostics go to [f], translations
    are never rejected. *)
let install_collect f = Cms.Codegen.verify_hook := Some (verifier ~sink:f ())

let uninstall () = Cms.Codegen.verify_hook := None

(** Run [body] with the rejecting verifier installed, restoring the
    previous hook after.  The AOT builder uses this so pre-minted
    translations are always verified mandatorily, even when the ambient
    hook is a collecting one (e.g. under the fuzzer's oracles). *)
let with_reject body =
  let saved = !Cms.Codegen.verify_hook in
  install ();
  Fun.protect
    ~finally:(fun () -> Cms.Codegen.verify_hook := saved)
    body

(** Run [body] with a collecting verifier installed; returns its result
    and the diagnostics gathered, restoring the previous hook. *)
let with_collect body =
  let saved = !Cms.Codegen.verify_hook in
  let acc = ref [] in
  (* the hook is global: engines on other domains (fleet shards) call
     it too, so the sink is locked *)
  let lock = Mutex.create () in
  install_collect (fun d -> Mutex.protect lock (fun () -> acc := d :: !acc));
  Fun.protect
    ~finally:(fun () -> Cms.Codegen.verify_hook := saved)
    (fun () ->
      let r = body () in
      (r, List.rev !acc))

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

(** Violation count per rule, one row per known rule (zero rows
    included: a sweep should document what it checked), plus any
    unknown rule ids at the end. *)
let rule_counts (diags : Diag.t list) =
  let count r = List.length (List.filter (fun d -> d.Diag.rule = r) diags) in
  let known = List.map (fun (r, _, _) -> r) Diag.rules in
  let extra =
    List.sort_uniq compare
      (List.filter_map
         (fun d ->
           if List.mem d.Diag.rule known then None else Some d.Diag.rule)
         diags)
  in
  List.map (fun (r, what, where) -> (r, what, where, count r)) Diag.rules
  @ List.map (fun r -> (r, "(unknown rule)", "-", count r)) extra

let pp_table fmt diags =
  Fmt.pf fmt "%-22s %-6s %-10s %s@." "rule" "hits" "paper" "checks";
  List.iter
    (fun (r, what, where, n) ->
      Fmt.pf fmt "%-22s %-6d %-10s %s@." r n where what)
    (rule_counts diags)
