(** Reporting of static-verifier results ({!Cms.Diag}): per-rule counts
    and the table [cmsverify] prints.  The verifier itself runs inside
    the translator ({!Cms.Codegen.check}). *)

module Diag = Cms.Diag

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
