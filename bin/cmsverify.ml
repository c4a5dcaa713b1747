(* cmsverify: sweep the workload suite, observing every diagnostic the
   translator's own (rejecting) verifier reports, and print a per-rule
   violation table.

     dune exec bin/cmsverify.exe                    # whole suite
     dune exec bin/cmsverify.exe -- -w "026.compress (Linux)"
     dune exec bin/cmsverify.exe -- --json

   Exits non-zero if any translation violated a verifier rule. *)

module Suite = Workloads.Suite

(* The one report both sweeps print: a JSON object ([head] gives its
   leading fields, then the per-rule counts and every diagnostic), or
   the text table with [summary] below it.  Exits 1 on any violation. *)
let report ~json ~head ~summary diags =
  let violations = List.length diags in
  if json then begin
    let counts =
      Cms_analysis.Pipeline.rule_counts diags
      |> List.map (fun (r, _, _, n) -> Fmt.str "\"%s\":%d" r n)
      |> String.concat ","
    in
    let ds = List.map Cms.Diag.to_json diags |> String.concat "," in
    Fmt.pr "{%s,\"violations\":%d,\"rules\":{%s},\"diags\":[%s]}@." head
      violations counts ds
  end
  else begin
    Fmt.pr "@.%a@." Cms_analysis.Pipeline.pp_table diags;
    Fmt.pr "%s%d violations@." summary violations;
    List.iter (fun d -> Fmt.pr "  %a@." Cms.Diag.pp d) diags
  end;
  if violations > 0 then exit 1;
  `Ok ()

(* Sweep every pre-minted translation in an AOT image through the
   static verifier — the offline counterpart of the build-time mandatory
   check, usable on an image produced elsewhere (or tampered with). *)
let verify_aot json path =
  match Cms_persist.Aot.load path with
  | exception Cms_persist.Codec.Corrupt msg ->
      `Error (false, Fmt.str "cannot load AOT image %s: %s" path msg)
  | exception Sys_error msg -> `Error (false, "cannot load AOT image: " ^ msg)
  | img -> (
      let module Tstore = Cms_persist.Tstore in
      let cfg = img.Cms_persist.Aot.cfg in
      let entries = Tstore.bindings img.Cms_persist.Aot.store in
      match
        List.concat_map
          (fun (k, e) ->
            let t = Tstore.decode ~entry:(Tstore.key_entry k) e in
            Cms.Tverify.verify ~cfg ~entry:t.Tstore.tentry
              ~ninsns:(List.length t.Tstore.insns) t.Tstore.code)
          entries
      with
      | exception Tstore.Untrusted msg ->
          `Error (false, Fmt.str "AOT image %s: %s" path msg)
      | diags ->
          let label = img.Cms_persist.Aot.meta.Cms_persist.Aot.label in
          let ntrans = List.length entries in
          if not json then
            Fmt.pr "aot image %s (%s): %d translations@." path label ntrans;
          report ~json diags ~summary:""
            ~head:
              (Fmt.str "\"image\":\"%s\",\"label\":\"%s\",\"translations\":%d"
                 (String.escaped path) (String.escaped label) ntrans))

let run_cmd name json threshold force_selfcheck aot =
  match aot with
  | Some path -> verify_aot json path
  | None ->
  let wl =
    match name with
    | None -> Workloads.Catalog.all ()
    | Some n -> Option.to_list (Workloads.Catalog.find n)
  in
  if wl = [] then
    `Error (false, "unknown workload (run cmsrun --list for names)")
  else begin
    let cfg =
      {
        Cms.Config.default with
        Cms.Config.translate_threshold = threshold;
        force_self_check = force_selfcheck;
      }
    in
    let diags = ref [] in
    let on_diag d = diags := d :: !diags in
    let translations = ref 0 in
    let verified = ref 0 in
    List.iter
      (fun w ->
        if not json then Fmt.pr "%-36s %!" w.Suite.name;
        let before = List.length !diags in
        let t = Suite.run ~on_diag ~cfg w in
        let s = Cms.stats t in
        translations := !translations + s.Cms.Stats.translations;
        verified := !verified + s.Cms.Stats.translations_verified;
        if not json then
          Fmt.pr "%4d translations  %d violations@." s.Cms.Stats.translations
            (List.length !diags - before))
      wl;
    report ~json (List.rev !diags)
      ~head:
        (Fmt.str "\"workloads\":%d,\"translations\":%d,\"verified\":%d"
           (List.length wl) !translations !verified)
      ~summary:
        (Fmt.str "%d workloads, %d translations (%d verified), "
           (List.length wl) !translations !verified)
  end

open Cmdliner

let workload_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Verify only this workload.")

let json =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit a JSON report on stdout.")

let threshold =
  Arg.(
    value & opt int 4
    & info [ "threshold" ] ~docv:"N"
        ~doc:"Interpreter executions before translating (low = translate \
              aggressively so the verifier sees more code).")

let force_selfcheck =
  Arg.(
    value & flag
    & info [ "force-self-check" ]
        ~doc:"Make every translation self-checking (exercises the \
              alias-guard rules everywhere).")

let aot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "aot" ] ~docv:"FILE"
        ~doc:"Instead of running the suite, sweep every pre-minted \
              translation in the ahead-of-time image $(docv) through the \
              verifier; per-rule results honor $(b,--json).")

let cmd =
  let doc = "statically verify every translation the suite produces" in
  Cmd.v
    (Cmd.info "cmsverify" ~doc)
    Term.(
      ret
        (const run_cmd $ workload_arg $ json $ threshold $ force_selfcheck
       $ aot_arg))

let () = exit (Cmd.eval cmd)
