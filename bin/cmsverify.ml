(* cmsverify: sweep the workload suite, observing every diagnostic the
   translator's own (rejecting) verifier reports, and print a per-rule
   violation table.

     dune exec bin/cmsverify.exe                    # whole suite
     dune exec bin/cmsverify.exe -- -w "026.compress (Linux)"
     dune exec bin/cmsverify.exe -- --json

   Exits non-zero if any translation violated a verifier rule. *)

module Suite = Workloads.Suite

let all_workloads () =
  Workloads.Progs_boot.all @ Workloads.Progs_spec.all
  @ Workloads.Progs_apps.all @ Workloads.Progs_quake.all
  @ [ Workloads.Progs_quake.blt_driver () ]
  @ Workloads.Progs_kernel.all

(* Sweep every pre-minted translation in an AOT image through the
   static verifier — the offline counterpart of the build-time mandatory
   check, usable on an image produced elsewhere (or tampered with). *)
let verify_aot json path =
  match Cms_persist.Aot.load path with
  | exception Cms_persist.Codec.Corrupt msg ->
      `Error (false, Fmt.str "cannot load AOT image %s: %s" path msg)
  | exception Sys_error msg -> `Error (false, "cannot load AOT image: " ^ msg)
  | img ->
      let cfg = img.Cms_persist.Aot.cfg in
      let diags = ref [] in
      List.iter
        (fun (t : Cms_persist.Aot.tran) ->
          let ds =
            Cms.Tverify.verify ~cfg ~entry:t.Cms_persist.Aot.tentry
              ~ninsns:(List.length t.Cms_persist.Aot.insns)
              t.Cms_persist.Aot.code
          in
          diags := !diags @ ds)
        img.Cms_persist.Aot.trans;
      let diags = !diags in
      let violations = List.length diags in
      let ntrans = List.length img.Cms_persist.Aot.trans in
      if json then begin
        let counts =
          Cms_analysis.Pipeline.rule_counts diags
          |> List.map (fun (r, _, _, n) -> Fmt.str "\"%s\":%d" r n)
          |> String.concat ","
        in
        let ds =
          List.map Cms.Diag.to_json diags |> String.concat ","
        in
        Fmt.pr
          "{\"image\":\"%s\",\"label\":\"%s\",\"translations\":%d,\
           \"violations\":%d,\"rules\":{%s},\"diags\":[%s]}@."
          (String.escaped path)
          (String.escaped img.Cms_persist.Aot.meta.Cms_persist.Aot.label)
          ntrans violations counts ds
      end
      else begin
        Fmt.pr "aot image %s (%s): %d translations@." path
          img.Cms_persist.Aot.meta.Cms_persist.Aot.label ntrans;
        Fmt.pr "@.%a@." Cms_analysis.Pipeline.pp_table diags;
        Fmt.pr "%d violations@." violations;
        List.iter (fun d -> Fmt.pr "  %a@." Cms.Diag.pp d) diags
      end;
      if violations > 0 then exit 1;
      `Ok ()

let run_cmd name json threshold force_selfcheck aot =
  match aot with
  | Some path -> verify_aot json path
  | None ->
  let wl =
    match name with
    | None -> all_workloads ()
    | Some n -> List.filter (fun w -> w.Suite.name = n) (all_workloads ())
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
    let diags = List.rev !diags in
    let violations = List.length diags in
    if json then begin
      let counts =
        Cms_analysis.Pipeline.rule_counts diags
        |> List.map (fun (r, _, _, n) -> Fmt.str "\"%s\":%d" r n)
        |> String.concat ","
      in
      let ds =
        List.map Cms.Diag.to_json diags |> String.concat ","
      in
      Fmt.pr
        "{\"workloads\":%d,\"translations\":%d,\"verified\":%d,\
         \"violations\":%d,\"rules\":{%s},\"diags\":[%s]}@."
        (List.length wl) !translations !verified violations counts ds
    end
    else begin
      Fmt.pr "@.%a@." Cms_analysis.Pipeline.pp_table diags;
      Fmt.pr "%d workloads, %d translations (%d verified), %d violations@."
        (List.length wl) !translations !verified violations;
      List.iter (fun d -> Fmt.pr "  %a@." Cms.Diag.pp d) diags
    end;
    if violations > 0 then exit 1;
    `Ok ()
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
