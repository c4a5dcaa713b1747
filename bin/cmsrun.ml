(* cmsrun: run a workload from the suite under a configurable CMS.

     dune exec bin/cmsrun.exe -- --list
     dune exec bin/cmsrun.exe -- -w "Quake Demo2 (DOS)" --no-reorder -v *)

module Suite = Workloads.Suite

let all_workloads () =
  Workloads.Progs_boot.all @ Workloads.Progs_spec.all
  @ Workloads.Progs_apps.all @ Workloads.Progs_quake.all
  @ [ Workloads.Progs_quake.blt_driver () ]
  @ Workloads.Progs_kernel.all

let find_workload name =
  List.find_opt (fun w -> w.Suite.name = name) (all_workloads ())

module Persist = Cms_persist

(* A suite run is deterministic given its configuration, so a workload
   journal carries no events — just the config and the final digests.
   Replay reruns under the journal's config and compares. *)
let digests_of (t : Cms.t) =
  ( Persist.Digests.arch_hex (Persist.Digests.arch t),
    Persist.Digests.strict_hex (Persist.Digests.strict t) )

let report ~stats ~verbose w t =
  let s = Cms.stats t in
  let p = Cms.perf t in
  Fmt.pr "workload: %s@." w.Suite.name;
  Fmt.pr "eax (checksum): %#x@." (Cms.gpr t X86.Regs.eax);
  Fmt.pr "x86 retired: %d (%d interp / %d translated)@."
    (Cms.retired t) s.Cms.Stats.x86_interp s.Cms.Stats.x86_translated;
  Fmt.pr "molecules: %d  (%.2f per x86 insn)@." (Cms.total_molecules t)
    (Cms.mpi t);
  if stats || verbose then begin
    Fmt.pr "host caches: %a@." Cms.Stats.pp_host s;
    Fmt.pr "chain: %a@." Cms.Stats.pp_chain s;
    Fmt.pr "recovery: %a@." Cms.Stats.pp_recovery s;
    Fmt.pr "irq: %a@." Cms.Stats.pp_irq s;
    Fmt.pr "persist: %a@." Cms.Stats.pp_persist s;
    Fmt.pr "fleet: %a@." Cms.Stats.pp_fleet s
  end;
  if verbose then begin
    Fmt.pr "stats: %a@." Cms.Stats.pp s;
    Fmt.pr "perf:  %a@." Vliw.Perf.pp p;
    let out = Cms.uart_output t in
    if out <> "" then Fmt.pr "--- serial ---@.%s@." out
  end

let do_record ~stats ~verbose ~cfg w path =
  let t = Suite.run ~cfg w in
  let arch_hex, strict_hex = digests_of t in
  Persist.Journal.save path
    {
      Persist.Journal.label = w.Suite.name;
      cfg;
      guest = [];
      host = [];
      arch_hex = Some arch_hex;
      strict_hex = Some strict_hex;
    };
  report ~stats ~verbose w t;
  Fmt.pr "recorded: %s (arch %s, strict %s)@." path arch_hex strict_hex;
  `Ok ()

let do_replay ~stats ~verbose w path =
  match Persist.Journal.load path with
  | exception Persist.Codec.Corrupt msg ->
      `Error (false, Fmt.str "cannot replay %s: %s" path msg)
  | exception Sys_error msg -> `Error (false, "cannot replay: " ^ msg)
  | j ->
      if j.Persist.Journal.label <> w.Suite.name then
        `Error
          ( false,
            Fmt.str "journal %s records workload %S, not %S" path
              j.Persist.Journal.label w.Suite.name )
      else begin
        let t = Suite.run ~cfg:j.Persist.Journal.cfg w in
        let arch_hex, strict_hex = digests_of t in
        report ~stats ~verbose w t;
        let check name recorded now =
          match recorded with
          | Some r when r <> now ->
              Some (Fmt.str "%s digest mismatch (recorded %s, got %s)" name r now)
          | _ -> None
        in
        match
          List.filter_map Fun.id
            [
              check "arch" j.Persist.Journal.arch_hex arch_hex;
              check "strict" j.Persist.Journal.strict_hex strict_hex;
            ]
        with
        | [] ->
            Fmt.pr "replay: PASS (bit-identical to recording)@.";
            `Ok ()
        | ms -> `Error (false, "replay FAILED: " ^ String.concat "; " ms)
      end

let do_aot_build ~verbose ~cfg w path =
  let t = Suite.prepare ~cfg w in
  let r = Cms_analysis.Aotgen.build ~label:w.Suite.name t ~entry:w.Suite.entry in
  Persist.Aot.save path r.Cms_analysis.Aotgen.image;
  Fmt.pr "%a@." Cms_analysis.Aotgen.pp_result r;
  if verbose then
    List.iter
      (fun (d : Cms_analysis.Aotgen.demotion) ->
        Fmt.pr "  demoted %#x: %s@." d.Cms_analysis.Aotgen.leader
          d.Cms_analysis.Aotgen.why)
      r.Cms_analysis.Aotgen.demotions;
  let size =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    close_in ic;
    n
  in
  Fmt.pr "aot image: %s (%d bytes)@." path size;
  `Ok ()

let do_aot_run ~stats ~verbose ~check ~cfg w path =
  match Persist.Aot.load path with
  | exception Persist.Codec.Corrupt msg ->
      `Error (false, Fmt.str "cannot load AOT image %s: %s" path msg)
  | exception Sys_error msg -> `Error (false, "cannot load AOT image: " ^ msg)
  | img -> (
      let t = Suite.prepare ~cfg w in
      match Persist.Aot.install t img with
      | exception Persist.Aot.Stale msg ->
          `Error (false, Fmt.str "stale AOT image %s: %s" path msg)
      | rep ->
          Fmt.pr "%a@." Persist.Aot.pp_report rep;
          if verbose then
            List.iter
              (fun (entry, why) -> Fmt.pr "  rejected %#x: %s@." entry why)
              rep.Persist.Aot.rejected;
          let t = Suite.run_prepared w t in
          report ~stats ~verbose w t;
          if stats || verbose then
            Fmt.pr "aot: %a@." Cms.Stats.pp_aot (Cms.stats t);
          if not check then `Ok ()
          else begin
            (* differential gate: the same workload cold, same config,
               no image.  Deterministic workloads must be bit-identical
               architecturally; timer-driven ones are compared by their
               checksum — interrupt delivery lands on consistent exits
               (§3.3) and AOT regions tile the code differently than
               profile-guided dynamic ones. *)
            let cold = Suite.run ~cfg w in
            if w.Suite.uses_timer then
              if Cms.gpr t X86.Regs.eax <> Cms.gpr cold X86.Regs.eax then
                `Error (false, "aot-check FAILED: checksum diverged")
              else begin
                Fmt.pr
                  "aot-check: PASS (checksum %#x matches cold run; \
                   timer-driven, memory not compared)@."
                  (Cms.gpr t X86.Regs.eax);
                `Ok ()
              end
            else
              let warm_arch =
                Persist.Digests.arch_hex (Persist.Digests.arch t)
              in
              let cold_arch =
                Persist.Digests.arch_hex (Persist.Digests.arch cold)
              in
              if warm_arch <> cold_arch then
                `Error
                  ( false,
                    Fmt.str
                      "aot-check FAILED: arch digest diverged (aot %s, cold %s)"
                      warm_arch cold_arch )
              else if Cms.gpr t X86.Regs.eax <> Cms.gpr cold X86.Regs.eax then
                `Error (false, "aot-check FAILED: checksum diverged")
              else begin
                Fmt.pr "aot-check: PASS (arch %s bit-identical to cold run)@."
                  warm_arch;
                `Ok ()
              end
          end)

let do_soak ~cfg w every =
  let r =
    Persist.Soak.drill
      ~make:(fun () -> Suite.prepare ~cfg w)
      ~max_insns:w.Suite.max_insns ~every
      ~compare_mem:(not w.Suite.uses_timer) ()
  in
  Fmt.pr "soak %s: %a@." w.Suite.name Persist.Soak.pp_result r;
  if Persist.Soak.ok r then `Ok ()
  else `Error (false, "soak drill diverged")

let run_cmd name list_only no_reorder no_alias no_fg no_chaining no_closures
    no_chain no_reval no_groups no_stylized force_selfcheck interp_only
    no_fast_paths threshold max_region stats record replay
    soak soak_every aot_build aot aot_check verbose =
  if list_only then begin
    List.iter (fun w -> Fmt.pr "%s@." w.Suite.name) (all_workloads ());
    `Ok ()
  end
  else
    match find_workload name with
    | None ->
        `Error (false, Fmt.str "unknown workload %S (try --list)" name)
    | Some w ->
        let cfg =
          {
            Cms.Config.default with
            Cms.Config.enable_reorder = not no_reorder;
            enable_alias_hw = not no_alias;
            enable_fine_grain = not no_fg;
            enable_chaining = not no_chaining;
            closure_exec = not no_closures;
            chain_exits = not no_chain;
            enable_self_reval = not no_reval;
            enable_groups = not no_groups;
            enable_stylized = not no_stylized;
            force_self_check = force_selfcheck;
            host_fast_paths = not no_fast_paths;
            translate_threshold =
              (if interp_only then max_int else threshold);
            max_region_insns = max_region;
          }
        in
        match (record, replay, soak, aot_build, aot) with
        | Some path, None, false, None, None ->
            do_record ~stats ~verbose ~cfg w path
        | None, Some path, false, None, None -> do_replay ~stats ~verbose w path
        | None, None, true, None, None -> do_soak ~cfg w soak_every
        | None, None, false, Some path, None -> do_aot_build ~verbose ~cfg w path
        | None, None, false, None, Some path ->
            do_aot_run ~stats ~verbose ~check:aot_check ~cfg w path
        | None, None, false, None, None ->
            if aot_check then
              `Error (false, "--aot-check requires --aot IMAGE")
            else begin
              let t = Suite.run ~cfg w in
              report ~stats ~verbose w t;
              `Ok ()
            end
        | _ ->
            `Error
              ( false,
                "--record, --replay, --soak, --aot-build and --aot are \
                 mutually exclusive" )

open Cmdliner

let workload_arg =
  Arg.(value & opt string "026.compress (Linux)"
       & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload to run.")

let list_only =
  Arg.(value & flag & info [ "list" ] ~doc:"List available workloads.")

let flag names doc = Arg.(value & flag & info names ~doc)

let no_reorder = flag [ "no-reorder" ] "Suppress memory reordering (Fig. 2)."
let no_alias = flag [ "no-alias" ] "Disable the alias hardware (Fig. 3)."
let no_fg = flag [ "no-fine-grain" ] "Disable fine-grain protection (Table 1)."
let no_chaining = flag [ "no-chaining" ] "Disable translation chaining."
let no_closures =
  flag [ "no-closures" ]
    "Execute translations through the two-phase decoder instead of the \
     pre-compiled closure tier.  Guest-visible behavior is identical \
     either way; the knob exists for measurement and fallback."
let no_chain =
  flag [ "no-chain" ]
    "Keep chain patching but never follow a patched exit: every \
     translation exit returns to the dispatcher.  Guest-visible behavior \
     is identical either way."
let no_reval = flag [ "no-self-reval" ] "Disable self-revalidation."
let no_groups = flag [ "no-groups" ] "Disable translation groups."
let no_stylized = flag [ "no-stylized" ] "Disable stylized-SMC translations."
let force_selfcheck =
  flag [ "force-self-check" ] "Make every translation self-checking."
let interp_only = flag [ "interp-only" ] "Never translate; pure interpreter."
let no_fast_paths =
  flag [ "no-fast-paths" ]
    "Disable the host-side caching layers (software TLB, decoded-instruction \
     cache, RAM fast path).  Guest-visible behavior is identical either way; \
     the knob exists for measurement and fallback."

let stats_flag =
  flag [ "stats" ]
    "Print the host-side cache hit/miss counters and the recovery \
     counters (rollbacks, demotions, quarantines, containments, \
     evictions)."

let threshold =
  Arg.(value & opt int Cms.Config.default.Cms.Config.translate_threshold
       & info [ "threshold" ] ~docv:"N"
           ~doc:"Interpreter executions before translating.")

let max_region =
  Arg.(value & opt int Cms.Config.default.Cms.Config.max_region_insns
       & info [ "max-region" ] ~docv:"N" ~doc:"Region size cap (x86 insns).")

let record_arg =
  Arg.(value & opt (some string) None
       & info [ "record" ] ~docv:"FILE"
           ~doc:"Run the workload and write a deterministic journal (config + \
                 final-state digests) to $(docv); verify later with --replay.")

let replay_arg =
  Arg.(value & opt (some string) None
       & info [ "replay" ] ~docv:"FILE"
           ~doc:"Re-run the workload under the configuration recorded in \
                 $(docv) and require bit-identical final-state digests.")

let soak_flag =
  flag [ "soak" ]
    "Run the kill-and-resume soak drill: execute in segments, snapshot at \
     each cut, destroy the machine, restore from the image and continue; \
     then differentially compare against an uninterrupted run."

let soak_every =
  Arg.(value & opt int 150_000
       & info [ "soak-every" ] ~docv:"N"
           ~doc:"Soak segment length in retired instructions.")

let aot_build_arg =
  Arg.(value & opt (some string) None
       & info [ "aot-build" ] ~docv:"FILE"
           ~doc:"Statically discover the workload's code (recursive descent \
                 from the entry point), pre-translate every discovered region \
                 under the mandatory verifier and write the ahead-of-time \
                 translation image to $(docv).  The workload is not run.")

let aot_arg =
  Arg.(value & opt (some string) None
       & info [ "aot" ] ~docv:"FILE"
           ~doc:"Boot the workload from the ahead-of-time translation image \
                 $(docv): installed translations are validated copy-on-boot \
                 against the live memory and the image's code-page digests; \
                 a stale image is refused with a diagnostic.")

let aot_check =
  flag [ "aot-check" ]
    "With --aot: also run the workload cold (no image) under the same \
     configuration and require a bit-identical architectural digest; exits \
     nonzero on divergence."

let verbose = flag [ "v"; "verbose" ] "Print detailed statistics."

let cmd =
  let doc = "run a workload on the Code Morphing Software reproduction" in
  Cmd.v
    (Cmd.info "cmsrun" ~doc)
    Term.(
      ret
        (const run_cmd $ workload_arg $ list_only $ no_reorder $ no_alias $ no_fg
       $ no_chaining $ no_closures $ no_chain $ no_reval $ no_groups
       $ no_stylized $ force_selfcheck $ interp_only $ no_fast_paths
       $ threshold $ max_region $ stats_flag $ record_arg
       $ replay_arg $ soak_flag $ soak_every $ aot_build_arg $ aot_arg
       $ aot_check $ verbose))

let () = exit (Cmd.eval cmd)
