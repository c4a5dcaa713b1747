(* cmsrun: run a workload from the suite under a configurable CMS.

     dune exec bin/cmsrun.exe -- --list
     dune exec bin/cmsrun.exe -- -w "Quake Demo2 (DOS)" --no-reorder -v *)

module Suite = Workloads.Suite
module Persist = Cms_persist
module Trial = Cms_persist.Trial

let report ~stats ~verbose w t =
  let s = Cms.stats t in
  let p = Cms.perf t in
  Fmt.pr "workload: %s@." w.Suite.name;
  Fmt.pr "eax (checksum): %#x@." (Cms.gpr t X86.Regs.eax);
  Fmt.pr "x86 retired: %d (%d interp / %d translated)@."
    (Cms.retired t) s.Cms.Stats.x86_interp s.Cms.Stats.x86_translated;
  Fmt.pr "molecules: %d  (%.2f per x86 insn)@." (Cms.total_molecules t)
    (Cms.mpi t);
  if stats || verbose then
    List.iter
      (fun g -> Fmt.pr "%a@." (Cms.Stats.pp_group g) s)
      Cms.Stats.groups;
  if verbose then begin
    Fmt.pr "perf:  %a@." Vliw.Perf.pp p;
    let out = Cms.uart_output t in
    if out <> "" then Fmt.pr "--- serial ---@.%s@." out
  end

(* A suite journal carries no events, just the config and the final
   digests; Trial records it, refusing a run that fails its
   self-check, and replays it against those digests and the clean
   outcome the journal stands for. *)
let do_record ~stats ~verbose ~cfg w path =
  match Trial.record_suite ~cfg w with
  | Error e -> `Error (false, "not recorded: " ^ e)
  | Ok r ->
      let j = r.Trial.journal in
      Persist.Journal.save path j;
      report ~stats ~verbose w r.Trial.machine;
      Fmt.pr "recorded: %s (arch %s, strict %s)@." path
        (Option.get j.Persist.Journal.arch_hex)
        (Option.get j.Persist.Journal.strict_hex);
      `Ok ()

let do_replay ~stats ~verbose w path =
  match Persist.Journal.load path with
  | exception Persist.Codec.Corrupt msg ->
      `Error (false, Fmt.str "cannot replay %s: %s" path msg)
  | exception Sys_error msg -> `Error (false, "cannot replay: " ^ msg)
  | j when j.Persist.Journal.label <> w.Suite.name ->
      `Error
        ( false,
          Fmt.str "journal %s records workload %S, not %S" path
            j.Persist.Journal.label w.Suite.name )
  | j -> (
      let (_, t), verdict = Trial.check_journal (Trial.of_suite w) j in
      report ~stats ~verbose w t;
      match verdict with
      | Ok () ->
          Fmt.pr "replay: PASS (bit-identical to recording)@.";
          `Ok ()
      | Error e -> `Error (false, "replay FAILED: " ^ e))

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
      match Trial.execute_aot (Trial.of_suite w) ~cfg img with
      | exception Persist.Aot.Stale msg ->
          `Error (false, Fmt.str "stale AOT image %s: %s" path msg)
      | rep, warm, t -> (
          Fmt.pr "%a@." Persist.Aot.pp_report rep;
          if verbose then
            List.iter
              (fun (_, why) -> Fmt.pr "  rejected %s@." why)
              rep.Persist.Aot.rejected;
          match Trial.suite_check w warm with
          | Error e -> `Error (false, e)
          | Ok () -> (
              report ~stats ~verbose w t;
              if not check then `Ok ()
              else
                match Trial.check_aot w ~cfg warm with
                | _, Error e -> `Error (false, "aot-check FAILED: " ^ e)
                | _, Ok () ->
                    if w.Suite.uses_timer then
                      Fmt.pr
                        "aot-check: PASS (checksum %#x; registers, flags, \
                         UART and frame buffer match cold run; timer-driven, \
                         memory and bus counters not compared)@."
                        (Trial.eax warm.Trial.arch)
                    else
                      Fmt.pr
                        "aot-check: PASS (arch %s bit-identical to cold run)@."
                        (Persist.Digests.arch_hex warm.Trial.arch);
                    `Ok ())))

(* Every snapshot the drill takes is resumed from: one count is both. *)
let do_soak ~cfg w =
  match Trial.soak w ~cfg with
  | (resumes, bytes), Ok () ->
      Fmt.pr "soak %s: ok (%d resumes, %d snapshots, %d bytes)@." w.Suite.name
        resumes resumes bytes;
      `Ok ()
  | (resumes, _), Error e ->
      Fmt.pr "soak %s: FAILED after %d resumes: %s@." w.Suite.name resumes e;
      `Error (false, "soak drill failed")

let run_cmd name list_only no_reorder no_alias no_fg no_chaining no_reval
    no_groups no_stylized force_selfcheck interp_only
    no_fast_paths threshold max_region stats record replay
    soak aot_build aot aot_check verbose =
  if list_only then begin
    List.iter (fun w -> Fmt.pr "%s@." w.Suite.name) (Workloads.Catalog.all ());
    `Ok ()
  end
  else
    match Workloads.Catalog.find name with
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
        | None, None, true, None, None -> do_soak ~cfg w
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
                 final-state digests) to $(docv); verify later with --replay.  \
                 No journal is written when the run fails its self-check.")

let replay_arg =
  Arg.(value & opt (some string) None
       & info [ "replay" ] ~docv:"FILE"
           ~doc:"Re-run the workload under the configuration recorded in \
                 $(docv) and require its recorded arch and strict digests and \
                 a clean stop: halted, no speculation violation, no verifier \
                 diagnostic.")

let soak_flag =
  flag [ "soak" ]
    "Run the kill-and-resume soak drill: execute in segments of 100000 \
     retired instructions, snapshot at each cut, destroy the machine, \
     resume from the image and continue; then differentially compare \
     against an uninterrupted run (the whole architectural digest, or for \
     timer-driven workloads registers, flags, UART output and frame \
     buffer).  A run that ends before the first cut fails the drill."

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
     configuration and require a bit-identical architectural digest (for \
     timer-driven workloads, whose memory and bus counters follow the \
     molecule clock: registers, flags, UART output and frame buffer); exits \
     nonzero on divergence."

let verbose = flag [ "v"; "verbose" ] "Print detailed statistics."

let cmd =
  let doc = "run a workload on the Code Morphing Software reproduction" in
  Cmd.v
    (Cmd.info "cmsrun" ~doc)
    Term.(
      ret
        (const run_cmd $ workload_arg $ list_only $ no_reorder $ no_alias $ no_fg
       $ no_chaining $ no_reval $ no_groups
       $ no_stylized $ force_selfcheck $ interp_only $ no_fast_paths
       $ threshold $ max_region $ stats_flag $ record_arg
       $ replay_arg $ soak_flag $ aot_build_arg $ aot_arg
       $ aot_check $ verbose))

let () = exit (Cmd.eval cmd)
