(* Aggregates all test suites into one alcotest runner.  Every test
   runs the translator as it ships: each compile is statically verified
   and a violation rejects the translation (Codegen.Verify_failed). *)
let () = Alcotest.run "cms-repro" (Test_x86.suites @ Test_flags.suites @ Test_machine.suites @ Test_vliw.suites @ Test_hwmodel.suites @ Test_cms.suites @ Test_smc.suites @ Test_workloads.suites @ Test_verify.suites @ Test_props.suites @ Test_hotpath.suites @ Test_chain.suites @ Test_fuzz.suites @ Test_robust.suites @ Test_persist.suites @ Test_checkpoint.suites @ Test_aot.suites @ Test_storm.suites @ Test_fleet.suites @ Test_alloc.suites @ Test_golden.suites @ Test_formats.suites @ Test_translator.suites)
