(* Aggregates all test suites into one alcotest runner.  The rejecting
   translation verifier is installed for the whole run: every test that
   compiles under Config.debug (verify_translations = true) has its
   translations statically checked, and a violation fails the test via
   Codegen.Verify_failed. *)
let () = Cms_analysis.Pipeline.install ()

let () = Alcotest.run "cms-repro" (Test_x86.suites @ Test_flags.suites @ Test_machine.suites @ Test_vliw.suites @ Test_hwmodel.suites @ Test_cms.suites @ Test_smc.suites @ Test_workloads.suites @ Test_verify.suites @ Test_props.suites @ Test_hotpath.suites @ Test_chain.suites @ Test_fuzz.suites @ Test_robust.suites @ Test_persist.suites @ Test_checkpoint.suites @ Test_aot.suites @ Test_bgtrans.suites @ Test_storm.suites @ Test_fleet.suites @ Test_alloc.suites)
