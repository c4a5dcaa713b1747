(* Workload validation: every synthetic benchmark must produce exactly
   the same architectural result under interpreter-only execution and
   under full translation.  A representative subset runs in the default
   test pass (the full suite is exercised by the benchmark harness);
   the subset covers each workload family: boot, SPEC-like, dispatch-
   heavy, string-heavy, and the SMC/MMIO-heavy Quake renderer. *)

module Suite = Workloads.Suite
module Progs_boot = Workloads.Progs_boot
module Progs_spec = Workloads.Progs_spec
module Progs_apps = Workloads.Progs_apps
module Progs_quake = Workloads.Progs_quake

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let digest t =
  ( Cms.gpr t X86.Regs.eax,
    Cms.gpr t X86.Regs.ebx,
    Cms.eip t )

let differential (w : Suite.t) () =
  (* the static translation verifier (issue constraints and latencies
     included) checks every translation *)
  let t_ref = Suite.run ~cfg:Cms.interp_only_cfg w in
  let t_hot =
    Suite.run
      ~cfg:{ Cms.Config.default with Cms.Config.translate_threshold = 4 }
      w
  in
  let a, b, _ = digest t_ref and a', b', _ = digest t_hot in
  check ci (w.Suite.name ^ " eax") a a';
  check ci (w.Suite.name ^ " ebx") b b';
  (* the hot config must actually have translated a dominant fraction *)
  let s = Cms.stats t_hot in
  check cb
    (Fmt.str "%s mostly translated (%d vs %d)" w.Suite.name
       s.Cms.Stats.x86_translated s.Cms.Stats.x86_interp)
    true
    (s.Cms.Stats.x86_translated > s.Cms.Stats.x86_interp / 4)

let subset =
  [
    Progs_boot.dos;
    Progs_spec.eqntott;
    Progs_spec.compress;
    Progs_spec.sc;
    Progs_spec.ora;
    Progs_spec.gcc;
    Progs_spec.espresso;
    Progs_spec.li;
    Progs_spec.spice2g6;
    Progs_apps.wordperfect;
    Progs_apps.multimedia;
    Progs_quake.quake;
    Progs_quake.blt_driver ();
    Workloads.Progs_kernel.kernel_rr;
    Workloads.Progs_kernel.kernel_echo;
  ]

let workload_cases =
  List.map
    (fun w ->
      Alcotest.test_case w.Suite.name `Slow (differential w))
    subset

(* Sanity properties of the workload suite itself *)
let test_suite_shape () =
  check ci "eight boots" 8 (List.length Progs_boot.all);
  check cb "at least 12 apps" true
    (List.length (Progs_spec.all @ Progs_apps.all @ Progs_quake.all) >= 12);
  check ci "two kernels" 2 (List.length Workloads.Progs_kernel.all)

let test_quake_frames () =
  let t = Suite.run ~cfg:Cms.Config.default Progs_quake.quake in
  check ci "60 frames rendered" 60 (Cms.frames t)

let suites =
  [
    ("workloads.differential", workload_cases);
    ( "workloads.shape",
      [
        Alcotest.test_case "suite composition" `Quick test_suite_shape;
        Alcotest.test_case "quake renders frames" `Quick test_quake_frames;
      ] );
  ]
