(* Golden decision pin: for every workload in the corpus, under
   [Cms.Config.default], the retired-instruction count, the molecule
   total and the architectural digest.  Molecules are charged by every
   translate / install / rollback / demotion decision the engine makes,
   so any change to what gets translated, when, or how it is executed
   moves at least one column.  The table was generated before the
   background translator was removed and guards every later change to
   the one synchronous translate path. *)

module Suite = Workloads.Suite
module D = Cms_persist.Digests

let all_workloads () =
  Workloads.Progs_boot.all @ Workloads.Progs_spec.all
  @ Workloads.Progs_apps.all @ Workloads.Progs_quake.all
  @ [ Workloads.Progs_quake.blt_driver () ]
  @ Workloads.Progs_kernel.all

(* name, retired, total molecules, arch digest *)
let golden =
  [
    ("DOS Boot", 655273, 3907982, "e2318817385375bf1910664ba25adf33");
    ("Linux Boot", 2544075, 5150762, "9f3fef3028e2d076527773812d63ab73");
    ("OS/2 Boot", 1599473, 4605270, "f0ab95c1c7f62d3adfde71f84c9387f8");
    ("Windows 95 Boot", 2026059, 5772864, "0282a58e5e8efae789b305c7f159f734");
    ("Windows 98 Boot", 2286086, 6358138, "c6900a064df3de44ab88e21a45075137");
    ("Windows ME Boot", 2550191, 7062891, "7b9b6a6d2013a329868f42ce3c767368");
    ("Windows NT Boot", 2814215, 5370367, "1707742034ce9b293a6f6f1d3588d8b2");
    ("Windows XP Boot", 3130903, 6692276, "c9606d8ab6bdcfd115f2a8b80ac5a321");
    ("023.eqntott (Linux)", 209325, 1238731, "b12d6328f4190ef04fa53f14e5c465e1");
    ("026.compress (Linux)", 616111, 1424458, "fe11081f3bcaba7be46f2e1dec11ebbb");
    ("072.sc (Linux)", 425881, 1625763, "6a7728453b89dd1fb2a819dbffc36c38");
    ("085.gcc (Linux)", 1206702, 2028071, "8c3a0e7b604802d2390d4c23550989e1");
    ("047.tomcatv (Linux)", 1441225, 1936472, "32a94bd908eef022768fa2775ac9ceba");
    ("048.ora (Linux)", 606007, 1029981, "835dc653eba83b31eb694ad7070f0b36");
    ("052.alvinn (Linux)", 885228, 1929414, "fbca1fd6db5a55fb601fd3d0d78bb2cc");
    ("077.mdljsp2 (Linux)", 1371750, 2709661, "15e6809b6ecfc62a723dea6e639c470a");
    ("crafty (Win98)", 2638508, 2593308, "c383d385456987daaa3125624d30295d");
    ("espresso (Linux)", 323718, 900216, "aba7bc6d83bb64d8338b9446325fbd57");
    ("li (Linux)", 205006, 642994, "88a7f0796f53de7403eb8b5d03ae8d81");
    ("su2cor (Linux)", 606317, 935044, "7916b3e500ec2719ccd6b365615c15f6");
    ("wave5 (Linux)", 1015967, 1526944, "7d04c7d646b7a5ed8ebdbbe1c784174e");
    ("spice2g6 (Linux)", 499961, 1029137, "bfab2c74ff46a97f90983acb641e5574");
    ("CPUmark99 (Win98)", 174178, 1691134, "4305a9be02e36c26f52f8216e29cad18");
    ("Quattro Pro (WinNT)", 308163, 1418396, "5ffc597e66a2f40bd7c897cee4a4ec00");
    ("Wordperfect (WinNT)", 827453, 1288126, "ce39f830c21e73fed479ed05e17b45e8");
    ("Multimedia (Win98)", 2202612, 2709778, "5218c796ea209fb2acdeb5c316c4be77");
    ("Quake Demo2 (DOS)", 3366765, 72911966, "4e6ee033bfa33dd034abcd61891172de");
    ("BLT driver (8 versions)", 101692, 6458967, "561423f239052d182aea6d31509f7fac");
    ("RR Kernel", 255016, 1465629, "9588af8e1036069ad8826fcca9129cfa");
    ("Packet Echo Kernel", 184740, 1674233, "891bcc74649a4f9819cda656fcae6be7");
  ]

let pinned (w : Suite.t) () =
  match List.find_opt (fun (n, _, _, _) -> n = w.Suite.name) golden with
  | None -> Alcotest.failf "%s: no golden row" w.Suite.name
  | Some (_, retired, molecules, arch) ->
      let c = Suite.run w in
      Alcotest.(check int) "retired" retired (Cms.retired c);
      Alcotest.(check int) "total molecules" molecules (Cms.total_molecules c);
      Alcotest.(check string) "arch digest" arch (D.arch_hex (D.arch c))

(* The table and the corpus must name the same workloads: a workload
   added without a row, or a row whose workload is gone, fails here. *)
let test_table_covers_corpus () =
  Alcotest.(check (list string))
    "golden rows = corpus"
    (List.map (fun (w : Suite.t) -> w.Suite.name) (all_workloads ()))
    (List.map (fun (n, _, _, _) -> n) golden)

(* [Stats.bg_installed], [bg_overlap_insns] and [bg_waits] outlive the
   removed background translator as record fields only; nothing may
   move them. *)
let test_dormant_stats_zero () =
  List.iter
    (fun (w : Suite.t) ->
      let s = Cms.stats (Suite.run w) in
      Alcotest.(check (list int))
        (w.Suite.name ^ ": bg_installed, bg_overlap_insns, bg_waits")
        [ 0; 0; 0 ]
        [ s.Cms.Stats.bg_installed; s.Cms.Stats.bg_overlap_insns; s.Cms.Stats.bg_waits ])
    (List.filter
       (fun (w : Suite.t) ->
         List.mem w.Suite.name [ "li (Linux)"; "RR Kernel"; "CPUmark99 (Win98)" ])
       (all_workloads ()))

let suites =
  [
    ( "golden.decisions",
      Alcotest.test_case "table covers corpus" `Quick test_table_covers_corpus
      :: Alcotest.test_case "dormant bg stats stay zero" `Slow
           test_dormant_stats_zero
      :: List.map
           (fun (w : Suite.t) -> Alcotest.test_case w.Suite.name `Slow (pinned w))
           (all_workloads ()) );
  ]
