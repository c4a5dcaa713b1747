(* Fleet mode: the shared warm translation store (atomic persistence,
   truncated-image rejection, fleet-wide poison quarantine — exactly
   once), the supervisor's restart/quarantine ladder, and a seeded
   100-case slice of the fleet-chaos campaign with its record-replay
   journal round trip and determinism fingerprint, machines booting
   on the RAM earlier machines released, and the fleet's heap gate. *)

module Fleet = Cms_fleet.Fleet
module Share = Cms_fleet.Share
module Tstore = Cms_persist.Tstore
module Codec = Cms_persist.Codec
module Fleetfault = Cms_robust.Fleetfault

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* Unit-test supervision config: single shard; specs self-validate
   against their schedule-independent expected state. *)
let fcfg = Fleet.campaign_config

(* A warmed store plus the traffic spec that warmed it. *)
let warm_store seed =
  let specs = Fleet.traffic_specs ~seed ~machines:2 in
  let publisher, joiner =
    match specs with [ a; b ] -> (a, b) | _ -> assert false
  in
  let store = Tstore.create () in
  let r = Fleet.run_machine ~store fcfg publisher in
  check cb "publisher healthy" true (r.Fleet.r_status = Fleet.Healthy);
  check cb "publisher published" true (Tstore.size store > 0);
  (store, joiner)

(* ------------------------------------------------------------------ *)
(* Store persistence                                                   *)
(* ------------------------------------------------------------------ *)

let test_atomic_save () =
  let store, _ = warm_store 41 in
  let path = Filename.temp_file "tstore" ".img" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Codec.write_file path (Tstore.to_string store);
      check cb "image written" true (Sys.file_exists path);
      check cb "no temp file left behind" false
        (Sys.file_exists (path ^ ".tmp"));
      let loaded = Tstore.of_string (Codec.read_file path) in
      check ci "entries round-trip" (Tstore.size store) (Tstore.size loaded))

let test_truncated_image_rejected () =
  let store, _ = warm_store 42 in
  let image = Tstore.to_string store in
  let n = String.length image in
  (* every prefix is a torn image a killed publisher could have left
     without the atomic rename; all of them must be rejected *)
  List.iter
    (fun cut ->
      match Tstore.of_string (String.sub image 0 cut) with
      | _ -> Alcotest.failf "truncated image (%d/%d bytes) accepted" cut n
      | exception Codec.Corrupt _ -> ())
    [ 1; n / 4; n / 2; n - 1 ];
  (* and the untruncated image still loads *)
  check ci "full image loads" (Tstore.size store)
    (Tstore.size (Tstore.of_string image))

(* ------------------------------------------------------------------ *)
(* Poison quarantine: fleet-wide, exactly once                         *)
(* ------------------------------------------------------------------ *)

let store_stat (r : Fleet.report) f =
  match r.Fleet.r_stats with Some s -> f s | None -> 0

let test_poison_exactly_once () =
  let store, joiner = warm_store 43 in
  (* tamper *every* entry consistently (fresh MD5, matching source-page
     digest): only the structural validator / mandatory verifier stand
     between the poisoned molecules and the consumers.  Tampering all
     of them makes the test independent of which keys a timer-driven
     rerun happens to look up. *)
  let keys =
    Tstore.locked store (fun () ->
        Hashtbl.fold (fun k _ acc -> k :: acc) store.Tstore.entries [])
  in
  check cb "store was warmed" true (keys <> []);
  List.iter (fun k -> ignore (Fleetfault.tamper_code store k : bool)) keys;
  check ci "nothing quarantined yet" 0 (Tstore.poisoned_count store);
  (* consumer #1 hits tampered entries, rejects every one it sees, and
     quarantines each key for the whole fleet — each exactly once —
     then serves from its private translator and still validates *)
  let r1 = Fleet.run_machine ~store fcfg joiner in
  let rejects1 = store_stat r1 (fun s -> s.Cms.Stats.store_rejects) in
  let quar1 = store_stat r1 (fun s -> s.Cms.Stats.store_quarantines) in
  check cb "consumer 1 healthy" true (r1.Fleet.r_status = Fleet.Healthy);
  check cb "consumer 1 validated" true (r1.Fleet.r_divergence = None);
  check cb "consumer 1 rejected tampered entries" true (rejects1 > 0);
  check ci "every reject quarantined its key exactly once" rejects1 quar1;
  check ci "poison list matches" quar1 (Tstore.poisoned_count store);
  (* consumer #2 sees already-poisoned keys as misses (no re-reject, no
     re-quarantine — poisoning is per-key, exactly once, fleet-wide);
     any key it *does* reject is one consumer #1 never consulted, and
     that reject is again a first-time quarantine.  Either way it serves
     those regions from its private translator and still validates. *)
  let r2 = Fleet.run_machine ~store fcfg joiner in
  let rejects2 = store_stat r2 (fun s -> s.Cms.Stats.store_rejects) in
  let quar2 = store_stat r2 (fun s -> s.Cms.Stats.store_quarantines) in
  check cb "consumer 2 healthy" true (r2.Fleet.r_status = Fleet.Healthy);
  check cb "consumer 2 validated" true (r2.Fleet.r_divergence = None);
  check ci "consumer 2's rejects are all first-time quarantines" rejects2
    quar2;
  check ci "poison list is the union, each key once" (quar1 + quar2)
    (Tstore.poisoned_count store);
  (* the law holds for every later consumer: rejects are always
     first-time quarantines, and the poison list is their disjoint
     union — no key is ever quarantined twice *)
  let r3 = Fleet.run_machine ~store fcfg joiner in
  let rejects3 = store_stat r3 (fun s -> s.Cms.Stats.store_rejects) in
  let quar3 = store_stat r3 (fun s -> s.Cms.Stats.store_quarantines) in
  check cb "consumer 3 healthy" true (r3.Fleet.r_status = Fleet.Healthy);
  check ci "consumer 3's rejects are all first-time quarantines" rejects3
    quar3;
  check ci "poison list is still the disjoint union"
    (quar1 + quar2 + quar3)
    (Tstore.poisoned_count store)

(* The reject budget is cumulative: a good hit between two rejections
   does not reset it, so a machine detaches after [max_rejects]
   rejections in total. *)
let test_reject_budget_cumulative () =
  let entries = [ 0x1000; 0x1100; 0x1200; 0x1300 ] in
  let listing =
    X86.Asm.(
      assemble ~base:0x1000
        (List.concat_map
           (fun k -> [ align 256; add_ri eax k; add_ri ebx k; hlt ])
           [ 1; 2; 3; 4 ]))
  in
  let cfg = Cms.Config.default in
  let c = Cms.create ~cfg () in
  Cms.load c listing;
  Cms.boot c ~entry:0x1000;
  let mem = Cms.mem c and policy = Cms.Policy.default cfg in
  let inputs entry =
    match
      Cms.Region.select ~mem ~profile:(Cms.Profile.create ()) ~policy entry
    with
    | None -> Alcotest.failf "no region at %#x" entry
    | Some region -> (region, Cms.Codegen.take_snapshot mem region)
  in
  let mint entry =
    let region, bytes = inputs entry in
    let compiled = Cms.Codegen.compile_presnapped ~cfg ~policy ~bytes region in
    Tstore.encode ~entry ~region ~policy ~bytes ~compiled
  in
  let store = Tstore.create () in
  (* good entries at 0x1000 and 0x1200; the other two keys carry a
     neighbour's blob, which the consumer rejects as the wrong entry *)
  let minted = List.map mint entries in
  List.iteri
    (fun i (key, blob) ->
      let blob = if i mod 2 = 0 then blob else snd (List.nth minted (i - 1)) in
      ignore (Tstore.publish store ~key ~blob : bool))
    minted;
  let sh = Share.attach ~max_rejects:2 c store in
  let consult entry =
    let region, bytes_ = inputs entry in
    (Option.get c.Cms.Engine.shared_source) ~entry ~region ~policy ~bytes_
    |> Option.is_some
  in
  check cb "bad entry rejected" false (consult 0x1100);
  check cb "good hit served" true (consult 0x1000);
  check ci "good hit does not reset the count" 1 sh.Share.rejects;
  check cb "still attached" false sh.Share.detached;
  check cb "second bad entry rejected" false (consult 0x1300);
  check cb "detached after max_rejects in total" true sh.Share.detached;
  check cb "good entry no longer consulted" false (consult 0x1200);
  check ci "two store rejects" 2 (Cms.stats c).Cms.Stats.store_rejects

(* ------------------------------------------------------------------ *)
(* Supervision: restart ladder and permanent quarantine                *)
(* ------------------------------------------------------------------ *)

let test_restart_from_snapshot () =
  let store, joiner = warm_store 44 in
  let spec =
    { joiner with Fleet.s_faults = [ Fleetfault.Kill { at = 30_000 } ] }
  in
  let r = Fleet.run_machine ~store fcfg spec in
  (match r.Fleet.r_status with
  | Fleet.Restarted 1 -> ()
  | s -> Alcotest.failf "expected one restart, got %s" (Fleet.status_name s));
  check ci "one kill fired" 1 r.Fleet.r_kills;
  check cb "backoff charged" true (r.Fleet.r_backoff > 0);
  check cb "restarted machine validated" true (r.Fleet.r_divergence = None)

let test_permanent_quarantine () =
  let store, joiner = warm_store 45 in
  let spec =
    { joiner with Fleet.s_faults = [ Fleetfault.Permafault { at = 30_000 } ] }
  in
  let r = Fleet.run_machine ~store fcfg spec in
  (match r.Fleet.r_status with
  | Fleet.Quarantined _ -> ()
  | s ->
      Alcotest.failf "expected permanent quarantine, got %s"
        (Fleet.status_name s));
  check ci "climbed the whole ladder" fcfg.Fleet.max_restarts
    r.Fleet.r_restarts;
  check cb "backoff at the cap position" true
    (r.Fleet.r_backoff >= fcfg.Fleet.backoff_base)

(* A quarantined machine never takes the fleet down: the other
   machines in the same (single-shard) fleet still run to health. *)
let test_containment () =
  let specs = Fleet.traffic_specs ~seed:46 ~machines:3 in
  let specs =
    List.mapi
      (fun i s ->
        if i = 1 then
          { s with Fleet.s_faults = [ Fleetfault.Permafault { at = 10_000 } ] }
        else s)
      specs
  in
  let store = Tstore.create () in
  let t = Fleet.run ~store { fcfg with Fleet.shards = 1 } specs in
  check ci "one machine quarantined" 1 t.Fleet.t_quarantined;
  check ci "the other two healthy" 2 t.Fleet.t_healthy;
  check ci "no divergences" 0 t.Fleet.t_divergences;
  check ci "no speculation violations" 0 t.Fleet.t_spec_violations

(* The interpreter against the generator: an interpreter-only solo run
   of every traffic machine must halt with exactly the checksum and
   syscall count its frame stream determines, and never expose
   speculative state.  The supervisor checks translated machines
   against the same expected values. *)
let test_interp_matches_generator () =
  List.iter
    (fun seed ->
      List.iter
        (fun (spec : Fleet.spec) ->
          let what = Printf.sprintf "seed %d machine %d" seed spec.Fleet.s_id in
          match Fleet.run_solo ~cfg:Fleet.interp_cfg spec with
          | Error e -> Alcotest.failf "%s: %s" what e
          | Ok (eax, ebx, viol) ->
              check ci (what ^ " eax") spec.Fleet.s_expected_eax eax;
              check ci (what ^ " ebx") spec.Fleet.s_expected_ebx ebx;
              check cb (what ^ " no visible speculation") false viol)
        (Fleet.traffic_specs ~seed ~machines:4))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Seeded fleet-chaos campaign slice                                   *)
(* ------------------------------------------------------------------ *)

let slice_profile = { Fleetfault.default_profile with n_machines = 2 }

let test_campaign_slice () =
  let t =
    Fleet.campaign ~profile:slice_profile ~fcfg ~seed:1 ~cases:100 ()
  in
  if t.Fleet.failed > 0 then
    List.iter
      (fun (i, e) -> Fmt.epr "case %d: %s@." i e)
      (List.rev t.Fleet.failures);
  let f = t.Fleet.fleet in
  check ci "all cases pass" 100 t.Fleet.passed;
  check ci "no cross-machine divergences" 0 f.Fleet.t_divergences;
  check ci "no speculation violations" 0 f.Fleet.t_spec_violations;
  (* the slice must actually exercise the machinery it claims to *)
  check cb "restarts exercised" true (f.Fleet.t_restarts > 0);
  check cb "store sharing exercised" true
    (f.Fleet.t_stats.Cms.Stats.store_hits > 0);
  check cb "store attacks exercised" true (t.Fleet.attacks > 0)

let test_campaign_deterministic () =
  let run () =
    Fleet.campaign ~profile:slice_profile ~fcfg ~seed:9 ~cases:15 ()
  in
  let a = run () and b = run () in
  check Alcotest.string "campaign fingerprints match" (Fleet.fingerprint a)
    (Fleet.fingerprint b);
  check ci "same pass count" a.Fleet.passed b.Fleet.passed

(* ------------------------------------------------------------------ *)
(* Recycled RAM                                                        *)
(* ------------------------------------------------------------------ *)

(* Every fleet machine releases its RAM when it finishes, so a second
   run in the same process starts with a full pool and boots every
   machine on a block an earlier machine wrote.  Nothing a machine
   reports may depend on that.  One shard: with two, which machine
   publishes a translation first depends on the schedule, and store
   hits move the guest's timer. *)
let test_recycled_ram_deterministic () =
  let specs = Fleet.traffic_specs ~seed:1 ~machines:4 in
  let run () =
    (Fleet.run ~store:(Tstore.create ())
       { Fleet.default_config with Fleet.shards = 1 }
       specs)
      .Fleet.t_reports
  in
  let first = run () in
  check cb "the pool holds released RAM" true
    (Atomic.get Machine.Phys.pool <> []);
  let second = run () in
  List.iter2
    (fun (a : Fleet.report) (b : Fleet.report) ->
      let what = Printf.sprintf "machine %d" a.Fleet.r_id in
      check Alcotest.string (what ^ " status")
        (Fleet.status_name a.Fleet.r_status)
        (Fleet.status_name b.Fleet.r_status);
      check ci (what ^ " retired") a.Fleet.r_retired b.Fleet.r_retired;
      check ci (what ^ " eax") a.Fleet.r_eax b.Fleet.r_eax;
      check ci (what ^ " ebx") a.Fleet.r_ebx b.Fleet.r_ebx;
      let stats (r : Fleet.report) =
        Option.map Cms_persist.Digests.normalized_stats r.Fleet.r_stats
      in
      check cb (what ^ " normalized stats") true (stats a = stats b))
    first second

(* The fixed-seed campaign [@fleet-smoke] runs ([cmsfleet --campaign
   --seed 1 --cases 25]): its restarts restore snapshots into recycled
   RAM. *)
let test_campaign_pinned () =
  let profile = { Fleetfault.default_profile with n_machines = 4 } in
  let t = Fleet.campaign ~profile ~seed:1 ~cases:25 () in
  check ci "all cases pass" 25 t.Fleet.passed;
  check Alcotest.string "fingerprint" "bfcf345d0318ea3763632b0c6ba2ca5b"
    (Fleet.fingerprint t)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

(* Guest RAM is mapped outside the OCaml heap, so a fleet machine
   prepared on a fresh block adds its own state to the major heap, not
   16 MiB (2.1 M words) of RAM.  The pool is emptied first, so the
   block is fresh. *)
let test_prepared_machine_major_words () =
  Atomic.set Machine.Phys.pool [];
  let spec = List.hd (Fleet.traffic_specs ~seed:1 ~machines:4) in
  let _, _, m0 = Gc.counters () in
  let c =
    Workloads.Suite.prepare ~cfg:Fleet.engine_cfg spec.Fleet.s_workload
  in
  let _, _, m1 = Gc.counters () in
  Cms.release c;
  if m1 -. m0 > 256_000. then
    Alcotest.failf "%.0f major words for a prepared machine (budget 256k)"
      (m1 -. m0)

(* Back-to-back 1-shard passes (one shard: its allocation repeats
   exactly) keep the heap's high-water mark flat instead of climbing
   with the pass count.  Read in [fleet_heap.exe], a process of its own,
   since [Gc.top_heap_words] never comes down. *)
let test_passes_top_heap_words () =
  let passes = 20 in
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "fleet_heap.exe"
  in
  if not (Sys.file_exists exe) then
    Alcotest.failf "%s is not built (dune build ./test/fleet_heap.exe)" exe;
  let ic = Unix.open_process_args_in exe [| exe; string_of_int passes |] in
  let tops =
    In_channel.input_all ic
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> List.map int_of_string
  in
  check cb "fleet_heap.exe exits 0" true
    (Unix.close_process_in ic = Unix.WEXITED 0);
  check ci "passes" passes (List.length tops);
  List.iteri
    (fun i w ->
      if w >= 1_000_000 then
        Alcotest.failf "top_heap_words %d after pass %d (budget 1M)" w (i + 1))
    tops

let suites =
  [
    ( "fleet.store",
      [
        Alcotest.test_case "atomic save (temp file + rename)" `Slow
          test_atomic_save;
        Alcotest.test_case "truncated image rejected" `Slow
          test_truncated_image_rejected;
        Alcotest.test_case "poison quarantined exactly once" `Slow
          test_poison_exactly_once;
        Alcotest.test_case "reject budget is cumulative" `Quick
          test_reject_budget_cumulative;
      ] );
    ( "fleet.supervisor",
      [
        Alcotest.test_case "restart from snapshot with backoff" `Slow
          test_restart_from_snapshot;
        Alcotest.test_case "permanent quarantine ladder" `Slow
          test_permanent_quarantine;
        Alcotest.test_case "fault containment across the fleet" `Slow
          test_containment;
        Alcotest.test_case "interpreter matches the generator" `Slow
          test_interp_matches_generator;
      ] );
    ( "fleet.campaign",
      [
        Alcotest.test_case "seeded 100-case slice" `Slow test_campaign_slice;
        Alcotest.test_case "fingerprint determinism" `Slow
          test_campaign_deterministic;
        Alcotest.test_case "25-case fingerprint pinned" `Slow
          test_campaign_pinned;
      ] );
    ( "fleet.recycled",
      [
        Alcotest.test_case "second run on recycled RAM is identical" `Slow
          test_recycled_ram_deterministic;
      ] );
    ( "fleet.heap",
      [
        Alcotest.test_case "prepared machine < 256k major words" `Quick
          test_prepared_machine_major_words;
        Alcotest.test_case "20 1-shard passes: top heap < 1M words" `Quick
          test_passes_top_heap_words;
      ] );
  ]
