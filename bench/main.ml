(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md experiment index), plus bechamel
   microbenchmarks of the core mechanisms.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig2    # one experiment
     dune exec bench/main.exe -- micro   # microbenchmarks only *)

module Experiments = Workloads.Experiments
module Trial = Cms_persist.Trial

let pr fmt = Fmt.pr fmt

let run_fig2 () = Experiments.pp_degradation
    ~title:"Figure 2: Degradation Caused by Suppressing Memory Reordering"
    Fmt.stdout (Experiments.fig2 ())

let run_fig3 () = Experiments.pp_degradation
    ~title:"Figure 3: Degradation Caused By No Alias Hardware"
    Fmt.stdout (Experiments.fig3 ())

let run_table1 () = Experiments.pp_table1 Fmt.stdout (Experiments.table1 ())

let run_selfcheck () =
  Experiments.pp_selfcheck Fmt.stdout (Experiments.selfcheck ())

let run_selfreval () =
  Experiments.pp_selfreval Fmt.stdout (Experiments.selfreval ())

let run_groups () = Experiments.pp_groups Fmt.stdout (Experiments.groups ())

let run_flow () = Experiments.pp_flow Fmt.stdout (Experiments.flow ())

let run_ablations () =
  Experiments.pp_sweep ~title:"translate threshold (026.compress)"
    ~param_name:"threshold" Fmt.stdout
    (Experiments.threshold_sweep ());
  Experiments.pp_sweep ~title:"max region size (047.tomcatv)"
    ~param_name:"insns" Fmt.stdout
    (Experiments.region_sweep ());
  Experiments.pp_sweep ~title:"alias slots (026.compress)"
    ~param_name:"slots" Fmt.stdout
    (Experiments.alias_slot_sweep ());
  Experiments.pp_sweep ~title:"chaining on/off (085.gcc)" ~param_name:"on"
    Fmt.stdout
    (Experiments.chaining_ablation ());
  Experiments.pp_sweep ~title:"store buffer capacity (Quattro Pro)"
    ~param_name:"entries" Fmt.stdout
    (Experiments.sbuf_sweep ())

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  (* commit / rollback cost (the §3.1 "commits are effectively free"
     claim, here in host-simulator nanoseconds) *)
  let mem = Machine.Mem.create ~ram_size:(1 lsl 20) () in
  Machine.Mmu.map_identity mem.Machine.Mem.mmu ~virt:0 ~pages:256
    ~writable:true;
  let exec = Vliw.Exec.create mem in
  let commit_bench =
    Test.make ~name:"commit"
      (Staged.stage (fun () -> Vliw.Exec.commit exec))
  in
  let rollback_bench =
    Test.make ~name:"rollback"
      (Staged.stage (fun () -> Vliw.Exec.rollback exec))
  in
  (* decoder throughput on a canned hot-loop byte string *)
  let listing =
    X86.Asm.(
      assemble ~base:0x1000
        [
          mov_ri ecx 16;
          label "l";
          add_ri eax 3;
          mov_rm ebx (mbd esi 4);
          dec_r ecx;
          jne "l";
          hlt;
        ])
  in
  let bytes = listing.X86.Asm.image in
  let fetch a = Char.code (Bytes.get bytes (a - 0x1000)) in
  let decode_bench =
    Test.make ~name:"decode-insn"
      (Staged.stage (fun () -> ignore (X86.Decode.decode ~fetch 0x1000)))
  in
  (* whole-pipeline translation of a representative region *)
  let translate_bench =
    Test.make ~name:"translate-region"
      (Staged.stage (fun () ->
           let c =
             Cms.create
               ~cfg:{ Cms.Config.default with Cms.Config.translate_threshold = 1 }
               ()
           in
           Cms.load c listing;
           Cms.boot c ~entry:0x1000;
           ignore (Cms.run ~max_insns:500 c)))
  in
  Test.make_grouped ~name:"cms"
    [ commit_bench; rollback_bench; decode_bench; translate_bench ]

let run_micro () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second 0.5)
      ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results = Analyze.all ols (List.hd instances) raw in
  pr "=== Microbenchmarks (host ns/op; Config's molecule cost model is@.";
  pr "    the guest analogue of these) ===@.";
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> pr "  %-28s %10.1f ns/run@." name est
      | _ -> pr "  %-28s (no estimate)@." name)
    results

(* ------------------------------------------------------------------ *)
(* Steady-state execution-ladder wall-clock benchmark                  *)
(* ------------------------------------------------------------------ *)

(* One hot loop ({!Workloads.Hotpath}) timed across the execution
   ladder, from the slowest tier (pure interpreter, host caching layers
   off) to the fastest (translated: closure-compiled, exits chained).
   The body is a copy/accumulate kernel, so the software TLB / RAM fast
   path matter in the interpreter tiers and the store buffer and alias
   checks matter in the translated one; under the short region cap,
   each iteration crosses several translation exits, exactly what
   chaining removes from the dispatcher.

   The ladder, slowest first.  [translate = false] pins the
   interpreter ([translate_threshold = max_int]); the translated tier
   uses the default threshold so the loop reaches steady state almost
   immediately. *)
let hotpath_tiers =
  [
    ("interp, host caches off", false, false);
    ("interp, host caches on", false, true);
    ("translated", true, true);
  ]

let hotpath_cfg ~translate ~fast =
  {
    Cms.Config.default with
    Cms.Config.translate_threshold =
      (if translate then Cms.Config.default.Cms.Config.translate_threshold
       else max_int);
    (* short regions so each loop iteration crosses several
       translation exits *)
    max_region_insns = 16;
    host_fast_paths = fast;
  }

let hotpath_run ~cfg ~iters =
  let c = Cms.create ~cfg () in
  Cms.load c (Workloads.Hotpath.listing ~iters);
  Cms.boot c ~entry:Workloads.Hotpath.entry;
  let t0 = Sys.time () in
  ignore (Cms.run c);
  let dt = Sys.time () -. t0 in
  (dt, c)

let best_of n f =
  let best = ref infinity and last = ref None in
  for _ = 1 to n do
    let dt, c = f () in
    if dt < !best then best := dt;
    last := Some c
  done;
  (!best, Option.get !last)

(* Time every tier of the ladder (best of [reps], after a warmup) and
   cross-check that every tier retires the identical guest outcome.
   Returns [(name, seconds, machine)] rows, slowest tier first. *)
let hotpath_ladder ~iters ~reps =
  let rows =
    List.map
      (fun (name, translate, fast) ->
        let cfg = hotpath_cfg ~translate ~fast in
        (* decorrelate the tiers' heap state: without this, a tier
           inherits the previous tier's major heap and its timing
           drifts by tens of percent *)
        Gc.compact ();
        ignore (hotpath_run ~cfg ~iters:1_000);
        let dt, c = best_of reps (fun () -> hotpath_run ~cfg ~iters) in
        (name, dt, c))
      hotpath_tiers
  in
  (* every tier is observationally equivalent: identical guest
     outcome *)
  let guest (_, _, c) =
    (Cms.retired c, Cms.gpr c X86.Regs.eax, Cms.eip c)
  in
  let base = List.hd rows in
  List.iter
    (fun row ->
      if guest row <> guest base then begin
        let name, _, _ = row in
        Fmt.epr "hotpath: tier %S diverged from the interpreter baseline!@."
          name;
        exit 1
      end)
    rows;
  rows

let run_hotpath ~json () =
  let iters = 200_000 in
  let rows = hotpath_ladder ~iters ~reps:3 in
  let _, t_base, _ = List.hd rows in
  let retired =
    let _, _, c = List.hd rows in
    Cms.retired c
  in
  let _, t_full, c_full = List.nth rows 2 in
  let s = Cms.stats c_full in
  let speedup = t_base /. t_full in
  pr "=== Hot-path execution-ladder benchmark ===@.";
  pr "  retired x86 insns        %d@." retired;
  List.iter
    (fun (name, dt, _) ->
      pr "  %-26s %.3f s  (%5.0f ns/insn, %5.2fx)@." name dt
        (dt *. 1e9 /. float_of_int retired)
        (t_base /. dt))
    rows;
  pr "  headline speedup         %.2fx (interp/caches-off -> translated)@."
    speedup;
  pr "  %a@." (Cms.Stats.pp_group "chain") s;
  pr "  %a@." (Cms.Stats.pp_group "host") s;
  if json then begin
    let oc = open_out "BENCH_hotpath.json" in
    let j = Fmt.str in
    let tier_json (name, dt, c) =
      j
        "    { \"tier\": %S, \"seconds\": %.6f, \"ns_per_insn\": %.1f, \
         \"speedup\": %.3f }"
        name dt
        (dt *. 1e9 /. float_of_int (Cms.retired c))
        (t_base /. dt)
    in
    output_string oc
      (j
         "{\n\
         \  \"bench\": \"hotpath\",\n\
         \  \"loop_iterations\": %d,\n\
         \  \"retired_insns\": %d,\n\
         \  \"tiers\": [\n\
          %s\n\
         \  ],\n\
         \  \"speedup\": %.3f,\n\
         \  \"chain\": { \"chained_exits_taken\": %d, \"chain_patches\": %d \
          },\n\
         \  \"closures_compiled\": %d,\n\
         \  \"tlb\": { \"hits\": %d, \"misses\": %d },\n\
         \  \"dcache\": { \"hits\": %d, \"misses\": %d, \"invalidations\": %d \
          },\n\
         \  \"ram_fast\": { \"reads\": %d, \"writes\": %d }\n\
          }\n"
         iters retired
         (String.concat ",\n" (List.map tier_json rows))
         speedup s.Cms.Stats.chained_exits_taken s.Cms.Stats.chain_patches
         s.Cms.Stats.closures_compiled s.Cms.Stats.tlb_hits
         s.Cms.Stats.tlb_misses s.Cms.Stats.dcache_hits
         s.Cms.Stats.dcache_misses s.Cms.Stats.dcache_invalidations
         s.Cms.Stats.ram_fast_reads s.Cms.Stats.ram_fast_writes);
    close_out oc;
    pr "  wrote BENCH_hotpath.json@."
  end

(* ------------------------------------------------------------------ *)
(* Checkpoint/restore cost                                             *)
(* ------------------------------------------------------------------ *)

(* Snapshot size and save/restore wall-clock per workload class.  Each
   workload runs to completion, then the final machine state is
   captured and restored (best of 3 each).  The snapshot is the
   *guest* state only — host caches are rebuilt cold — so its size
   tracks the live working set, not the translation cache.  Then a
   fleet machine's periodic checkpoint, layer by layer. *)
let run_persist () =
  let best_of n f =
    let best = ref infinity and last = ref None in
    for _ = 1 to n do
      let t0 = Unix.gettimeofday () in
      let v = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      last := Some v
    done;
    (!best, Option.get !last)
  in
  let best3 f = best_of 3 f in
  pr "=== Checkpoint/restore cost (final-state snapshots) ===@.";
  pr "  %-28s %10s %9s %9s %9s@." "workload" "bytes" "save ms" "rest ms"
    "run s";
  List.iter
    (fun (cls, ws) ->
      let sizes = ref [] and saves = ref [] and rests = ref [] in
      List.iter
        (fun (w : Workloads.Suite.t) ->
          let c = Workloads.Suite.prepare w in
          let t0 = Unix.gettimeofday () in
          ignore (Cms.run ~max_insns:w.Workloads.Suite.max_insns c);
          let trun = Unix.gettimeofday () -. t0 in
          let tsave, img = best3 (fun () -> Cms_persist.Snapshot.capture c) in
          let trest, _ = best3 (fun () -> Cms_persist.Snapshot.restore img) in
          sizes := float_of_int (String.length img) :: !sizes;
          saves := tsave :: !saves;
          rests := trest :: !rests;
          pr "  %-28s %10d %9.2f %9.2f %9.2f@." w.Workloads.Suite.name
            (String.length img) (tsave *. 1e3) (trest *. 1e3) trun)
        ws;
      let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
      pr "  %-28s %10.0f %9.2f %9.2f@."
        (Fmt.str "[%s mean]" cls)
        (mean !sizes)
        (mean !saves *. 1e3)
        (mean !rests *. 1e3))
    [
      ("boots", Workloads.Progs_boot.all);
      ("apps", Workloads.Progs_spec.all @ Workloads.Progs_apps.all);
    ];
  (* Fleet machine 0 of the seed-1 traffic at 100k retired: the freeze
     every checkpoint period pays, the seal only a checkpoint's reader
     pays, and the eager capture (freeze into a fresh writer, then
     seal) every period paid before checkpoints were frozen. *)
  let module Fleet = Cms_fleet.Fleet in
  let module Snapshot = Cms_persist.Snapshot in
  let spec = List.hd (Fleet.traffic_specs ~seed:1 ~machines:4) in
  let c =
    Workloads.Suite.prepare ~cfg:Fleet.engine_cfg spec.Fleet.s_workload
  in
  let injector = Cms_persist.Journal.install_guest c spec.Fleet.s_events in
  ignore (Cms.run ~max_insns:100_000 c : Cms.Engine.stop);
  let into = Cms_persist.Codec.writer () in
  let tfreeze, frozen =
    best_of 50 (fun () -> Snapshot.freeze ~label:"m0" ~injector ~into c)
  in
  let tseal, img = best_of 50 (fun () -> Snapshot.seal frozen) in
  let tcapture, _ =
    best_of 50 (fun () -> Snapshot.capture ~label:"m0" ~injector c)
  in
  pr "@.=== Periodic checkpoint (fleet machine 0 at 100k retired, best of \
      50) ===@.";
  pr "  %10s %10s %9s %11s %15s@." "bytes" "freeze ms" "seal ms" "capture ms"
    "freeze/capture";
  pr "  %10d %10.3f %9.3f %11.3f %14.1f%%@." (String.length img)
    (tfreeze *. 1e3) (tseal *. 1e3) (tcapture *. 1e3)
    (100. *. tfreeze /. tcapture)

(* ------------------------------------------------------------------ *)
(* Ahead-of-time translation: cold start vs image boot                  *)
(* ------------------------------------------------------------------ *)

(* Cold start pays the cost model twice over: every hot instruction is
   interpreted [translate_threshold] times (interp_cost each) and then
   translated (translate_cost per x86 insn).  Booting from an AOT image
   skips both for the statically discovered code, so the total-molecule
   delta between the two runs *is* the cold-start overhead removed.
   The warm run round-trips the image through the stable codec — the
   benchmark measures the real boot path, not an in-memory shortcut —
   and every row must first pass the AOT differential against its cold
   run. *)
let run_aot ~json () =
  let workloads =
    List.hd Workloads.Progs_boot.all :: Workloads.Progs_spec.all
  in
  let cfg = Cms.Config.default in
  let rows =
    List.map
      (fun (w : Workloads.Suite.t) ->
        let s = Trial.of_suite w in
        let img =
          Cms_analysis.Aotgen.warm_image s ~cfg ~label:w.Workloads.Suite.name
            ~entry:w.Workloads.Suite.entry
        in
        let _, warm_o, warm = Trial.execute_aot s ~cfg img in
        let (_, cold), verdict = Trial.check_aot w ~cfg warm_o in
        (match verdict with
        | Ok () -> ()
        | Error e ->
            Fmt.epr "aot bench: %S diverged between cold and AOT-warm runs: %s@."
              w.Workloads.Suite.name e;
            exit 1);
        let sw = Cms.stats warm in
        let retired = Cms.retired warm in
        let coverage =
          if retired = 0 then 0.0
          else
            float_of_int sw.Cms.Stats.aot_x86_retired /. float_of_int retired
        in
        let mc = Cms.total_molecules cold and mw = Cms.total_molecules warm in
        let reduction =
          if mc = 0 then 0.0
          else float_of_int (mc - mw) /. float_of_int mc *. 100.0
        in
        (w, cold, warm, coverage, reduction, mc, mw))
      workloads
  in
  pr "=== AOT boot: cold start vs translation image ===@.";
  pr "  %-28s %12s %12s %7s %9s %6s %6s@." "workload" "cold mol" "warm mol"
    "redn%" "aot-cover" "dyn-tr" "aot-tr";
  List.iter
    (fun ((w : Workloads.Suite.t), cold, warm, coverage, reduction, mc, mw) ->
      ignore cold;
      let sw = Cms.stats warm in
      pr "  %-28s %12d %12d %6.1f%% %8.1f%% %6d %6d@." w.Workloads.Suite.name
        mc mw reduction (coverage *. 100.0) sw.Cms.Stats.translations
        sw.Cms.Stats.aot_loaded)
    rows;
  if json then begin
    let oc = open_out "BENCH_aot.json" in
    let j = Fmt.str in
    let row_json ((w : Workloads.Suite.t), cold, warm, coverage, reduction, mc, mw)
        =
      let sc = Cms.stats cold and sw = Cms.stats warm in
      j
        "    { \"workload\": %S, \"cold_molecules\": %d, \"warm_molecules\": \
         %d, \"reduction_pct\": %.2f, \"cold_mpi\": %.3f, \"warm_mpi\": %.3f, \
         \"retired\": %d, \"dynamic_translations_cold\": %d, \
         \"dynamic_translations_warm\": %d, \"aot_loaded\": %d, \"aot_hits\": \
         %d, \"aot_coverage_pct\": %.2f }"
        w.Workloads.Suite.name mc mw reduction (Cms.mpi cold) (Cms.mpi warm)
        (Cms.retired warm) sc.Cms.Stats.translations sw.Cms.Stats.translations
        sw.Cms.Stats.aot_loaded sw.Cms.Stats.aot_hits (coverage *. 100.0)
    in
    output_string oc
      (j "{\n  \"bench\": \"aot\",\n  \"workloads\": [\n%s\n  ]\n}\n"
         (String.concat ",\n" (List.map row_json rows)));
    close_out oc;
    pr "  wrote BENCH_aot.json@."
  end

(* ------------------------------------------------------------------ *)
(* Interrupt-storm throughput (bench storm)                            *)
(* ------------------------------------------------------------------ *)

(* Sweep packet arrival rate against the RX-server kernel: a fixed
   frame set arrives with varying retired-clock spacing through the
   journal's gated installer, and we measure translated throughput
   (retired insns/sec) and the asynchronous-rollback rate (interrupts
   that aborted an in-flight translation, per million retired insns)
   as delivery pressure rises.  Every run self-validates its checksum,
   so the numbers come from provably correct executions. *)
let run_storm ~json () =
  let reps = 3 in
  let nframes = 120 in
  let frame i =
    String.init 32 (fun k -> Char.chr (((i * 37) + (k * 11) + 5) land 0xff))
  in
  let frames = List.init nframes frame in
  let w = Workloads.Progs_kernel.kernel_rx frames in
  let gaps = [ 400; 1_000; 2_500; 6_000; 15_000 ] in
  let row gap =
    let events =
      List.mapi
        (fun i data -> Cms_persist.Journal.Pkt { at = 2_000 + (i * gap); data })
        frames
    in
    let run () =
      let t0 = Unix.gettimeofday () in
      let c = Workloads.Suite.prepare ~cfg:Cms.Config.default w in
      ignore
        (Cms_persist.Journal.install_guest c events
          : Cms_persist.Journal.injector);
      let c = Workloads.Suite.run_prepared w c in
      (Unix.gettimeofday () -. t0, c)
    in
    let dt, c = best_of reps run in
    (gap, dt, c)
  in
  let rows = List.map row gaps in
  pr "=== Interrupt-storm throughput (RX-server kernel, %d frames) ===@."
    nframes;
  let derived (gap, dt, c) =
    let s = Cms.stats c in
    let retired = Cms.retired c in
    let ips = float_of_int retired /. dt in
    let arrivals_per_mi =
      1_000_000.0 *. float_of_int nframes /. float_of_int retired
    in
    let rollbacks_per_mi =
      1_000_000.0 *. float_of_int s.Cms.Stats.irq_rollbacks
      /. float_of_int retired
    in
    (gap, dt, retired, ips, arrivals_per_mi, rollbacks_per_mi, s)
  in
  let rows = List.map derived rows in
  List.iter
    (fun (gap, dt, retired, ips, apm, rpm, s) ->
      pr
        "  gap %6d: %.3fs retired=%d (%.2fM insns/s)  arrivals/Mi=%.1f \
         irq[delivered=%d rollbacks=%d (%.1f/Mi) deferred=%d]  \
         nic[rx=%d drops=%d irqs=%d coalesced=%d]@."
        gap dt retired (ips /. 1e6) apm s.Cms.Stats.irq_delivered
        s.Cms.Stats.irq_rollbacks rpm s.Cms.Stats.irq_deferred
        s.Cms.Stats.nic_rx_frames s.Cms.Stats.nic_rx_dropped
        s.Cms.Stats.nic_irqs s.Cms.Stats.nic_irq_coalesced)
    rows;
  (* backpressure sanity: the gated installer never overruns the ring *)
  List.iter
    (fun (gap, _, _, _, _, _, s) ->
      if s.Cms.Stats.nic_rx_dropped > 0 then begin
        Fmt.epr "bench storm: gap %d dropped %d frames through the gated \
                 installer@."
          gap s.Cms.Stats.nic_rx_dropped;
        exit 1
      end)
    rows;
  if json then begin
    let oc = open_out "BENCH_storm.json" in
    let j = Fmt.str in
    let row_json (gap, dt, retired, ips, apm, rpm, s) =
      j
        "    { \"gap_insns\": %d, \"seconds\": %.6f, \"retired\": %d, \
         \"insns_per_sec\": %.1f, \"arrivals_per_minsn\": %.2f, \
         \"irq_delivered\": %d, \"irq_rollbacks\": %d, \
         \"rollbacks_per_minsn\": %.2f, \"irq_deferred\": %d, \
         \"nic_rx\": %d, \"nic_drops\": %d, \"nic_irqs\": %d, \
         \"nic_irq_coalesced\": %d }"
        gap dt retired ips apm s.Cms.Stats.irq_delivered
        s.Cms.Stats.irq_rollbacks rpm s.Cms.Stats.irq_deferred
        s.Cms.Stats.nic_rx_frames s.Cms.Stats.nic_rx_dropped
        s.Cms.Stats.nic_irqs s.Cms.Stats.nic_irq_coalesced
    in
    output_string oc
      (j
         "{\n\
         \  \"bench\": \"storm\",\n\
         \  \"workload\": %S,\n\
         \  \"frames\": %d,\n\
         \  \"rates\": [\n\
          %s\n\
         \  ]\n\
          }\n"
         w.Workloads.Suite.name nframes
         (String.concat ",\n" (List.map row_json rows)));
    close_out oc;
    pr "  wrote BENCH_storm.json@."
  end

(* ------------------------------------------------------------------ *)
(* Fleet scaling and shared-warm start (bench fleet)                   *)
(* ------------------------------------------------------------------ *)

(* Two questions, both against the RX-server traffic fleet:

   1. Scaling: aggregate retired insns/sec as the fleet grows from 1
      to 8 machines over up to 4 shard domains, all sharing one warm
      store.  Every machine self-validates its checksum.
   2. Shared-warm start: a late joiner booting the same kernel image
      against an already-warm store versus booting cold.  The warm
      joiner should source the majority of its molecules from the
      store (validated copies, no per-instruction translate charge)
      instead of minting them privately. *)
let run_fleet ~json () =
  let module Fleet = Cms_fleet.Fleet in
  let module Tstore = Cms_persist.Tstore in
  let reps = 3 in
  let seed = 11 in
  let fcfg shards = { Fleet.default_config with Fleet.shards } in
  let counts = [ 1; 2; 4; 8 ] in
  let row n =
    let specs = Fleet.traffic_specs ~seed ~machines:n in
    let shards = min 4 n in
    let run () =
      let t0 = Unix.gettimeofday () in
      let t = Fleet.run ~store:(Tstore.create ()) (fcfg shards) specs in
      (Unix.gettimeofday () -. t0, t)
    in
    let dt, t = best_of reps run in
    if t.Fleet.t_divergences > 0 || t.Fleet.t_quarantined > 0 then begin
      Fmt.epr "bench fleet: unhealthy fleet at %d machines@." n;
      exit 1
    end;
    (n, shards, dt, t)
  in
  let rows = List.map row counts in
  pr "=== Fleet scaling (RX-server kernel, shared warm store) ===@.";
  List.iter
    (fun (n, shards, dt, t) ->
      pr
        "  %d machines / %d shards: %.3fs retired=%d (%.2fM insns/s \
         aggregate)  store[hits=%d published=%d]@."
        n shards dt t.Fleet.t_retired
        (float_of_int t.Fleet.t_retired /. dt /. 1e6)
        t.Fleet.t_stats.Cms.Stats.store_hits
        t.Fleet.t_stats.Cms.Stats.store_published)
    rows;
  (* --- cold vs shared-warm late joiner ------------------------------ *)
  let specs = Fleet.traffic_specs ~seed:77 ~machines:2 in
  let publisher, joiner =
    match specs with [ a; b ] -> (a, b) | _ -> assert false
  in
  let store = Tstore.create () in
  ignore (Fleet.run ~store (fcfg 1) [ publisher ] : Fleet.totals);
  let solo ?store () =
    let t0 = Unix.gettimeofday () in
    let t = Fleet.run ?store (fcfg 1) [ joiner ] in
    (Unix.gettimeofday () -. t0, t)
  in
  let cold_dt, cold = best_of reps (fun () -> solo ()) in
  let warm_dt, warm = best_of reps (fun () -> solo ~store ()) in
  let stat t f =
    match (List.hd t.Fleet.t_reports).Fleet.r_stats with
    | Some s -> f s
    | None -> 0
  in
  let cold_translations = stat cold (fun s -> s.Cms.Stats.translations) in
  let warm_translations = stat warm (fun s -> s.Cms.Stats.translations) in
  let warm_hits = warm.Fleet.t_stats.Cms.Stats.store_hits in
  let cold_molecules = stat cold (fun s -> s.Cms.Stats.charged_molecules) in
  let warm_molecules = stat warm (fun s -> s.Cms.Stats.charged_molecules) in
  let removed_pct =
    100.0
    *. float_of_int (cold_translations - warm_translations)
    /. float_of_int (max 1 cold_translations)
  in
  pr "=== Shared-warm start (late joiner, same kernel image) ===@.";
  pr "  cold: %.3fs, %d private translations, %d host+overhead molecules@."
    cold_dt cold_translations cold_molecules;
  pr
    "  warm: %.3fs, %d private translations, %d store hits, %d host+overhead \
     molecules@."
    warm_dt warm_translations warm_hits warm_molecules;
  pr "  %.0f%% of cold-start translations sourced from the shared store@."
    removed_pct;
  if removed_pct < 50.0 then begin
    Fmt.epr
      "bench fleet: shared-warm start removed only %.0f%% of cold-start \
       translations (majority expected)@."
      removed_pct;
    exit 1
  end;
  if json then begin
    let oc = open_out "BENCH_fleet.json" in
    let j = Fmt.str in
    let row_json (n, shards, dt, t) =
      j
        "    { \"machines\": %d, \"shards\": %d, \"seconds\": %.6f, \
         \"retired\": %d, \"insns_per_sec\": %.1f, \"store_hits\": %d, \
         \"store_published\": %d }"
        n shards dt t.Fleet.t_retired
        (float_of_int t.Fleet.t_retired /. dt)
        t.Fleet.t_stats.Cms.Stats.store_hits
        t.Fleet.t_stats.Cms.Stats.store_published
    in
    output_string oc
      (j
         "{\n\
         \  \"bench\": \"fleet\",\n\
         \  \"scaling\": [\n\
          %s\n\
         \  ],\n\
         \  \"late_joiner\": {\n\
         \    \"cold\": { \"seconds\": %.6f, \"translations\": %d, \
          \"molecules\": %d },\n\
         \    \"warm\": { \"seconds\": %.6f, \"translations\": %d, \
          \"molecules\": %d, \"store_hits\": %d },\n\
         \    \"translations_removed_pct\": %.1f\n\
         \  }\n\
          }\n"
         (String.concat ",\n" (List.map row_json rows))
         cold_dt cold_translations cold_molecules warm_dt warm_translations
         warm_molecules warm_hits removed_pct);
    close_out oc;
    pr "  wrote BENCH_fleet.json@."
  end

(* ------------------------------------------------------------------ *)
(* Fast-path smoke check (CI: dune build @bench-smoke)                 *)
(* ------------------------------------------------------------------ *)

(* One real workload, both fast-path modes: each must pass its
   self-check, and the two Trial outcomes (stop, arch and strict
   digests) must match exactly. *)
let run_smoke () =
  let w = List.hd Workloads.Progs_spec.all in
  let outcome fast =
    let cfg = { Cms.Config.default with Cms.Config.host_fast_paths = fast } in
    let o, _ = Trial.execute (Trial.of_suite w) ~cfg ~setup:ignore in
    match Trial.suite_check w o with
    | Ok () -> o
    | Error e ->
        Fmt.epr "bench-smoke: %s@." e;
        exit 1
  in
  (match
     Trial.verdict ~what:"fast paths on/off" Trial.Strict
       (Trial.Outcome (outcome true)) (outcome false)
   with
  | Ok () ->
      pr "bench-smoke: %S identical with fast paths on and off@."
        w.Workloads.Suite.name
  | Error e ->
      Fmt.epr "bench-smoke: %S DIVERGED between fast-path modes: %s@."
        w.Workloads.Suite.name e;
      exit 1);
  (* the full ladder on a shortened loop: equivalence across all three
     tiers (hotpath_ladder exits nonzero on divergence) plus a floor
     on the headline speedup (interpreter with host caches off ->
     translated) — generous against the measured >4x so a loaded CI
     host doesn't flake, but tight enough to catch a large regression
     in the translated tier *)
  let rows = hotpath_ladder ~iters:40_000 ~reps:2 in
  let _, t_base, _ = List.hd rows in
  let _, t_full, c_full = List.nth rows 2 in
  let speedup = t_base /. t_full in
  let s = Cms.stats c_full in
  if s.Cms.Stats.closures_compiled = 0 then begin
    Fmt.epr "bench-smoke: translated tier compiled no closures@.";
    exit 1
  end;
  if s.Cms.Stats.chained_exits_taken = 0 then begin
    Fmt.epr "bench-smoke: translated tier followed no chained exits@.";
    exit 1
  end;
  if speedup < 3.1 then begin
    Fmt.epr "bench-smoke: ladder speedup %.2fx below the 3.1x floor@." speedup;
    exit 1
  end;
  pr "bench-smoke: ladder speedup %.2fx (floor 3.1x), %d closures, %d chained \
      exits@."
    speedup s.Cms.Stats.closures_compiled s.Cms.Stats.chained_exits_taken

(* ------------------------------------------------------------------ *)

let all () =
  run_fig2 ();
  run_fig3 ();
  run_table1 ();
  run_selfcheck ();
  run_selfreval ();
  run_groups ();
  run_flow ();
  run_ablations ();
  run_micro ();
  run_hotpath ~json:false ();
  run_persist ();
  run_aot ~json:false ();
  run_storm ~json:false ();
  run_fleet ~json:false ()

let () =
  let json =
    Array.exists (fun a -> a = "--json") Sys.argv
  in
  let sub =
    match
      Array.to_list Sys.argv |> List.tl
      |> List.filter (fun a -> a <> "--json")
    with
    | [] -> "all"
    | s :: _ -> s
  in
  match sub with
  | "fig2" -> run_fig2 ()
  | "fig3" -> run_fig3 ()
  | "table1" -> run_table1 ()
  | "selfcheck" -> run_selfcheck ()
  | "selfreval" -> run_selfreval ()
  | "groups" -> run_groups ()
  | "flow" -> run_flow ()
  | "ablations" -> run_ablations ()
  | "micro" ->
      run_micro ();
      run_hotpath ~json ()
  | "hotpath" -> run_hotpath ~json ()
  | "persist" -> run_persist ()
  | "aot" -> run_aot ~json ()
  | "storm" -> run_storm ~json ()
  | "fleet" -> run_fleet ~json ()
  | "smoke" -> run_smoke ()
  | "all" -> all ()
  | other ->
      Fmt.epr
        "unknown experiment %S; one of: fig2 fig3 table1 selfcheck selfreval \
         groups flow ablations micro hotpath persist aot storm fleet smoke \
         all@."
        other;
      exit 1
