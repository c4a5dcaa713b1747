(* The CMS benchmark: four seeded workloads in production configuration.

     cmsbench.exe --workload NAME --seed N --seconds S --trace 0|1
                  [--quick] [--corrupt-ref]
     cmsbench.exe --gen-refs            (print the reference file)
     cmsbench.exe --check-refs          (regenerate it and compare)

   Run from the repository root: the references are read from
   [perfbench/refs.txt] and traced spans written under [perfbench/out].

   The engine runs [Cms.Config.default], what [cmsrun] runs; the fleet
   runs [Fleet.default_config], what [cmsfleet] runs, with its shards
   capped at the host's domain count.  The seed is the only input.  Each
   workload is a closed loop: one process runs its programs one at a
   time, each cold on a fresh machine, in passes, until [--seconds] have
   gone by and the workload's tail percentile has at least ten samples
   beyond it.  With [--trace 0] the last line of standard output is the
   end-to-end result; with [--trace 1] it is the per-layer result
   ({!Layers}).  The runner script adds [peak_rss_mb]. *)

module Suite = Workloads.Suite
module Progs_kernel = Workloads.Progs_kernel
module Fleet = Cms_fleet.Fleet
module Share = Cms_fleet.Share
module Journal = Cms_persist.Journal
module Snapshot = Cms_persist.Snapshot
module Tstore = Cms_persist.Tstore
module Digests = Cms_persist.Digests

let now = Unix.gettimeofday

(* CPU seconds used by the whole process (every domain: the engine, the
   background translator, fleet shards).  The end-to-end times use this
   clock: on a shared host the wall clock also counts time the
   hypervisor or other tenants hold the CPU. *)
external cpu : unit -> float = "cmsbench_process_cpu"

(* A run stops starting new passes after this long, whatever its
   sample counts, so that it always ends well inside its time limit. *)
let hard_stop_s = 140.

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p xs =
  match sorted xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Programs and their independent references                           *)
(* ------------------------------------------------------------------ *)

let steady_programs () = Workloads.Progs_spec.all @ Workloads.Progs_apps.all

let coldstart_programs () =
  Workloads.Progs_boot.all @ Workloads.Progs_quake.all
  @ [ Workloads.Progs_quake.blt_driver () ]

(* Timer-driven programs are compared by their EAX checksum, the others
   by their whole architectural digest: interrupt delivery lands on
   consistent exits, so timer-driven memory legitimately differs between
   translation tilings (the policy the AOT differential uses). *)
let reference_of (w : Suite.t) c =
  if w.Suite.uses_timer then
    Printf.sprintf "eax\t%08x" (Cms.gpr c X86.Regs.eax)
  else "arch\t" ^ Digests.arch_hex (Digests.arch c)

(* The reference lines, from interpreter-only runs. *)
let gen_refs () =
  List.map
    (fun (w : Suite.t) ->
      let c = Suite.prepare ~cfg:Cms.interp_only_cfg w in
      match Cms.run ~max_insns:w.Suite.max_insns c with
      | Cms.Engine.Halted -> w.Suite.name ^ "\t" ^ reference_of w c
      | Cms.Engine.Insn_limit ->
          failwith (w.Suite.name ^ ": interpreter-only run hit its limit"))
    (steady_programs () @ coldstart_programs ())

let refs_header =
  [
    "# Independent output references for the steady and coldstart programs.";
    "# One line per program: name, kind, value (tab-separated), from";
    "# interpreter-only runs (Cms.interp_only_cfg).  kind = arch: the";
    "# Digests.arch_hex digest; kind = eax: the EAX checksum (timer-driven).";
    "# Regenerate: python3 perfbench/run.py --gen-refs";
  ]

let refs_path = "perfbench/refs.txt"

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let ref_body lines =
  List.filter (fun l -> l <> "" && l.[0] <> '#') lines

let load_refs () =
  let h = Hashtbl.create 32 in
  List.iter
    (fun l ->
      match String.index_opt l '\t' with
      | Some i ->
          Hashtbl.replace h (String.sub l 0 i)
            (String.sub l (i + 1) (String.length l - i - 1))
      | None -> failwith ("malformed reference line: " ^ l))
    (ref_body (read_lines refs_path));
  h

let check_refs () =
  let have = ref_body (read_lines refs_path) and want = gen_refs () in
  if have = want then (
    print_endline "refs: regenerated references match";
    0)
  else begin
    let only xs ys tag =
      List.iter
        (fun l -> if not (List.mem l ys) then print_endline (tag ^ l))
        xs
    in
    only want have "+ ";
    only have want "- ";
    print_endline "refs: MISMATCH";
    1
  end

(* ------------------------------------------------------------------ *)
(* One program execution                                               *)
(* ------------------------------------------------------------------ *)

type job = {
  label : string;  (** the determinism canary's key *)
  w : Suite.t;
  events : Journal.guest_event list;
  check : Cms.t -> string option;  (** output check; [Some why] = wrong *)
}

type exec = {
  elabel : string;
  wall : float;  (** timed [Cms.run] only *)
  cpu_s : float;  (** process CPU seconds of the same interval *)
  retired : int;
  canary : int array;
      (** retired, molecules, translations, interpreted insns,
          rollbacks, invalidations *)
  error : string option;
}

let canary_of c =
  let s = Cms.stats c and p = Cms.perf c in
  [|
    Cms.retired c;
    Cms.total_molecules c;
    s.Cms.Stats.translations;
    s.Cms.Stats.x86_interp;
    p.Vliw.Perf.rollbacks;
    s.Cms.Stats.invalidations;
  |]

let guarded f =
  match f () with
  | v -> Ok v
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception e -> Error (Printexc.to_string e)

(* Prepare (set-up), run (timed) and check one job; returns the set-up
   seconds and the execution.  With [trace], the layer hooks are
   installed before the clock starts and the translations it made are
   replayed after it stops. *)
let execute ?trace (j : job) =
  let t0 = cpu () in
  let c = Suite.prepare j.w in
  if j.events <> [] then
    ignore (Journal.install_guest c j.events : Journal.injector);
  let setup = cpu () -. t0 in
  let visible = ref false in
  c.Cms.Engine.on_rollback <-
    Some (fun () -> if Cms.Engine.speculation_visible c then visible := true);
  let probe = Option.map (fun a -> (a, Layers.attach a c)) trace in
  let sid = Layers.fresh_id () in
  let c1 = cpu () in
  let t1 = now () in
  let stop = guarded (fun () -> Cms.run ~max_insns:j.w.Suite.max_insns c) in
  let t2 = now () in
  let cpu_s = cpu () -. c1 in
  let wall = t2 -. t1 in
  let error =
    match stop with
    | Error e -> Some ("exception: " ^ e)
    | Ok Cms.Engine.Insn_limit -> Some "instruction limit reached"
    | Ok Cms.Engine.Halted ->
        if !visible then Some "speculative state visible after a rollback"
        else j.check c
  in
  (match probe with
  | Some (a, (p, flush)) ->
      flush ();
      Layers.add a "wall" wall;
      Layers.add_counters a c;
      ignore
        (Layers.record ~id:sid ~name:("exec:" ^ j.label) ~parent:(-1)
           ~run:a.Layers.run t1 t2
          : int);
      Layers.replay_translations a p ~parent:sid
  | None -> ());
  ( setup,
    {
      elabel = j.label;
      wall;
      cpu_s;
      retired = Cms.retired c;
      canary = canary_of c;
      error;
    } )

(* ------------------------------------------------------------------ *)
(* Workload inputs                                                     *)
(* ------------------------------------------------------------------ *)

let program_job refs (w : Suite.t) =
  {
    label = w.Suite.name;
    w;
    events = [];
    check =
      (fun c ->
        match Hashtbl.find_opt refs w.Suite.name with
        | None -> Some "no reference output"
        | Some want ->
            let got = reference_of w c in
            if got = want then None
            else Some (Printf.sprintf "output %S, reference %S" got want));
  }

let nic_drops c = (Cms.stats c).Cms.Stats.nic_rx_dropped

let kernel_check ~eax ~ebx c =
  let geax = Cms.gpr c X86.Regs.eax and gebx = Cms.gpr c X86.Regs.ebx in
  if geax <> eax || gebx <> ebx then
    Some
      (Printf.sprintf "EAX/EBX %#x/%d, expected %#x/%d" geax gebx eax ebx)
  else if nic_drops c > 0 then
    Some (Printf.sprintf "%d NIC drops" (nic_drops c))
  else None

(* RX-server traffic: frame lengths and arrival gaps are fixed
   multisets (lengths 1..48 bytes; gaps log-spaced from heavy, 400
   retired insns, to light, 15 000), put in a seeded order; the frame
   bytes are seeded.  Fixing the multisets keeps the work per pass the
   same across seeds while the order and contents vary. *)
let storm_frames = 120

let storm_traffic seed =
  let rng = Random.State.make [| seed; 0x5707 |] in
  let n = storm_frames in
  let lens = shuffle rng (List.init n (fun i -> 1 + (i * 47 / (n - 1)))) in
  let frames =
    List.map
      (fun len ->
        String.init len (fun _ -> Char.chr (Random.State.int rng 256)))
      lens
  in
  let gap i =
    int_of_float
      (400.
      *. ((15_000. /. 400.) ** ((float_of_int i +. 0.5) /. float_of_int n)))
  in
  let gaps = shuffle rng (List.init n gap) in
  let at = ref 2_000 in
  let events =
    List.map2
      (fun g data ->
        at := !at + g;
        Journal.Pkt { at = !at; data })
      gaps frames
  in
  (frames, events)

let storm_jobs seed =
  let frames, events = storm_traffic seed in
  let eax, ebx = Progs_kernel.rx_expected frames in
  let kernel (w : Suite.t) =
    {
      label = w.Suite.name;
      w;
      events = [];
      check =
        kernel_check ~eax:(Option.get w.Suite.expected_eax)
          ~ebx:(Progs_kernel.expected_calls w);
    }
  in
  let rx = Progs_kernel.kernel_rx frames in
  { label = rx.Suite.name; w = rx; events; check = kernel_check ~eax ~ebx }
  :: List.map kernel Progs_kernel.all

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  canaries : (string, int array) Hashtbl.t;
  check_canary : bool;
}

let tally ~check_canary =
  { attempted = 0; failed = 0; canaries = Hashtbl.create 32; check_canary }

let fail_msg what why = Printf.eprintf "FAILED %s: %s\n%!" what why

(* Count one execution, checking the determinism canary: the cost-model
   counters of a program must repeat exactly in every pass, traced or
   not. *)
let count t (e : exec) =
  t.attempted <- t.attempted + 1;
  let error =
    match e.error with
    | Some _ -> e.error
    | None when not t.check_canary -> None
    | None -> (
        match Hashtbl.find_opt t.canaries e.elabel with
        | None ->
            Hashtbl.replace t.canaries e.elabel e.canary;
            None
        | Some c when c = e.canary -> None
        | Some c ->
            let show a =
              String.concat "," (Array.to_list (Array.map string_of_int a))
            in
            Some
              (Printf.sprintf
                 "determinism canary: counters [%s] differ from [%s] \
                  (retired, molecules, translations, interpreted, \
                  rollbacks, invalidations)"
                 (show e.canary) (show c)))
  in
  match error with
  | None -> ()
  | Some why ->
      t.failed <- t.failed + 1;
      fail_msg e.elabel why

(* JSON has no NaN or infinity; a ratio whose base is missing reads 0 *)
let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit t metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (k, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (json_num v) u)
         metrics)
  in
  List.iter
    (fun (k, v, u) -> Printf.printf "  %-32s %14.6g %s\n" k v u)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (t.failed = 0 && t.attempted > 0) t.attempted t.failed m

(* ------------------------------------------------------------------ *)
(* Run loop                                                            *)
(* ------------------------------------------------------------------ *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;
}

(* Tail percentile of per-execution CPU ns/insn, fixed per workload so
   that runs with different sample counts compare, together with the
   minimum sample count that leaves at least ten samples beyond it.  A
   pass runs every program once, so the sorted samples fall into one
   cluster per program; each percentile sits inside a cluster rather
   than on a boundary between two (p75 of 18 or 10 programs, p90 of 3),
   which keeps it from jumping between programs from run to run.  A
   fleet execution is one sample. *)
let tail_spec = function
  | "steady" -> (75., 40)
  | "coldstart" -> (75., 40)
  | "storm" -> (90., 100)
  | "fleet" -> (50., 20)
  | w -> failwith ("unknown workload " ^ w)

(* Run passes until [seconds] have gone by and [enough ()] holds; at
   least [min_passes]. *)
let loop o ~min_passes ~enough pass =
  let start = now () in
  let rec go i =
    pass i;
    let elapsed = now () -. start in
    let more =
      if o.quick then i + 1 < min_passes
      else
        elapsed < hard_stop_s
        && (i + 1 < min_passes || elapsed < o.seconds || not (enough ()))
    in
    if more then go (i + 1)
  in
  go 0

(* Host ns per retired instruction of a typical pass: each program's
   median time over the run's passes, summed, over the retired
   instructions of one pass.  [time] picks the clock. *)
let ns_per_insn time (execs : exec list) =
  let by = Hashtbl.create 32 in
  List.iter
    (fun e ->
      let ts, rs =
        Option.value ~default:([], []) (Hashtbl.find_opt by e.elabel)
      in
      Hashtbl.replace by e.elabel (time e :: ts, float_of_int e.retired :: rs))
    execs;
  let t = ref 0. and r = ref 0. in
  Hashtbl.iter
    (fun _ (ts, rs) ->
      t := !t +. median ts;
      r := !r +. median rs)
    by;
  1e9 *. !t /. !r

let e2e_metrics o ~execs ~setups ~mpi =
  let p, _ = tail_spec o.workload in
  let samples =
    List.map (fun e -> 1e9 *. e.cpu_s /. float_of_int (max 1 e.retired)) execs
  in
  Printf.printf
    "%s seed %d: %d executions; cpu_ns_per_insn_tail is p%.0f of %d samples; \
     wall ns/insn %.2f\n"
    o.workload o.seed (List.length execs) p (List.length samples)
    (ns_per_insn (fun e -> e.wall) execs);
  [
    ("cpu_ns_per_insn", ns_per_insn (fun e -> e.cpu_s) execs, "ns/insn");
    ("cpu_ns_per_insn_tail", percentile p samples, "ns/insn");
    ("mpi", mpi, "molecules/insn");
    ("setup_s", median setups, "s");
  ]

let report_failed t =
  Printf.printf "failed_frac = %d/%d = %g\n" t.failed t.attempted
    (float_of_int t.failed /. float_of_int (max 1 t.attempted))

(* steady, coldstart, storm: passes of cold program executions. *)
let run_programs o ~make_jobs =
  let t = tally ~check_canary:true in
  let _, min_samples = tail_spec o.workload in
  let untraced = ref [] and setups = ref [] in
  let traced = ref [] and accs = ref [] in
  let pass i =
    let t0 = cpu () in
    let jobs = make_jobs i in
    let setup = ref (cpu () -. t0) in
    (* the traced run alternates untraced and traced passes *)
    let acc =
      if o.trace && i mod 2 = 1 then Some (Layers.acc_create i) else None
    in
    List.iter
      (fun j ->
        let s, e = execute ?trace:acc j in
        setup := !setup +. s;
        count t e;
        (* collect the dead machine between executions (untimed), so the
           peak RSS is one machine's footprint, not GC pacing *)
        Gc.full_major ();
        match acc with
        | Some _ -> traced := e :: !traced
        | None -> untraced := e :: !untraced)
      jobs;
    setups := !setup :: !setups;
    Option.iter (fun a -> accs := a :: !accs) acc
  in
  let enough () = o.trace || List.length !untraced >= min_samples in
  loop o ~min_passes:(if o.trace then 2 else 1) ~enough pass;
  report_failed t;
  if not o.trace then begin
    let first = Hashtbl.create 32 in
    List.iter (fun e -> Hashtbl.replace first e.elabel e.canary) !untraced;
    let mol = ref 0 and ret = ref 0 in
    Hashtbl.iter
      (fun _ c ->
        ret := !ret + c.(0);
        mol := !mol + c.(1))
      first;
    let mpi = float_of_int !mol /. float_of_int (max 1 !ret) in
    emit t (e2e_metrics o ~execs:!untraced ~setups:!setups ~mpi)
  end
  else begin
    let ns_u = ns_per_insn (fun e -> e.cpu_s) !untraced
    and ns_t = ns_per_insn (fun e -> e.cpu_s) !traced in
    let overhead = (ns_t /. ns_u) -. 1. in
    let per_pass =
      List.map
        (fun a -> Layers.derive a ~wall:(Layers.get a "wall") ~extra:[])
        !accs
    in
    let layer =
      List.map
        (fun (k, u) ->
          let v =
            if k = "trace.overhead_frac" then overhead
            else median (List.map (List.assoc k) per_pass)
          in
          (k, v, u))
        Layers.metrics
    in
    emit t layer
  end

(* ------------------------------------------------------------------ *)
(* Fleet                                                               *)
(* ------------------------------------------------------------------ *)

let fleet_cfg =
  {
    Fleet.default_config with
    Fleet.shards =
      min Fleet.default_config.Fleet.shards
        (Domain.recommended_domain_count ());
  }

let frames_of (spec : Fleet.spec) =
  List.filter_map
    (function Journal.Pkt { data; _ } -> Some data | _ -> None)
    spec.Fleet.s_events

(* Check one machine's report of a [Fleet.run] independently of the
   fleet's own checks. *)
let check_report t (spec : Fleet.spec) (r : Fleet.report) =
  t.attempted <- t.attempted + 1;
  let eax, ebx = Progs_kernel.rx_expected (frames_of spec) in
  let drops =
    match r.Fleet.r_stats with Some s -> s.Cms.Stats.nic_rx_dropped | None -> 0
  in
  let why =
    if r.Fleet.r_status <> Fleet.Healthy then
      Some ("machine " ^ Fleet.status_name r.Fleet.r_status)
    else if r.Fleet.r_divergence <> None then r.Fleet.r_divergence
    else if r.Fleet.r_spec_violations > 0 then
      Some "speculative state visible after a rollback"
    else if r.Fleet.r_eax <> eax || r.Fleet.r_ebx <> ebx then
      Some
        (Printf.sprintf "EAX/EBX %#x/%d, expected %#x/%d" r.Fleet.r_eax
           r.Fleet.r_ebx eax ebx)
    else if drops > 0 then Some (Printf.sprintf "%d NIC drops" drops)
    else None
  in
  match why with
  | None -> ()
  | Some w ->
      t.failed <- t.failed + 1;
      fail_msg (Printf.sprintf "fleet machine %d" r.Fleet.r_id) w

(* One [Fleet.run] on a fresh store: (wall, process CPU, totals). *)
let fleet_exec t specs ~shards =
  let store = Tstore.create () in
  let c0 = cpu () in
  let t0 = now () in
  let fcfg = { fleet_cfg with Fleet.shards } in
  match guarded (fun () -> Fleet.run ~store fcfg specs) with
  | Ok totals ->
      let wall = now () -. t0 in
      let cpu_s = cpu () -. c0 in
      Gc.full_major ();
      List.iter2 (check_report t) specs totals.Fleet.t_reports;
      Some (wall, cpu_s, totals)
  | Error e ->
      t.attempted <- t.attempted + List.length specs;
      t.failed <- t.failed + List.length specs;
      fail_msg "fleet run" e;
      None

(* One machine through the public calls [Fleet.run_machine] makes:
   prepare, journal install, store attach, the rollback probe, periodic
   checkpoints.  [Fleet.run] reports [Stats] but not the executed
   molecules, so the fleet's [mpi] comes from this replay; with [trace]
   it is also where the fleet's layers are timed.  Returns (molecules,
   retired, wall of prepare + run + mirror). *)
let replay_machine t ?trace ~store (spec : Fleet.spec) =
  t.attempted <- t.attempted + 1;
  let label = Printf.sprintf "m%d" spec.Fleet.s_id in
  let sid = Layers.fresh_id () in
  let t0 = now () in
  let c = Suite.prepare ~cfg:fleet_cfg.Fleet.engine_cfg spec.Fleet.s_workload in
  let injector = Journal.install_guest c spec.Fleet.s_events in
  ignore (Share.attach c store : Share.t);
  let visible = ref false in
  c.Cms.Engine.on_rollback <-
    Some (fun () -> if Cms.Engine.speculation_visible c then visible := true);
  let every = fleet_cfg.Fleet.checkpoint_every in
  let probe =
    match trace with
    | None ->
        ignore (Snapshot.arm ~label ~injector c ~every : Snapshot.checkpointer);
        None
    | Some a ->
        Layers.wrap_share a c ~parent:sid;
        Layers.arm_checkpoints a ~injector ~label c ~every ~parent:sid;
        Some (a, Layers.attach a c)
  in
  let max_insns = spec.Fleet.s_workload.Suite.max_insns in
  let t1 = now () in
  let stop =
    match trace with
    | Some a ->
        Layers.with_verify_counted a (fun () ->
            guarded (fun () -> Cms.run ~max_insns c))
    | None -> guarded (fun () -> Cms.run ~max_insns c)
  in
  let t2 = now () in
  let eax, ebx = Progs_kernel.rx_expected (frames_of spec) in
  let why =
    match stop with
    | Error e -> Some ("exception: " ^ e)
    | Ok Cms.Engine.Insn_limit -> Some "instruction limit reached"
    | Ok Cms.Engine.Halted ->
        if !visible then Some "speculative state visible after a rollback"
        else kernel_check ~eax ~ebx c
  in
  let mirror_end =
    match probe with
    | None -> t2
    | Some (a, (p, flush)) ->
        let mirror =
          Layers.timed a ~name:"fleet.mirror_s" ~parent:sid (fun () ->
              Fleet.run_solo ~cfg:Fleet.interp_cfg spec)
        in
        let t3 = now () in
        flush ();
        Layers.add a "wall" (t2 -. t1);
        Layers.add_counters a c;
        ignore
          (Layers.record ~id:sid ~name:("machine:" ^ label) ~parent:(-1)
             ~run:a.Layers.run t1 t2
            : int);
        Layers.replay_translations a p ~parent:sid;
        (match mirror with
        | Ok (m_eax, m_ebx, _) when m_eax = eax && m_ebx = ebx -> ()
        | _ -> fail_msg label "solo mirror disagrees");
        t3
  in
  (match why with
  | None -> ()
  | Some w ->
      t.failed <- t.failed + 1;
      fail_msg label w);
  (Cms.total_molecules c, Cms.retired c, mirror_end -. t0)

let run_fleet o =
  Fleet.ensure_verifier ();
  let t = tally ~check_canary:false in
  let _, min_samples = tail_spec "fleet" in
  let gen () =
    let t0 = cpu () in
    let specs = Fleet.traffic_specs ~seed:o.seed ~machines:4 in
    (specs, cpu () -. t0)
  in
  let setups = ref [] and samples = ref [] and accs = ref [] in
  if o.trace then Layers.wrap_verifier ();
  let pass i =
    let specs, setup = gen () in
    setups := setup :: !setups;
    match fleet_exec t specs ~shards:fleet_cfg.Fleet.shards with
    | None -> ()
    | Some (wall, cpu_s, totals) ->
        samples :=
          {
            elabel = "fleet";
            wall;
            cpu_s;
            retired = totals.Fleet.t_retired;
            canary = [||];
            error = None;
          }
          :: !samples;
        if o.trace then begin
          let a = Layers.acc_create i in
          let one =
            match fleet_exec t specs ~shards:1 with
            | Some (w1, _, _) -> w1
            | None -> nan
          in
          let store = Tstore.create () in
          let replay_wall =
            List.fold_left
              (fun s spec ->
                let _, _, w = replay_machine t ~trace:a ~store spec in
                s +. w)
              0. specs
          in
          let extra =
            [
              ("fleet.shard_speedup", one /. wall);
              ("fleet.restarts", float_of_int totals.Fleet.t_restarts);
              ("trace.overhead_frac", (replay_wall /. one) -. 1.);
            ]
          in
          accs := Layers.derive a ~wall:(Layers.get a "wall") ~extra :: !accs
        end
  in
  let enough () = o.trace || List.length !samples >= min_samples in
  loop o ~min_passes:1 ~enough pass;
  report_failed t;
  if not o.trace then begin
    (* the counting replay, on a fresh store, in machine order *)
    let specs, _ = gen () in
    let store = Tstore.create () in
    let mol, ret =
      List.fold_left
        (fun (m, r) spec ->
          let m', r', _ = replay_machine t ~store spec in
          (m + m', r + r'))
        (0, 0) specs
    in
    let mpi = float_of_int mol /. float_of_int (max 1 ret) in
    emit t (e2e_metrics o ~execs:!samples ~setups:!setups ~mpi)
  end
  else
    emit t
      (List.map
         (fun (k, u) -> (k, median (List.map (List.assoc k) !accs), u))
         Layers.metrics)

(* ------------------------------------------------------------------ *)
(* Entry                                                               *)
(* ------------------------------------------------------------------ *)

let bench o ~corrupt =
  let refs = load_refs () in
  if corrupt then begin
    (* self-test: one deliberately wrong reference must show up as
       failed executions *)
    let name = (List.hd (steady_programs ())).Suite.name in
    Hashtbl.replace refs name "arch\t00000000000000000000000000000000"
  end;
  let programs_pass progs i =
    let rng = Random.State.make [| o.seed; i |] in
    List.map (program_job refs) (shuffle rng (progs ()))
  in
  (match o.workload with
  | "steady" -> run_programs o ~make_jobs:(programs_pass steady_programs)
  | "coldstart" -> run_programs o ~make_jobs:(programs_pass coldstart_programs)
  | "storm" ->
      run_programs o ~make_jobs:(fun i ->
          shuffle (Random.State.make [| o.seed; i |]) (storm_jobs o.seed))
  | "fleet" -> run_fleet o
  | w -> failwith ("unknown workload " ^ w));
  if o.trace then begin
    let dir = "perfbench/out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path =
      Printf.sprintf "%s/spans-%s-seed%d.jsonl" dir o.workload o.seed
    in
    Layers.write_spans path;
    Printf.eprintf "spans written to %s\n%!" path
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and quick = ref false and corrupt = ref false in
  let mode = ref `Bench in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "steady|coldstart|storm|fleet");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measurement time");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer");
      ("--quick", Arg.Set quick, "one pass (self-test)");
      ("--corrupt-ref", Arg.Set corrupt, "corrupt one reference (self-test)");
      ("--gen-refs", Arg.Unit (fun () -> mode := `Gen), "print the references");
      ( "--check-refs",
        Arg.Unit (fun () -> mode := `Check),
        "regenerate the references and compare with the file" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "cmsbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match !mode with
  | `Gen ->
      List.iter print_endline refs_header;
      List.iter print_endline (gen_refs ())
  | `Check -> exit (check_refs ())
  | `Bench ->
      bench
        {
          workload = !workload;
          seed = !seed;
          seconds = !seconds;
          trace = !trace = 1;
          quick = !quick;
        }
        ~corrupt:!corrupt
