(* Outside-in per-layer tracing for the traced benchmark run.

   Nothing here changes the program: every number comes from the
   engine's public hooks ([on_boundary], [on_fresh_translation],
   [on_rollback], the fleet's [shared_source] seam, [Codegen.verify_hook]),
   from public counters read at those boundaries, and from timing calls
   into each layer's public functions.  The translator's phases run
   inside one [Codegen] call, so they are timed by replaying each fresh
   translation's captured inputs through [Lower], [Opt], [Sched],
   [Codegen] and [Vliw.Closure] after the execution ends. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  t0 : float;
  t1 : float;
  parent : int;  (** id of the enclosing span, [-1] at the top *)
  run : int;  (** the pass the span belongs to *)
}

(* Spans are only recorded from the main domain; kept in memory and
   written out once the benchmark ends. *)
let spans : span list ref = ref []
let next_id = ref 0

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

(* [id] is allocated up front when children must name their parent
   before the parent span ends. *)
let record ?(id = fresh_id ()) ~name ~parent ~run t0 t1 =
  spans := { id; name; t0; t1; parent; run } :: !spans;
  id

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"run\":%d}\n"
        s.id s.name s.t0 s.t1 s.parent s.run)
    (List.rev !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Per-pass accumulators                                               *)
(* ------------------------------------------------------------------ *)

type acc = { run : int; sums : (string, float) Hashtbl.t }

let acc_create run = { run; sums = Hashtbl.create 64 }
let get a k = Option.value ~default:0. (Hashtbl.find_opt a.sums k)
let add a k v = Hashtbl.replace a.sums k (v +. get a k)
let addi a k v = add a k (float_of_int v)

(* Time [f] as a span and add its duration to the sum named [name]. *)
let timed a ~name ~parent f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  ignore (record ~name ~parent ~run:a.run t0 t1 : int);
  add a name (t1 -. t0);
  r

(* ------------------------------------------------------------------ *)
(* Verifier: in-place time through the public hook                     *)
(* ------------------------------------------------------------------ *)

(* The background translator domain calls the hook too, so the counters
   are atomics.  Only calls made while [verify_live] is set count: the
   translator replay below re-runs the verifier and must not. *)
let verify_live = Atomic.make false
let verify_calls = Atomic.make 0
let verify_ns = Atomic.make 0
let verify_rejects = Atomic.make 0

let wrap_verifier () =
  match !Cms.Codegen.verify_hook with
  | None -> ()
  | Some v ->
      let count f =
        if not (Atomic.get verify_live) then f ()
        else begin
          let t0 = now () in
          let diags = f () in
          let dt = now () -. t0 in
          Atomic.incr verify_calls;
          let ns = int_of_float (dt *. 1e9) in
          ignore (Atomic.fetch_and_add verify_ns ns : int);
          if diags <> [] then Atomic.incr verify_rejects;
          diags
        end
      in
      Cms.Codegen.verify_hook :=
        Some
          {
            Cms.Codegen.lint_ir =
              (fun ~stage ~entry ~ir items ->
                count (fun () ->
                    v.Cms.Codegen.lint_ir ~stage ~entry ~ir items));
            verify_code =
              (fun ~cfg ~entry ~ninsns code ->
                count (fun () ->
                    v.Cms.Codegen.verify_code ~cfg ~entry ~ninsns code));
          }

(* Run [f] with the verifier counters live, adding their deltas to [a]. *)
let with_verify_counted a f =
  let c0 = Atomic.get verify_calls
  and n0 = Atomic.get verify_ns
  and r0 = Atomic.get verify_rejects in
  Atomic.set verify_live true;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set verify_live false;
      addi a "verify.calls" (Atomic.get verify_calls - c0);
      add a "verify.s" (float_of_int (Atomic.get verify_ns - n0) /. 1e9);
      addi a "verify.rejects" (Atomic.get verify_rejects - r0))
    f

(* ------------------------------------------------------------------ *)
(* One traced execution                                                *)
(* ------------------------------------------------------------------ *)

type fresh = {
  region : Cms.Region.t;
  policy : Cms.Policy.t;
  bytes_ : Bytes.t;
  code : Vliw.Code.t;
}

type probe = { c : Cms.t; fresh : fresh list ref }

(* Install the dispatch-boundary and fresh-translation hooks on [c],
   each composing with whatever is already installed.  At every
   boundary the clock is stamped and the retirement counters read: an
   interval in which only the interpreter's count moved is interpreter
   time.  Returns the probe and a function that adds the boundary sums
   to [a] once the execution ends. *)
let attach a (c : Cms.t) =
  let st = Cms.stats c and pf = Cms.perf c in
  let last_t = ref (now ()) in
  let last_interp = ref st.Cms.Stats.x86_interp in
  let last_commit = ref pf.Vliw.Perf.x86_committed in
  let last_trans = ref st.Cms.Stats.translations in
  let boundaries = ref 0 and interp_s = ref 0. and interp_insns = ref 0 in
  let prev = c.Cms.Engine.on_boundary in
  c.Cms.Engine.on_boundary <-
    Some
      (fun retired ->
        let t = now () in
        incr boundaries;
        let di = st.Cms.Stats.x86_interp - !last_interp in
        if
          di > 0
          && pf.Vliw.Perf.x86_committed = !last_commit
          && st.Cms.Stats.translations = !last_trans
        then begin
          interp_s := !interp_s +. (t -. !last_t);
          interp_insns := !interp_insns + di
        end;
        (* the hooks already installed (journal delivery, checkpoints)
           run outside every interval: they are timed as their own spans *)
        (match prev with Some f -> f retired | None -> ());
        last_t := now ();
        last_interp := st.Cms.Stats.x86_interp;
        last_commit := pf.Vliw.Perf.x86_committed;
        last_trans := st.Cms.Stats.translations);
  let fresh = ref [] in
  let prev_fresh = c.Cms.Engine.on_fresh_translation in
  c.Cms.Engine.on_fresh_translation <-
    Some
      (fun ~entry ~region ~policy ~bytes_ ~compiled ->
        (match prev_fresh with
        | Some f -> f ~entry ~region ~policy ~bytes_ ~compiled
        | None -> ());
        fresh :=
          { region; policy; bytes_; code = compiled.Cms.Codegen.code }
          :: !fresh);
  let flush () =
    addi a "boundaries" !boundaries;
    add a "interp.self_s" !interp_s;
    addi a "interp.insns" !interp_insns
  in
  ({ c; fresh }, flush)

(* Replay every captured translation through the translator's public
   phases, one span per phase under [parent]. *)
let replay_translations a { c; fresh } ~parent =
  let cfg = c.Cms.Engine.cfg in
  let exec = c.Cms.Engine.cpu.Cms.Cpu.exec in
  List.iter
    (fun f ->
      let policy = f.policy and region = f.region in
      addi a "translator.regions" 1;
      addi a "translator.replayed_insns" (Cms.Region.instruction_count region);
      let ir = timed a ~name:"translator.lower_s" ~parent (fun () ->
          Cms.Lower.lower ~policy region)
      in
      let items = Cms.Ir.items ir in
      let optr = timed a ~name:"translator.opt_s" ~parent (fun () ->
          Cms.Opt.run ir items)
      in
      let opts =
        {
          Cms.Sched.reorder =
            cfg.Cms.Config.enable_reorder && not policy.Cms.Policy.no_reorder;
          use_alias =
            cfg.Cms.Config.enable_alias_hw && not policy.Cms.Policy.no_alias;
          alias_slots = cfg.Cms.Config.alias_slots;
        }
      in
      let mols = timed a ~name:"translator.sched_s" ~parent (fun () ->
          Cms.Sched.schedule ~opts optr.Cms.Opt.items)
      in
      timed a ~name:"translator.regalloc_s" ~parent (fun () ->
          try Cms.Sched.regalloc mols with Cms.Sched.Regalloc_overflow -> ());
      (* the whole compile, exactly as the engine runs it (including
         the self-check injection and, when configured, the verifier) *)
      (try
         ignore
           (timed a ~name:"translator.compile_s" ~parent (fun () ->
                Cms.Codegen.compile_presnapped ~cfg ~policy ~bytes:f.bytes_
                  region)
             : Cms.Codegen.compiled)
       with Cms.Codegen.Too_big | Cms.Codegen.Verify_failed _ -> ());
      ignore
        (timed a ~name:"closure.compile_s" ~parent (fun () ->
             Vliw.Closure.compile exec f.code)
          : Vliw.Closure.t option))
    (List.rev !fresh)

(* Public counters of a finished execution, summed into the pass. *)
let add_counters a (c : Cms.t) =
  let s = Cms.stats c and p = Cms.perf c in
  let open Cms.Stats in
  List.iter
    (fun (k, v) -> addi a ("n." ^ k) v)
    [
      ("retired", Cms.retired c);
      ("x86_interp", s.x86_interp);
      ("x86_translated", p.Vliw.Perf.x86_committed);
      ("molecules", p.Vliw.Perf.molecules);
      ("rollbacks", p.Vliw.Perf.rollbacks);
      ("translations", s.translations);
      ("retranslations", s.retranslations);
      ("insns_translated", s.insns_translated);
      ("invalidations", s.invalidations);
      ("lookups", s.lookups);
      ("chained", s.chained_exits_taken);
      ("closures", s.closures_compiled);
      ("group_hits", s.group_hits);
      ("selfcheck_fails", s.selfcheck_fails);
      ("spec_faults", s.spec_faults);
      ("demotions", s.demotions);
      ("quarantines", s.quarantines);
      ("bg_installed", s.bg_installed);
      ("bg_overlap", s.bg_overlap_insns);
      ("bg_waits", s.bg_waits);
      ("irq_delivered", s.irq_delivered);
      ("irq_rollbacks", s.irq_rollbacks);
      ("nic_rx", s.nic_rx_frames);
      ("nic_drops", s.nic_rx_dropped);
      ("tlb_hits", s.tlb_hits);
      ("tlb_misses", s.tlb_misses);
      ("dcache_hits", s.dcache_hits);
      ("dcache_misses", s.dcache_misses);
      ("store_rejects", s.store_rejects);
    ]

(* ------------------------------------------------------------------ *)
(* Fleet seams                                                         *)
(* ------------------------------------------------------------------ *)

(* Time the two hooks [Share.attach] installed: the store consult and
   the publish seam. *)
let wrap_share a (c : Cms.t) ~parent =
  (match c.Cms.Engine.shared_source with
  | None -> ()
  | Some f ->
      c.Cms.Engine.shared_source <-
        Some
          (fun ~entry ~region ~policy ~bytes_ ->
            addi a "store.consults" 1;
            let r =
              timed a ~name:"store.consult_s" ~parent (fun () ->
                  f ~entry ~region ~policy ~bytes_)
            in
            if Option.is_some r then addi a "store.hits" 1;
            r));
  match c.Cms.Engine.on_fresh_translation with
  | None -> ()
  | Some f ->
      c.Cms.Engine.on_fresh_translation <-
        Some
          (fun ~entry ~region ~policy ~bytes_ ~compiled ->
            timed a ~name:"store.publish_s" ~parent (fun () ->
                f ~entry ~region ~policy ~bytes_ ~compiled))

(* Periodic checkpointing, as [Snapshot.arm] does it, with each
   [Snapshot.capture] timed. *)
let arm_checkpoints a ?injector ~label (c : Cms.t) ~every ~parent =
  let last = ref 0 in
  let prev = c.Cms.Engine.on_boundary in
  c.Cms.Engine.on_boundary <-
    Some
      (fun retired ->
        (match prev with Some f -> f retired | None -> ());
        if retired - !last >= every then begin
          let img =
            timed a ~name:"snapshot.capture_s" ~parent (fun () ->
                Cms_persist.Snapshot.capture ~label ?injector c)
          in
          addi a "snapshot.captures" 1;
          addi a "snapshot.bytes" (String.length img);
          last := retired
        end)

(* ------------------------------------------------------------------ *)
(* Derived per-layer metrics                                           *)
(* ------------------------------------------------------------------ *)

(* name, unit: the order the benchmark prints them in *)
let metrics =
  [
    ("engine.boundaries_per_kinsn", "1/kinsn");
    ("engine.chain_hit_ratio", "ratio");
    ("engine.lookups_per_kinsn", "1/kinsn");
    ("interp.insn_share", "ratio");
    ("interp.self_s", "s");
    ("interp.ns_per_insn", "ns/insn");
    ("interp.dcache_hit_ratio", "ratio");
    ("translator.regions", "count");
    ("translator.insns_per_kinsn", "1/kinsn");
    ("translator.retranslation_ratio", "ratio");
    ("translator.lower_s", "s");
    ("translator.opt_s", "s");
    ("translator.sched_s", "s");
    ("translator.regalloc_s", "s");
    ("translator.compile_s", "s");
    ("translator.us_per_insn", "us/insn");
    ("translator.share", "ratio");
    ("verify.calls", "count");
    ("verify.s", "s");
    ("verify.rejects", "count");
    ("closure.compiled", "count");
    ("closure.compile_s", "s");
    ("vliw.exec_s", "s");
    ("vliw.ns_per_insn", "ns/insn");
    ("vliw.molecules_per_insn", "molecules/insn");
    ("vliw.rollbacks_per_minsn", "1/Minsn");
    ("smc.invalidations", "count");
    ("smc.group_hits", "count");
    ("smc.selfcheck_fails", "count");
    ("adapt.spec_faults", "count");
    ("adapt.demotions", "count");
    ("adapt.quarantines", "count");
    ("bgtrans.install_ratio", "ratio");
    ("bgtrans.overlap_ratio", "ratio");
    ("bgtrans.waits", "count");
    ("irq.delivered_per_minsn", "1/Minsn");
    ("irq.rollbacks_per_minsn", "1/Minsn");
    ("nic.rx_frames", "count");
    ("nic.drops", "count");
    ("mmu.tlb_hit_ratio", "ratio");
    ("snapshot.captures", "count");
    ("snapshot.capture_s", "s");
    ("snapshot.ms_per_capture", "ms");
    ("snapshot.kb_per_capture", "kB");
    ("store.consults", "count");
    ("store.hit_ratio", "ratio");
    ("store.rejects", "count");
    ("store.consult_s", "s");
    ("store.publish_s", "s");
    ("fleet.mirror_s", "s");
    ("fleet.shard_speedup", "ratio");
    ("fleet.restarts", "count");
    ("trace.overhead_frac", "ratio");
  ]

let ratio a b = if b = 0. then 0. else a /. b

(* The subtracted spans of the [vliw.exec_s] residual. *)
let residual_spans =
  [
    "interp.self_s";
    "translator.compile_s";
    "closure.compile_s";
    "snapshot.capture_s";
    "store.consult_s";
    "store.publish_s";
  ]

(* Per-layer values of one traced pass.  [wall] is the traced execution
   wall of the pass; [extra] supplies the values measured outside the
   accumulator (fleet shard speed-up and restarts). *)
let derive a ~wall ~extra =
  let g = get a in
  let retired = g "n.retired" in
  let translated = g "n.x86_translated" in
  let exec_s =
    Float.max 0. (List.fold_left (fun w k -> w -. g k) wall residual_spans)
  in
  let v = function
    | "engine.boundaries_per_kinsn" -> ratio (1000. *. g "boundaries") retired
    | "engine.chain_hit_ratio" ->
        ratio (g "n.chained") (g "n.chained" +. g "n.lookups")
    | "engine.lookups_per_kinsn" -> ratio (1000. *. g "n.lookups") retired
    | "interp.insn_share" -> ratio (g "n.x86_interp") retired
    | "interp.self_s" -> g "interp.self_s"
    | "interp.ns_per_insn" ->
        ratio (1e9 *. g "interp.self_s") (g "interp.insns")
    | "interp.dcache_hit_ratio" ->
        ratio (g "n.dcache_hits") (g "n.dcache_hits" +. g "n.dcache_misses")
    | "translator.regions" -> g "translator.regions"
    | "translator.insns_per_kinsn" ->
        ratio (1000. *. g "n.insns_translated") retired
    | "translator.retranslation_ratio" ->
        ratio (g "n.retranslations") (g "n.translations")
    | ( "translator.lower_s" | "translator.opt_s" | "translator.sched_s"
      | "translator.regalloc_s" | "translator.compile_s" | "verify.calls"
      | "verify.s" | "verify.rejects" | "closure.compile_s"
      | "snapshot.captures" | "snapshot.capture_s" | "store.consults"
      | "store.consult_s" | "store.publish_s" | "fleet.mirror_s" ) as k ->
        g k
    | "translator.us_per_insn" ->
        ratio (1e6 *. g "translator.compile_s") (g "translator.replayed_insns")
    | "translator.share" -> ratio (g "translator.compile_s") wall
    | "closure.compiled" -> g "n.closures"
    | "vliw.exec_s" -> exec_s
    | "vliw.ns_per_insn" -> ratio (1e9 *. exec_s) translated
    | "vliw.molecules_per_insn" -> ratio (g "n.molecules") translated
    | "vliw.rollbacks_per_minsn" -> ratio (1e6 *. g "n.rollbacks") retired
    | "smc.invalidations" -> g "n.invalidations"
    | "smc.group_hits" -> g "n.group_hits"
    | "smc.selfcheck_fails" -> g "n.selfcheck_fails"
    | "adapt.spec_faults" -> g "n.spec_faults"
    | "adapt.demotions" -> g "n.demotions"
    | "adapt.quarantines" -> g "n.quarantines"
    | "bgtrans.install_ratio" -> ratio (g "n.bg_installed") (g "n.translations")
    | "bgtrans.overlap_ratio" -> ratio (g "n.bg_overlap") (g "n.x86_interp")
    | "bgtrans.waits" -> g "n.bg_waits"
    | "irq.delivered_per_minsn" -> ratio (1e6 *. g "n.irq_delivered") retired
    | "irq.rollbacks_per_minsn" -> ratio (1e6 *. g "n.irq_rollbacks") retired
    | "nic.rx_frames" -> g "n.nic_rx"
    | "nic.drops" -> g "n.nic_drops"
    | "mmu.tlb_hit_ratio" ->
        ratio (g "n.tlb_hits") (g "n.tlb_hits" +. g "n.tlb_misses")
    | "snapshot.ms_per_capture" ->
        ratio (1e3 *. g "snapshot.capture_s") (g "snapshot.captures")
    | "snapshot.kb_per_capture" ->
        ratio (g "snapshot.bytes" /. 1024.) (g "snapshot.captures")
    | "store.hit_ratio" -> ratio (g "store.hits") (g "store.consults")
    | "store.rejects" -> g "n.store_rejects"
    | k -> Option.value ~default:0. (List.assoc_opt k extra)
  in
  List.map (fun (k, _) -> (k, v k)) metrics
