(** The fleet supervisor: N guest machines, one shared warm store.

    Machines run the same workload image with different seeded inputs
    (the PR 9 RX-server kernel serving per-machine packet streams),
    sharded round-robin across OCaml domains.  All of them feed and
    drink from one {!Cms_persist.Tstore} through {!Share.attach}.

    Robustness is the contract, not a feature:

    - {b Containment boundary.}  Each machine runs inside its own
      [try]-scope: an injected death, a stall-watchdog trip, a chaos
      crash, or a speculation-visibility assertion only ever takes
      down that machine's current attempt — never the shard, never the
      fleet.
    - {b Supervised restart-from-snapshot.}  Every machine checkpoints
      itself at commit boundaries ({!Cms_persist.Snapshot.arm}); on
      death the supervisor resumes the last checkpoint
      ({!Cms_persist.Snapshot.resume}: restore, then the journal suffix
      from the snapshot's event cursors) and charges a capped
      exponential backoff penalty (molecules of dead air — device time
      keeps moving while the machine is down).
    - {b Quarantine ladder.}  A machine that keeps dying past
      [max_restarts] is permanently quarantined with its final cause,
      and forensics-bundled when a directory is configured.  Nothing
      is ever silently wedged: a run that stops retiring instructions
      is reaped by the instruction budget and treated as a watchdog
      trip.
    - {b Divergence detection.}  A surviving machine must reproduce
      its schedule-independent expected state — the RX kernel's EAX
      checksum and EBX syscall count, pure functions of its frame
      stream, computed by the generator.  Any mismatch is a
      cross-machine divergence finding.

    The fleet's parallelism is its shard domains; each engine
    translates synchronously on its own dispatch path. *)

module Journal = Cms_persist.Journal
module Trial = Cms_persist.Trial
module Snapshot = Cms_persist.Snapshot
module Tstore = Cms_persist.Tstore
module Forensics = Cms_persist.Forensics
module Suite = Workloads.Suite
module Progs_kernel = Workloads.Progs_kernel
module Chaos = Cms_robust.Chaos
module Fleetfault = Cms_robust.Fleetfault

exception Fault_injected of string
(** raised by the fault bombs {!Fleetfault} plants at dispatch
    boundaries; the supervisor's containment catches it *)

(* Stub: the benchmark harness (perfbench/cmsbench.ml) is its only
   caller, and ROADMAP item 1 removes it.  The verifier runs inside
   every compile, store hit and publication; there is nothing to
   install. *)
let ensure_verifier () = ()

(* ------------------------------------------------------------------ *)
(* Machine specs                                                       *)
(* ------------------------------------------------------------------ *)

type spec = {
  s_id : int;
  s_workload : Suite.t;
  s_events : Journal.guest_event list;
  s_expected_eax : int;
  s_expected_ebx : int;
  s_faults : Fleetfault.fault list;
  s_chaos_seed : int option;
}

let spec_of_plan ~id (mp : Fleetfault.machine_plan) =
  let frames = mp.Fleetfault.mp_frames in
  let w = Progs_kernel.kernel_rx frames in
  let eax, ebx = Progs_kernel.rx_expected frames in
  let events =
    List.map2
      (fun at data -> Journal.Pkt { at; data })
      mp.Fleetfault.mp_ats frames
  in
  {
    s_id = id;
    s_workload = w;
    s_events = events;
    s_expected_eax = eax;
    s_expected_ebx = ebx;
    s_faults = mp.Fleetfault.mp_faults;
    s_chaos_seed = mp.Fleetfault.mp_chaos_seed;
  }

(** Fault-free RX traffic for [n] machines: the default [cmsfleet]
    workload.  Every machine serves the same number of frames (the
    kernels are byte-identical, so the store shares), with per-machine
    seeded contents and arrival times. *)
let traffic_specs ~seed ~machines =
  let profile =
    {
      Fleetfault.default_profile with
      Fleetfault.fault_share = 0;
      chaos_share = 0;
      attack_share = 0;
    }
  in
  let rng = Srng.create seed in
  let nframes =
    Srng.range rng
      (fst profile.Fleetfault.nframes)
      (snd profile.Fleetfault.nframes)
  in
  List.init machines (fun id ->
      spec_of_plan ~id (Fleetfault.gen_machine (Srng.split rng) profile ~nframes))

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  shards : int;  (** OCaml domains; machines assigned round-robin *)
  checkpoint_every : int;  (** retired insns between snapshots *)
  max_restarts : int;  (** restarts before permanent quarantine *)
  backoff_base : int;  (** molecules charged at the first restart *)
  backoff_cap : int;  (** ladder ceiling *)
  engine_cfg : Cms.Config.t;
  forensics : string option;  (** bundle directory for failures *)
}

(* Full production pipeline per machine. *)
let engine_cfg = Cms.Config.default

let default_config =
  {
    shards = 2;
    checkpoint_every = 20_000;
    max_restarts = 3;
    backoff_base = 1_000;
    backoff_cap = 64_000;
    engine_cfg;
    forensics = None;
  }

(* The interpreter-only configuration of {!run_solo}: an alias, kept
   under this name for the harnesses that refer to it. *)
let interp_cfg = Cms.interp_only_cfg

(* ------------------------------------------------------------------ *)
(* One machine under supervision                                       *)
(* ------------------------------------------------------------------ *)

type status = Healthy | Restarted of int | Quarantined of string

let status_name = function
  | Healthy -> "healthy"
  | Restarted n -> Printf.sprintf "restarted(%d)" n
  | Quarantined c -> "quarantined: " ^ c

type report = {
  r_id : int;
  r_status : status;
  r_restarts : int;
  r_backoff : int;  (** final ladder position, in molecules *)
  r_kills : int;
  r_wedges : int;
  r_retired : int;
  r_eax : int;  (** -1 when quarantined *)
  r_ebx : int;
  r_spec_violations : int;
  r_divergence : string option;
  r_degraded : bool;  (** ran without a trusted shared store *)
  r_stats : Cms.Stats.t option;  (** final machine counters *)
}

(** Run one machine unsupervised on an engine of [cfg]: no store, no
    checkpoints, no faults.  Returns its EAX, EBX and whether any
    rollback left speculative state visible (the engine's check stops
    the run there, so a violation comes back as an [Error]).  The tests
    run it on {!interp_cfg} to check the interpreter against the
    generator's expected state. *)
let run_solo ~cfg (spec : spec) =
  let o, c =
    Trial.execute (Trial.of_suite spec.s_workload) ~cfg ~setup:(fun c ->
        ignore (Journal.install_guest c spec.s_events : Journal.injector))
  in
  match o.Trial.stop with
  | Trial.Halted ->
      Ok
        ( Cms.gpr c X86.Regs.eax,
          Cms.gpr c X86.Regs.ebx,
          o.Trial.spec_violation )
  | Trial.Limit -> Error "solo run hit the instruction limit"
  | Trial.Crash m -> Error m

let backoff_at (fcfg : config) n =
  if n <= 0 then 0
  else min fcfg.backoff_cap (fcfg.backoff_base * (1 lsl min 16 (n - 1)))

let run_machine ?store (fcfg : config) (spec : spec) : report =
  let label = Printf.sprintf "m%d" spec.s_id in
  let nf = List.length spec.s_faults in
  let fired = Array.make (max 1 nf) false in
  let kills = ref 0 and wedges = ref 0 in
  let spec_viol = ref 0 in
  (* the newest checkpoint of any attempt, frozen: sealed only when a
     restart restores it or forensics dumps it *)
  let checkpoint : Snapshot.frozen option ref = ref None in
  (* Chaos scrambles codegen-relevant capacities, so it must shape the
     config *before* the first boot: snapshots embed the config and
     restarts inherit it, keeping every attempt self-consistent. *)
  let run_cfg =
    match spec.s_chaos_seed with
    | Some seed -> Chaos.scramble_cfg (Srng.create seed) fcfg.engine_cfg
    | None -> fcfg.engine_cfg
  in
  let forensics reason =
    match fcfg.forensics with
    | None -> ()
    | Some dir ->
        ignore
          (Forensics.dump ~dir ~name:label ~reason
             ?checkpoint:(Option.map Snapshot.seal !checkpoint)
             ~journal:
               (Journal.unrecorded ~label:spec.s_workload.Suite.name
                  ~cfg:run_cfg spec.s_events)
             ()
            : Forensics.dump)
  in
  let install_bombs c =
    let prev = c.Cms.Engine.on_boundary in
    c.Cms.Engine.on_boundary <-
      Some
        (fun retired ->
          (match prev with Some f -> f retired | None -> ());
          List.iteri
            (fun i f ->
              match f with
              | Fleetfault.Kill { at } when (not fired.(i)) && retired >= at ->
                  fired.(i) <- true;
                  incr kills;
                  raise (Fault_injected "injected kill")
              | Fleetfault.Wedge { at } when (not fired.(i)) && retired >= at
                ->
                  fired.(i) <- true;
                  incr wedges;
                  raise (Fault_injected "stall-watchdog trip")
              | Fleetfault.Permafault { at } when retired >= at ->
                  incr kills;
                  raise (Fault_injected "persistent fault")
              | _ -> ())
            spec.s_faults)
  in
  let finish c restarts =
    let eax = Cms.gpr c X86.Regs.eax in
    let ebx = Cms.gpr c X86.Regs.ebx in
    let divergence =
      if eax <> spec.s_expected_eax then
        Some
          (Printf.sprintf "checksum diverged: expected %#x, got %#x"
             spec.s_expected_eax eax)
      else if ebx <> spec.s_expected_ebx then
        Some
          (Printf.sprintf "syscall count diverged: expected %d, got %d"
             spec.s_expected_ebx ebx)
      else None
    in
    (match divergence with Some d -> forensics d | None -> ());
    {
      r_id = spec.s_id;
      r_status = (if restarts = 0 then Healthy else Restarted restarts);
      r_restarts = restarts;
      r_backoff = backoff_at fcfg restarts;
      r_kills = !kills;
      r_wedges = !wedges;
      r_retired = Cms.retired c;
      r_eax = eax;
      r_ebx = ebx;
      r_spec_violations = !spec_viol;
      r_divergence = divergence;
      r_degraded = store = None;
      r_stats = Some (Cms.stats c);
    }
  in
  let quarantine c_opt restarts cause =
    forensics cause;
    {
      r_id = spec.s_id;
      r_status = Quarantined cause;
      r_restarts = restarts;
      r_backoff = backoff_at fcfg restarts;
      r_kills = !kills;
      r_wedges = !wedges;
      r_retired = (match c_opt with Some c -> Cms.retired c | None -> 0);
      r_eax = -1;
      r_ebx = -1;
      r_spec_violations = !spec_viol;
      r_divergence = None;
      r_degraded = store = None;
      r_stats = Option.map Cms.stats c_opt;
    }
  in
  let rec attempt n =
    (* boot or restore — itself inside the containment boundary: a
       corrupt checkpoint must quarantine the machine, not the shard *)
    match
      match (!checkpoint, n) with
      | Some frozen, n when n > 0 ->
          Snapshot.resume (Snapshot.seal frozen) spec.s_events
      | _ ->
          let c = Suite.prepare ~cfg:run_cfg spec.s_workload in
          (c, Journal.install_guest c spec.s_events)
    with
    | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
    | exception e ->
        quarantine None n ("boot/restore failed: " ^ Printexc.to_string e)
    | c, inj ->
        let penalty = backoff_at fcfg n in
        if penalty > 0 then Cms.Stats.charge (Cms.stats c) penalty;
        (match store with Some st -> ignore (Share.attach c st : Share.t) | None -> ());
        (match spec.s_chaos_seed with
        | Some seed ->
            (* fresh chaos stream per attempt, deterministically derived *)
            Chaos.install (Chaos.create (Srng.create (seed + (1 + n)))) c
        | None -> ());
        let ck =
          Snapshot.arm ~label ~injector:inj c ~every:fcfg.checkpoint_every
        in
        install_bombs c;
        let outcome =
          match Cms.run ~max_insns:spec.s_workload.Suite.max_insns c with
          | Cms.Engine.Halted -> Ok ()
          | Cms.Engine.Insn_limit ->
              incr wedges;
              Error "wedged: instruction budget exhausted (watchdog)"
          | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
          | exception Fault_injected cause -> Error cause
          | exception Cms.Engine.Speculation_visible ->
              incr spec_viol;
              Error "speculative state visible after rollback"
          | exception e -> Error ("crashed: " ^ Printexc.to_string e)
        in
        (* keep the newest checkpoint across attempts: [ck] freezes no
           more once [c] stops, so its latest stays valid *)
        (match ck.Snapshot.latest with
        | Some frozen -> checkpoint := Some frozen
        | None -> ());
        let report =
          match outcome with
          | Ok () -> Some (finish c n)
          | Error cause when n >= fcfg.max_restarts ->
              Some (quarantine (Some c) n cause)
          | Error _ -> None
        in
        (* [c] is finished: hand its RAM to the next machine, or to the
           next attempt's restore.  Nothing still uses it: [c] never escapes this
           function (the report holds ints and the [Stats] record), the
           store holds serialized blobs while the [Share] hooks hang off
           [c], and the checkpoint is frozen in its own buffer, not in
           [c]'s RAM. *)
        Cms.release c;
        (match report with Some r -> r | None -> attempt (n + 1))
  in
  attempt 0

(* ------------------------------------------------------------------ *)
(* The fleet                                                           *)
(* ------------------------------------------------------------------ *)

type totals = {
  t_machines : int;
  t_shards : int;
  t_healthy : int;
  t_restarted : int;
  t_quarantined : int;
  t_restarts : int;
  t_kills : int;
  t_wedges : int;
  t_max_backoff : int;
  t_divergences : int;
  t_spec_violations : int;
  t_retired : int;
  t_shard_retired : int array;
  t_degraded : int;
  t_stats : Cms.Stats.t;  (** every machine's final counters, summed *)
  t_reports : report list;  (** sorted by machine id *)
}

let aggregate ~shards (reports : report list) : totals =
  let reports = List.sort (fun a b -> compare a.r_id b.r_id) reports in
  let shard_retired = Array.make shards 0 in
  let stats = Cms.Stats.create () in
  let t =
    List.fold_left
      (fun t r ->
        let sh = r.r_id mod shards in
        shard_retired.(sh) <- shard_retired.(sh) + r.r_retired;
        Option.iter (Cms.Stats.add ~into:stats) r.r_stats;
        {
          t with
          t_healthy = (t.t_healthy + if r.r_status = Healthy then 1 else 0);
          t_restarted =
            (t.t_restarted
            + match r.r_status with Restarted _ -> 1 | _ -> 0);
          t_quarantined =
            (t.t_quarantined
            + match r.r_status with Quarantined _ -> 1 | _ -> 0);
          t_restarts = t.t_restarts + r.r_restarts;
          t_kills = t.t_kills + r.r_kills;
          t_wedges = t.t_wedges + r.r_wedges;
          t_max_backoff = max t.t_max_backoff r.r_backoff;
          t_divergences =
            (t.t_divergences + if r.r_divergence <> None then 1 else 0);
          t_spec_violations = t.t_spec_violations + r.r_spec_violations;
          t_retired = t.t_retired + r.r_retired;
          t_degraded = (t.t_degraded + if r.r_degraded then 1 else 0);
        })
      {
        t_machines = List.length reports;
        t_shards = shards;
        t_healthy = 0;
        t_restarted = 0;
        t_quarantined = 0;
        t_restarts = 0;
        t_kills = 0;
        t_wedges = 0;
        t_max_backoff = 0;
        t_divergences = 0;
        t_spec_violations = 0;
        t_retired = 0;
        t_shard_retired = shard_retired;
        t_degraded = 0;
        t_stats = stats;
        t_reports = reports;
      }
      reports
  in
  t

(** Run [specs] sharded round-robin across [fcfg.shards] domains.
    Each shard runs its machines sequentially; every machine is
    individually supervised by {!run_machine}. *)
let run ?store (fcfg : config) (specs : spec list) : totals =
  let shards = max 1 (min fcfg.shards (max 1 (List.length specs))) in
  let buckets = Array.make shards [] in
  List.iteri
    (fun i s -> buckets.(i mod shards) <- s :: buckets.(i mod shards))
    specs;
  let buckets = Array.map List.rev buckets in
  let run_bucket b () = List.map (fun s -> run_machine ?store fcfg s) b in
  (* The calling domain runs the first bucket itself instead of idling
     in [Domain.join]: a blocked joiner still takes part in every
     stop-the-world pause.  The spawned shards are joined even when the
     first bucket raises. *)
  let others =
    Array.map (fun b -> Domain.spawn (run_bucket b)) (Array.sub buckets 1 (shards - 1))
  in
  let joined = Array.make (shards - 1) (Ok []) in
  let join_all () =
    Array.iteri
      (fun k d -> joined.(k) <- (try Ok (Domain.join d) with e -> Error e))
      others
  in
  let first = Fun.protect ~finally:join_all (run_bucket buckets.(0)) in
  let rest =
    List.concat_map (function Ok r -> r | Error e -> raise e) (Array.to_list joined)
  in
  aggregate ~shards (first @ rest)

let pp_totals ppf (t : totals) =
  Fmt.pf ppf
    "fleet: %d machines on %d shards: %d healthy, %d restarted (%d restarts, \
     max backoff %d molecules), %d quarantined@.\
     faults: %d kills, %d wedges; %d divergences, %d speculation violations; \
     %d degraded@.\
     %a@.\
     retired: %d total, per shard [%s]"
    t.t_machines t.t_shards t.t_healthy t.t_restarted t.t_restarts
    t.t_max_backoff t.t_quarantined t.t_kills t.t_wedges t.t_divergences
    t.t_spec_violations t.t_degraded
    (Cms.Stats.pp_group "store") t.t_stats t.t_retired
    (String.concat ";"
       (Array.to_list (Array.map string_of_int t.t_shard_retired)))

(* ------------------------------------------------------------------ *)
(* Seeded fleet-chaos campaign                                         *)
(* ------------------------------------------------------------------ *)

(* Deterministic single-shard supervision for campaigns: store attacks
   interleave between machines at exact points, and the whole run is a
   pure function of the seed. *)
let campaign_config =
  {
    default_config with
    shards = 1;
    checkpoint_every = 8_000;
    max_restarts = 2;
    backoff_base = 500;
    backoff_cap = 8_000;
  }

type case_report = {
  c_idx : int;
  c_error : string option;
  c_fleet : totals;  (** the case's machines, by {!aggregate} *)
  c_attacks : string list;  (** what the store attacks actually did *)
  c_outcome : string;  (** per-machine outcome line, fingerprint input *)
}

(* The journal codec sits in the loop on every case: each machine's
   guest-event stream is serialized and re-parsed before installation,
   exactly as a recorded case would be replayed from disk. *)
let roundtrip_events ~cfg (spec : spec) =
  let j =
    Journal.roundtrip
      (Journal.unrecorded ~label:spec.s_workload.Suite.name ~cfg
         spec.s_events)
  in
  { spec with s_events = j.Journal.guest }

let run_case ?(fcfg = campaign_config) (plan : Fleetfault.plan) : case_report =
  let arng = Srng.create (0x5eed + plan.Fleetfault.p_idx) in
  let store = Tstore.create () in
  let specs =
    List.mapi (fun id mp -> spec_of_plan ~id mp) plan.Fleetfault.p_machines
    |> List.map (roundtrip_events ~cfg:fcfg.engine_cfg)
  in
  let degraded = ref false in
  let torn_accepted = ref false in
  let attacks = ref [] in
  let reports =
    List.mapi
      (fun i spec ->
        let store_opt = if !degraded then None else Some store in
        let r = run_machine ?store:store_opt fcfg spec in
        List.iter
          (fun (after, atk) ->
            if after = i then
              match Fleetfault.apply arng store atk with
              | Fleetfault.Applied d ->
                  attacks := d :: !attacks;
                  if atk = Fleetfault.Truncate_image then degraded := true
              | Fleetfault.Nothing -> ()
              | Fleetfault.Torn_accepted ->
                  attacks := "truncate-image ACCEPTED" :: !attacks;
                  torn_accepted := true)
          plan.Fleetfault.p_attacks;
        r)
      specs
  in
  let t = aggregate ~shards:1 reports in
  let has_perma (s : spec) =
    List.exists
      (function Fleetfault.Permafault _ -> true | _ -> false)
      s.s_faults
  in
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  if !torn_accepted then err "truncated store image was accepted";
  if t.t_divergences > 0 then err "%d cross-machine divergences" t.t_divergences;
  if t.t_spec_violations > 0 then
    err "%d speculation-visibility violations" t.t_spec_violations;
  List.iter2
    (fun (spec : spec) (r : report) ->
      match r.r_status with
      | Quarantined cause when not (has_perma spec) ->
          err "machine %d quarantined without a persistent fault: %s" r.r_id
            cause
      | _ -> ())
    specs reports;
  let outcome =
    String.concat "|"
      (List.map
         (fun r ->
           Printf.sprintf "%d:%s:%d:%x:%d:%b" r.r_id (status_name r.r_status)
             r.r_restarts r.r_eax r.r_ebx r.r_degraded)
         reports)
  in
  {
    c_idx = plan.Fleetfault.p_idx;
    c_error =
      (match List.rev !errors with
      | [] -> None
      | es -> Some (String.concat "; " es));
    c_fleet = t;
    c_attacks = List.rev !attacks;
    c_outcome = outcome;
  }

type campaign_totals = {
  cases : int;
  passed : int;
  failed : int;
  fleet : totals;  (** every machine of every case, by {!aggregate} *)
  attacks : int;
  failures : (int * string) list;  (** the first 20, newest first *)
  outcomes : string list;  (** per-case outcome lines, in case order *)
}

(** Campaign fingerprint: MD5 over every case's per-machine outcome
    lines — two campaigns from the same seed must produce identical
    fingerprints (RNG-free, schedule-independent replay). *)
let fingerprint (t : campaign_totals) =
  Digest.to_hex (Digest.string (String.concat "\n" t.outcomes))

let campaign ?(profile = Fleetfault.default_profile) ?(fcfg = campaign_config)
    ?on_case ~seed ~cases () =
  let rng = Srng.create seed in
  let acc = ref [] in
  for idx = 0 to cases - 1 do
    let plan = Fleetfault.gen_plan (Srng.split rng) profile idx in
    let r = run_case ~fcfg plan in
    acc := r :: !acc;
    match on_case with Some f -> f r | None -> ()
  done;
  let rs = List.rev !acc in
  let failures =
    List.filter_map (fun r -> Option.map (fun e -> (r.c_idx, e)) r.c_error) rs
  in
  {
    cases;
    passed = cases - List.length failures;
    failed = List.length failures;
    fleet =
      aggregate ~shards:1 (List.concat_map (fun r -> r.c_fleet.t_reports) rs);
    attacks = List.fold_left (fun n r -> n + List.length r.c_attacks) 0 rs;
    failures = List.rev (List.filteri (fun i _ -> i < 20) failures);
    outcomes = List.map (fun r -> r.c_outcome) rs;
  }

let pp_campaign ppf (t : campaign_totals) =
  let f = t.fleet in
  Fmt.pf ppf
    "fleet campaign: %d cases, %d passed, %d failed@.\
     machines: %d total, %d restarts, %d quarantined, %d kills, %d wedges, \
     %d degraded@.\
     checks: %d divergences, %d speculation violations@.\
     store: %d hits, %d rejects, %d quarantines, %d attacks landed@.\
     fingerprint: %s"
    t.cases t.passed t.failed f.t_machines f.t_restarts f.t_quarantined
    f.t_kills f.t_wedges f.t_degraded f.t_divergences f.t_spec_violations
    f.t_stats.Cms.Stats.store_hits f.t_stats.Cms.Stats.store_rejects
    f.t_stats.Cms.Stats.store_quarantines t.attacks (fingerprint t)
