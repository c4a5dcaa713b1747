(* Recovery-hardening tests: the engine's containment boundary, the
   demotion ladder's forward-progress guarantee, the stall watchdog,
   graceful tcache degradation (generational eviction with full flush
   as last resort), the bounded adaptive-policy table, and chaos-mode
   determinism.  The host-side attacks use the engine's chaos hooks
   directly where a test needs a deterministic 100% schedule, and
   {!Cms_robust.Chaos} where the seeded profile is itself under test. *)

module Chaos = Cms_robust.Chaos
module Journal = Cms_persist.Journal
module Tcache = Cms.Tcache
module Adapt = Cms.Adapt
module Suite = Workloads.Suite

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* A hot counting loop with a self-checking result                     *)
(* ------------------------------------------------------------------ *)

let loop_base = 0x1000

let loop_listing ~iters =
  X86.Asm.(
    assemble ~base:loop_base
      [
        mov_ri eax 0;
        mov_ri ebp iters;
        label "l";
        add_ri eax 3;
        xor_ri eax 0x55;
        dec_r ebp;
        jne "l";
        hlt;
      ])

let expected_eax ~iters =
  let v = ref 0 in
  for _ = 1 to iters do
    v := (!v + 3) lxor 0x55
  done;
  !v

let hot_cfg = { Cms.Config.default with Cms.Config.translate_threshold = 4 }

(* Run the loop to completion under [cfg]; [arm] installs the attack
   after boot.  Halting with the right checksum IS the forward-progress
   assertion — a recovery bug shows up as a wrong result or as the
   instruction limit. *)
let run_loop ?(arm = fun (_ : Cms.t) -> ()) ~iters cfg =
  let c = Cms.create ~cfg () in
  Cms.load c (loop_listing ~iters);
  Cms.boot c ~entry:loop_base;
  arm c;
  let stop = Cms.run ~max_insns:1_000_000 c in
  check cb "halted" true (stop = Cms.Engine.Halted);
  check ci "checksum" (expected_eax ~iters) (Cms.gpr c X86.Regs.eax);
  c

(* ------------------------------------------------------------------ *)
(* Containment boundary                                                *)
(* ------------------------------------------------------------------ *)

(* Every translation attempt dies with a host-side exception; the
   engine must absorb each one, fall back to interpretation, and after
   [translate_fail_limit] failures quarantine the entry so it stops
   paying for doomed attempts. *)
let test_containment () =
  let c =
    run_loop ~iters:400 hot_cfg ~arm:(fun c ->
        c.Cms.Engine.chaos <-
          Some
            {
              Cms.Engine.on_translate =
                (fun _ -> failwith "injected translator death");
              pre_exec = (fun _ -> None);
              irq_spoof = (fun () -> false);
            })
  in
  let s = Cms.stats c in
  check cb "exceptions contained" true (s.Cms.Stats.containments >= 1);
  check ci "nothing ever translated" 0 s.Cms.Stats.x86_translated;
  check cb "entry quarantined" true (s.Cms.Stats.quarantines >= 1);
  (* the failure budget bounds the attempts per entry.  Quarantining
     the loop head makes dispatch single-step past it, so successive
     loop-body instructions become hot entries in turn — each gets its
     own budget, and the cascade is bounded by the quarantine count *)
  check cb
    (Fmt.str "attempts stop at the budget (%d deaths, %d quarantines)"
       s.Cms.Stats.containments s.Cms.Stats.quarantines)
    true
    (s.Cms.Stats.containments
    <= (s.Cms.Stats.quarantines + 1)
       * Cms.Config.translate_fail_limit);
  check cb "quarantine fast path used" true (s.Cms.Stats.quarantined_steps > 0)

(* ------------------------------------------------------------------ *)
(* Demotion ladder: forward progress under a 100% fault schedule       *)
(* ------------------------------------------------------------------ *)

(* Every translation execution faults before its first molecule.  The
   per-entry escalation budget must climb full-opt → conservative →
   quarantine in a bounded number of rollbacks, after which the loop
   runs interpretively to the correct result. *)
let test_forward_progress () =
  let c =
    run_loop ~iters:400 hot_cfg ~arm:(fun c ->
        c.Cms.Engine.chaos <-
          Some
            {
              Cms.Engine.on_translate = (fun _ -> ());
              pre_exec = (fun _ -> Some (Vliw.Nexn.Alias_violation 0));
              irq_spoof = (fun () -> false);
            })
  in
  let s = Cms.stats c in
  check cb "entry quarantined" true (s.Cms.Stats.quarantines >= 1);
  (* each translation version absorbs at most spec_fault_limit faults
     before it is scrapped for one ladder rung; quarantine_limit rungs
     end the storm — the per-entry forward-progress bound.  The entry
     count is the quarantine count (plus one for an in-flight entry):
     single-stepping past a quarantined head hatches new hot entries
     from the loop body, each with its own budget *)
  check cb
    (Fmt.str "rollback storm bounded (%d faults, %d quarantines)"
       s.Cms.Stats.spec_faults s.Cms.Stats.quarantines)
    true
    (s.Cms.Stats.spec_faults
    <= (s.Cms.Stats.quarantines + 1)
       * Cms.Config.quarantine_limit * Cms.Config.spec_fault_limit);
  check cb "quarantine fast path used" true (s.Cms.Stats.quarantined_steps > 0)

(* ------------------------------------------------------------------ *)
(* The rollback check                                                  *)
(* ------------------------------------------------------------------ *)

(* The engine ends every rollback with [check_rollback]: a working
   register that differs from its committed copy is speculative state
   left visible. *)
let test_rollback_check () =
  let c = Cms.create () in
  Cms.Engine.check_rollback c;
  let regs = c.Cms.Engine.cpu.Cms.Cpu.exec.Vliw.Exec.regs in
  Vliw.Regfile.set regs 0 (Vliw.Regfile.get_committed regs 0 + 1);
  Alcotest.check_raises "dirty working register"
    Cms.Engine.Speculation_visible (fun () -> Cms.Engine.check_rollback c)

(* A chaos run heavy in injected pre-execution faults, on the
   preemptive round-robin kernel (its timer interrupts roll running
   translations back too): both of the engine's rollback sites fire,
   and the check after each one stays quiet. *)
let test_prefault_heavy_chaos () =
  let w = Workloads.Progs_kernel.kernel_rr in
  let c = Suite.prepare w in
  let profile = { Chaos.default_profile with Chaos.pre_fault = 400 } in
  Chaos.install (Chaos.create ~profile (Srng.create 3)) c;
  let c = Suite.run_prepared w c in
  let s = Cms.stats c in
  let rollbacks = (Cms.perf c).Vliw.Perf.rollbacks in
  check cb
    (Fmt.str "faults rolled back (%d rollbacks, %d on interrupts)" rollbacks
       s.Cms.Stats.irq_rollbacks)
    true
    (rollbacks > s.Cms.Stats.irq_rollbacks);
  check cb "interrupts rolled back" true (s.Cms.Stats.irq_rollbacks > 0)

(* ------------------------------------------------------------------ *)
(* Stall watchdog: spoofed interrupts with nothing to deliver          *)
(* ------------------------------------------------------------------ *)

(* Every in-translation poll reports a phantom IRQ: the translation
   exits at (or rolls back to) its entry commit point forever, retiring
   nothing.  The dispatcher's stall watchdog must notice the wedged
   boundary and force interpreter steps through it. *)
let test_spoof_storm_watchdog () =
  let c =
    run_loop ~iters:100 hot_cfg ~arm:(fun c ->
        c.Cms.Engine.chaos <-
          Some
            {
              Cms.Engine.on_translate = (fun _ -> ());
              pre_exec = (fun _ -> None);
              irq_spoof = (fun () -> true);
            })
  in
  let s = Cms.stats c in
  check cb "watchdog forced progress" true (s.Cms.Stats.progress_forces >= 1);
  check ci "spoofs delivered nothing" 0 s.Cms.Stats.irq_delivered

(* ------------------------------------------------------------------ *)
(* Seeded chaos profile (pressure-only) over the loop                  *)
(* ------------------------------------------------------------------ *)

let test_chaos_pressure_only () =
  let rng = Srng.create 42 in
  let ch = Chaos.create ~profile:Chaos.pressure_only rng in
  let fired = ref [] in
  let c =
    run_loop ~iters:400 hot_cfg ~arm:(fun c ->
        Chaos.install ~record:(fun ev -> fired := ev :: !fired) ch c)
  in
  let flushes =
    List.length
      (List.filter (function Journal.Flush _ -> true | _ -> false) !fired)
  in
  check cb "cache storms fired" true (!fired <> []);
  check cb "only cache storms fired" true
    (List.for_all
       (function Journal.Flush _ | Journal.Evict _ -> true | _ -> false)
       !fired);
  let s = Cms.stats c in
  check cb "flushes surfaced in stats" true
    (s.Cms.Stats.tcache_flushes >= flushes)

(* ------------------------------------------------------------------ *)
(* Tcache edge paths (unit level, synthetic records)                   *)
(* ------------------------------------------------------------------ *)

let mk_region ~entry =
  {
    Cms.Region.entry;
    insns = [||];
    cont = None;
    src_ranges = [ (entry, entry + 8) ];
  }

let default_policy = Cms.Policy.default Cms.Config.default

let insert ?(policy = default_policy) ?(src = Bytes.empty) tc ~entry =
  Tcache.insert tc ~entry
    ~code:(Cms.Codegen.zero_insn_code ~entry)
    ~region:(mk_region ~entry) ~policy ~src

let test_group_reactivation () =
  let tc = Tcache.create ~capacity:8 ~stats:(Cms.Stats.create ()) in
  let snap_a = Bytes.of_string "AAAA" and snap_b = Bytes.of_string "BBBB" in
  let v1 = insert tc ~entry:0x1000 ~src:snap_a in
  let v2 = insert tc ~entry:0x1000 ~src:snap_b in
  check ci "old version parked" 1 (Tcache.group_size tc ~entry:0x1000);
  check ci "both records held" 2 (Tcache.count tc);
  (match
     Tcache.group_match tc ~policy:default_policy
       ~region:(mk_region ~entry:0x1000) ~bytes:snap_a
   with
  | None -> Alcotest.fail "snapshot should have matched"
  | Some tr ->
      check ci "reactivated v1" v1.Tcache.id tr.Tcache.id;
      check cb "valid again" true tr.Tcache.valid;
      (match Tcache.lookup tc 0x1000 with
      | Some cur -> check ci "dispatch sees v1" v1.Tcache.id cur.Tcache.id
      | None -> Alcotest.fail "no current translation after reactivation");
      check ci "v2 parked in turn" 1 (Tcache.group_size tc ~entry:0x1000));
  (* eviction takes parked group members like anything else, and fires
     the hook for each so page protection can be released *)
  let evicted_ids = ref [] in
  tc.Tcache.on_evict <-
    (fun tr -> evicted_ids := tr.Tcache.id :: !evicted_ids);
  let n = Tcache.evict_coldest tc in
  check ci "coldest generation was the parked v2" 1 n;
  check cb "on_evict saw it" true (List.mem v2.Tcache.id !evicted_ids);
  check ci "group emptied" 0 (Tcache.group_size tc ~entry:0x1000);
  check ci "reactivated v1 survives" 1 (Tcache.count tc)

(* A group member's key is (entry, policy, region, source bytes).  One
   parked under a policy Adapt has since ratcheted never comes back,
   whatever its bytes, and the entry's next invalidation drops it; one
   asked for over another region shape does not come back either; a
   demotion, and an SMC invalidation right after a policy upgrade, drop
   their translation instead of parking it;
   and one entry keeps at most [Tcache.group_cap] members, dropping the
   one parked longest ago. *)
let test_group_policy_key_and_cap () =
  let c = Cms.create () in
  let tc = c.Cms.Engine.tcache
  and smc = c.Cms.Engine.smc
  and adapt = c.Cms.Engine.adapt in
  let policy entry = Cms.Adapt.get adapt entry in
  let mint entry src =
    insert tc ~entry ~policy:(policy entry) ~src:(Bytes.of_string src)
  in
  let reactivate entry src =
    Cms.Smc.reactivate smc ~policy:(policy entry) ~region:(mk_region ~entry)
      ~bytes:(Bytes.of_string src)
    |> Option.map (fun (tr : Tcache.trans) -> tr.Tcache.id)
  in
  let copt = Alcotest.(option int) in
  (* the policy moves on after parking *)
  let v1 = mint 0x1000 "v1" in
  Cms.Smc.invalidate smc v1;
  check ci "an SMC invalidation parks" 1 (Tcache.group_size tc ~entry:0x1000);
  Cms.Adapt.set_no_reorder adapt 0x1000;
  check copt "parked under the old policy: not reactivated" None
    (reactivate 0x1000 "v1");
  check ci "still parked" 1 (Tcache.group_size tc ~entry:0x1000);
  let v1' = mint 0x1000 "v1" in
  Cms.Smc.invalidate smc v1';
  check cb "the next invalidation drops the member the policy left" false
    (Hashtbl.mem tc.Tcache.by_id v1.Tcache.id);
  check ci "and parks the current one" 1 (Tcache.group_size tc ~entry:0x1000);
  check copt "the same bytes under the current policy are" (Some v1'.Tcache.id)
    (reactivate 0x1000 "v1");
  (* an SMC invalidation right after a policy upgrade drops *)
  let u = mint 0x5000 "u" in
  Cms.Adapt.set_self_check adapt 0x5000;
  Cms.Smc.invalidate smc u;
  check ci "minted under a policy the entry left: not parked" 0
    (Tcache.group_size tc ~entry:0x5000);
  (* same bytes and policy over another region shape *)
  let r = mint 0x4000 "r" in
  Cms.Smc.invalidate smc r;
  check cb "another region shape: not reactivated" true
    (Cms.Smc.reactivate smc ~policy:(policy 0x4000)
       ~region:{ (mk_region ~entry:0x4000) with Cms.Region.cont = Some 0x4008 }
       ~bytes:r.Tcache.src
    = None);
  check copt "the region it was minted for is" (Some r.Tcache.id)
    (reactivate 0x4000 "r");
  (* a demotion drops *)
  let d = mint 0x2000 "d" in
  Cms.Smc.invalidate ~cause:Tcache.Udemote smc d;
  check ci "a demotion does not park" 0 (Tcache.group_size tc ~entry:0x2000);
  check cb "a demotion drops" false (Hashtbl.mem tc.Tcache.by_id d.Tcache.id);
  (* the per-entry cap: 33 distinct versions of one entry *)
  let versions =
    List.init (Tcache.group_cap + 1) (fun i ->
        let tr = mint 0x3000 (Printf.sprintf "w%02d" i) in
        Cms.Smc.invalidate smc tr;
        check cb "group within its cap" true
          (Tcache.group_size tc ~entry:0x3000 <= Tcache.group_cap);
        tr)
  in
  check ci "group full" Tcache.group_cap (Tcache.group_size tc ~entry:0x3000);
  let first = List.nth versions 0 and second = List.nth versions 1 in
  check cb "the oldest member is dropped" false
    (Hashtbl.mem tc.Tcache.by_id first.Tcache.id);
  check copt "and cannot come back" None (reactivate 0x3000 "w00");
  check copt "the next oldest can" (Some second.Tcache.id)
    (reactivate 0x3000 "w01");
  check ci "one fewer parked" (Tcache.group_cap - 1)
    (Tcache.group_size tc ~entry:0x3000)

let test_flush_and_page_index () =
  let tc = Tcache.create ~capacity:8 ~stats:(Cms.Stats.create ()) in
  let shift = Machine.Mmu.page_shift in
  let v1 = insert tc ~entry:0x1000 in
  let _v2 = insert tc ~entry:0x5000 in
  check ci "page index live" 1
    (List.length (Tcache.on_page tc ~ppn:(0x1000 lsr shift)));
  (* generational eviction must drop the by-page index entries too —
     a stale one would invalidate a reused id on the next SMC hit *)
  let n = Tcache.evict_coldest tc in
  check ci "one record evicted" 1 n;
  check cb "evicted record dead" false v1.Tcache.valid;
  check ci "page index cleared by eviction" 0
    (List.length (Tcache.on_page tc ~ppn:(0x1000 lsr shift)));
  check ci "other page intact" 1
    (List.length (Tcache.on_page tc ~ppn:(0x5000 lsr shift)));
  let fired = ref 0 in
  tc.Tcache.on_flush <- (fun () -> incr fired);
  Tcache.flush tc;
  check ci "on_flush fired" 1 !fired;
  check ci "cache empty" 0 (Tcache.count tc);
  check cb "lookup misses after flush" true (Tcache.lookup tc 0x5000 = None)

let test_capacity_degradation () =
  let tc = Tcache.create ~capacity:4 ~stats:(Cms.Stats.create ()) in
  for i = 0 to 5 do
    ignore (insert tc ~entry:(0x1000 + (i * 0x100)))
  done;
  check cb "count stays bounded" true (Tcache.count tc <= 4);
  check ci "high-water mark" 4 tc.Tcache.hwm;
  let s = tc.Tcache.stats in
  check cb "colder generations evicted" true (s.Cms.Stats.tcache_evicted >= 1);
  check ci "no full flush while colder work exists" 0 s.Cms.Stats.tcache_flushes;
  (* last resort: when every held record is current-generation (all
     refreshed by dispatch hits), only the full flush can make room *)
  let tc2 = Tcache.create ~capacity:2 ~stats:(Cms.Stats.create ()) in
  ignore (insert tc2 ~entry:0x1000);
  ignore (insert tc2 ~entry:0x2000);
  ignore (Tcache.lookup tc2 0x1000);
  ignore (Tcache.lookup tc2 0x2000);
  ignore (insert tc2 ~entry:0x3000);
  check ci "full flush as last resort" 1
    tc2.Tcache.stats.Cms.Stats.tcache_flushes;
  check ci "only the new record held" 1 (Tcache.count tc2)

(* ------------------------------------------------------------------ *)
(* Bounded adaptive-policy table                                       *)
(* ------------------------------------------------------------------ *)

let test_adapt_bounded () =
  let cfg = { Cms.Config.default with Cms.Config.adapt_capacity = 4 } in
  let a = Adapt.create ~stats:(Cms.Stats.create ()) cfg in
  check cb "quarantine reported" true (Adapt.quarantine a 0x9000);
  for i = 0 to 9 do
    Adapt.set_no_reorder a (0x1000 + (i * 8))
  done;
  check cb "table bounded" true (Adapt.size a <= 4);
  check cb "evictions counted" true
    (a.Adapt.stats.Cms.Stats.adapt_evictions >= 6);
  (* eviction prefers non-quarantined victims: the forward-progress
     state must survive capacity pressure *)
  check cb "quarantine survives pressure" true (Adapt.quarantined a 0x9000);
  check cb "cold plain entry evicted instead" true (not (Adapt.hot a 0x1000));
  (* an SMC invalidation reads its entry's policy without touching it,
     so it does not change which entry the table evicts next *)
  let c =
    Cms.create ~cfg:{ Cms.Config.default with Cms.Config.adapt_capacity = 2 } ()
  in
  let a = c.Cms.Engine.adapt in
  Adapt.set_no_reorder a 0x1000;
  Adapt.set_no_reorder a 0x2000;
  let tr =
    insert c.Cms.Engine.tcache ~entry:0x1000 ~policy:(Adapt.peek a 0x1000)
  in
  Cms.Smc.invalidate c.Cms.Engine.smc tr;
  Adapt.set_no_reorder a 0x3000;
  check cb "the untouched coldest entry is evicted" false (Adapt.hot a 0x1000);
  check cb "the other survives" true (Adapt.hot a 0x2000)

(* ------------------------------------------------------------------ *)
(* Eviction differential over the workload suite                       *)
(* ------------------------------------------------------------------ *)

(* Architectural state only; stats legitimately differ under pressure.
   The stack pages are zeroed before digesting, as in the fuzz oracle:
   timer-interrupt delivery boundaries differ between translation
   shapes, leaving different dead bytes below ESP. *)
let arch (c : Cms.t) =
  let m = Cms.mem c in
  let bus = m.Machine.Mem.bus in
  let data = Machine.Phys.to_bytes m.Machine.Mem.phys in
  Bytes.fill data 0x70000 0x10000 '\x00';
  ( List.map (Cms.gpr c) X86.Regs.all,
    Cms.eip c,
    Cms.eflags c,
    Digest.bytes data,
    ( bus.Machine.Bus.mmio_reads,
      bus.Machine.Bus.mmio_writes,
      bus.Machine.Bus.port_ops,
      Cms.uart_output c ) )

(* Rerun each workload with the tcache capacity pinned just below the
   unconstrained run's high-water mark, forcing at least one graceful-
   degradation step; the result must be bit-identical. *)
let eviction_differential (w : Suite.t) () =
  let base = Suite.run ~cfg:Cms.Config.default w in
  let hwm = base.Cms.Engine.tcache.Tcache.hwm in
  if hwm >= 2 then begin
    let cfg =
      { Cms.Config.default with Cms.Config.tcache_capacity = hwm - 1 }
    in
    let tight = Suite.run ~cfg w in
    let s = Cms.stats tight in
    check cb
      (w.Suite.name ^ ": pressure exercised")
      true
      (s.Cms.Stats.tcache_evicted >= 1 || s.Cms.Stats.tcache_flushes >= 1);
    if Workloads.Progs_kernel.is_kernel w then begin
      (* Eviction moves commit boundaries, so timer delivery lands at
         different retired instants and the preemptive kernels take a
         different (equally valid) schedule: jiffies, cur_task and the
         PIC EOI counts legitimately differ.  The kernels' contract is
         the schedule-independent pair (EAX checksum, EBX syscall
         count), both already validated against the generator's mirror
         by [Suite.run]; pin them across the pressure flip here. *)
      let pair c = (Cms.gpr c X86.Regs.eax, Cms.gpr c X86.Regs.ebx) in
      check cb
        (w.Suite.name ^ ": schedule-independent state under eviction")
        true
        (pair base = pair tight)
    end
    else
      check cb
        (w.Suite.name ^ ": architecturally identical under eviction")
        true
        (arch base = arch tight)
  end

let eviction_tests =
  List.map
    (fun w -> Alcotest.test_case w.Suite.name `Slow (eviction_differential w))
    (Workloads.Catalog.all ())

(* ------------------------------------------------------------------ *)
(* Chaos campaign determinism                                          *)
(* ------------------------------------------------------------------ *)

let test_chaos_campaign_deterministic () =
  let run () = Cms_fuzz.Campaign.run ~seed:7 ~cases:40 ~chaos:true () in
  let a = run () and b = run () in
  check ci "passed equal" a.Cms_fuzz.Campaign.passed b.Cms_fuzz.Campaign.passed;
  Alcotest.(check string)
    "fingerprint stable"
    (Digest.to_hex (Cms_fuzz.Campaign.fingerprint a))
    (Digest.to_hex (Cms_fuzz.Campaign.fingerprint b));
  check ci "no divergences" 0 (List.length a.Cms_fuzz.Campaign.divergences)

(* ------------------------------------------------------------------ *)
(* Chaos schedule pins                                                 *)
(* ------------------------------------------------------------------ *)

(* The RNG schedule names one exact adversity per seed: which host
   events fire, at which opportunity, in which order.  The campaign
   fingerprints digest outcomes, not injections, so these pins are what
   hold the schedule (draw order, opportunity counting, the recorded
   events) fixed. *)

(* Every journal [Oracle.record] writes for the first 20 chaos cases of
   the seed-5 record/replay slice.  (Re-pinned for journal version 8,
   whose CONF lost the fixed budgets and charges; the events did not
   move.) *)
let test_oracle_schedule_pin () =
  let root = Srng.create 5 in
  let b = Buffer.create 4096 in
  for index = 0 to 19 do
    let rng = Srng.split root in
    let case = Cms_fuzz.Gen.generate rng ~seed:5 ~index in
    let chaos_seed = Srng.int32 rng in
    let rec_ =
      Cms_fuzz.Oracle.record (Cms_fuzz.Oracle.render ~chaos:chaos_seed case)
    in
    Buffer.add_string b
      (Journal.to_string rec_.Cms_persist.Trial.journal)
  done;
  Alcotest.(check string)
    "journals" "b62295b8be25d662e71b75e10f8dea92"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* The host events fired into the packet-echo kernel armed with the
   storm campaign's seed-1 chaos. *)
let test_storm_schedule_pin () =
  let module Storm = Cms_robust.Storm in
  let module Trial = Cms_persist.Trial in
  let cfg, ch = Storm.chaos_of_seed 1 Cms.Config.default in
  let fired = ref [] in
  let o, _ =
    Trial.execute
      (Trial.of_suite ~mask:Storm.stack_mask Workloads.Progs_kernel.kernel_echo)
      ~cfg
      ~setup:(Chaos.install ~record:(fun ev -> fired := ev :: !fired) ch)
  in
  check cb "halted" true (o.Trial.stop = Trial.Halted);
  check ci "events" 11456 (List.length !fired);
  Alcotest.(check string)
    "host events" "34f05c76ffb8a518ec7c2a229bfe4050"
    (Digest.to_hex
       (Digest.string
          (String.concat ";"
             (List.rev_map (Fmt.to_to_string Journal.pp_host_event) !fired))))

let suites =
  [
    ( "robust.recovery",
      [
        Alcotest.test_case "containment boundary" `Quick test_containment;
        Alcotest.test_case "forward progress under 100% faults" `Quick
          test_forward_progress;
        Alcotest.test_case "spoof-storm watchdog" `Quick
          test_spoof_storm_watchdog;
        Alcotest.test_case "pressure-only chaos profile" `Quick
          test_chaos_pressure_only;
        Alcotest.test_case "rollback check" `Quick test_rollback_check;
        Alcotest.test_case "pre-fault-heavy chaos run" `Quick
          test_prefault_heavy_chaos;
      ] );
    ( "robust.tcache",
      [
        Alcotest.test_case "group reactivation across eviction" `Quick
          test_group_reactivation;
        Alcotest.test_case "group key includes policy; per-entry cap" `Quick
          test_group_policy_key_and_cap;
        Alcotest.test_case "flush hook and page index" `Quick
          test_flush_and_page_index;
        Alcotest.test_case "capacity degradation ladder" `Quick
          test_capacity_degradation;
        Alcotest.test_case "bounded adapt table" `Quick test_adapt_bounded;
      ] );
    ("robust.eviction-differential", eviction_tests);
    ( "robust.chaos",
      [
        Alcotest.test_case "campaign deterministic" `Slow
          test_chaos_campaign_deterministic;
      ] );
    ( "chaos.schedule",
      [
        Alcotest.test_case "oracle journals pinned" `Quick
          test_oracle_schedule_pin;
        Alcotest.test_case "storm host events pinned" `Quick
          test_storm_schedule_pin;
      ] );
  ]
