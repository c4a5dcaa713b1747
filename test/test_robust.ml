(* Recovery-hardening tests: the engine's containment boundary, the
   demotion ladder's forward-progress guarantee, the stall watchdog,
   graceful tcache degradation (generational eviction with full flush
   as last resort), the bounded adaptive-policy table, and chaos-mode
   determinism.  The host-side attacks use the engine's chaos hooks
   directly where a test needs a deterministic 100% schedule, and
   {!Cms_robust.Chaos} where the seeded profile is itself under test. *)

module Chaos = Cms_robust.Chaos
module Srng = Cms_robust.Srng
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
  (* standing speculation non-interference invariant: every rollback
     in every robustness scenario must leave no speculative state —
     shadow registers, gated stores, armed alias ranges —
     architecturally observable *)
  c.Cms.Engine.on_rollback <-
    Some
      (fun () ->
        if Cms.Engine.speculation_visible c then
          Alcotest.fail "speculative state visible after rollback");
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
       * Cms.Config.default.Cms.Config.translate_fail_limit);
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
  let cfg = Cms.Config.default in
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
       * cfg.Cms.Config.quarantine_limit * cfg.Cms.Config.spec_fault_limit);
  check cb "quarantine fast path used" true (s.Cms.Stats.quarantined_steps > 0)

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
  let c = run_loop ~iters:400 hot_cfg ~arm:(fun c -> Chaos.install ch c) in
  check cb "cache storms fired" true (ch.Chaos.flushes + ch.Chaos.evicted >= 1);
  let s = Cms.stats c in
  check cb "flushes surfaced in stats" true
    (s.Cms.Stats.tcache_flushes >= ch.Chaos.flushes)

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

let insert tc ~entry ~snapshot =
  Tcache.insert tc ~entry
    ~code:(Cms.Codegen.zero_insn_code ~entry)
    ~region:(mk_region ~entry)
    ~policy:(Cms.Policy.default Cms.Config.default)
    ~snapshot

let test_group_reactivation () =
  let tc = Tcache.create ~capacity:8 in
  let snap_a = Bytes.of_string "AAAA" and snap_b = Bytes.of_string "BBBB" in
  let v1 = insert tc ~entry:0x1000 ~snapshot:(Some snap_a) in
  let v2 = insert tc ~entry:0x1000 ~snapshot:(Some snap_b) in
  check ci "old version parked" 1 (Tcache.group_size tc ~entry:0x1000);
  check ci "both records held" 2 tc.Tcache.count;
  (match Tcache.group_match tc ~entry:0x1000 ~current_bytes:snap_a with
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
  check ci "reactivated v1 survives" 1 tc.Tcache.count

let test_flush_and_page_index () =
  let tc = Tcache.create ~capacity:8 in
  let shift = Machine.Mmu.page_shift in
  let v1 = insert tc ~entry:0x1000 ~snapshot:None in
  let _v2 = insert tc ~entry:0x5000 ~snapshot:None in
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
  check ci "cache empty" 0 tc.Tcache.count;
  check cb "lookup misses after flush" true (Tcache.lookup tc 0x5000 = None)

let test_capacity_degradation () =
  let tc = Tcache.create ~capacity:4 in
  for i = 0 to 5 do
    ignore (insert tc ~entry:(0x1000 + (i * 0x100)) ~snapshot:None)
  done;
  check cb "count stays bounded" true (tc.Tcache.count <= 4);
  check ci "high-water mark" 4 tc.Tcache.hwm;
  check cb "colder generations evicted" true (tc.Tcache.evicted >= 1);
  check ci "no full flush while colder work exists" 0 tc.Tcache.flushes;
  (* last resort: when every held record is current-generation (all
     refreshed by dispatch hits), only the full flush can make room *)
  let tc2 = Tcache.create ~capacity:2 in
  ignore (insert tc2 ~entry:0x1000 ~snapshot:None);
  ignore (insert tc2 ~entry:0x2000 ~snapshot:None);
  ignore (Tcache.lookup tc2 0x1000);
  ignore (Tcache.lookup tc2 0x2000);
  ignore (insert tc2 ~entry:0x3000 ~snapshot:None);
  check ci "full flush as last resort" 1 tc2.Tcache.flushes;
  check ci "only the new record held" 1 tc2.Tcache.count

(* ------------------------------------------------------------------ *)
(* Bounded adaptive-policy table                                       *)
(* ------------------------------------------------------------------ *)

let test_adapt_bounded () =
  let cfg = { Cms.Config.default with Cms.Config.adapt_capacity = 4 } in
  let a = Adapt.create cfg in
  check cb "quarantine reported" true (Adapt.quarantine a 0x9000);
  for i = 0 to 9 do
    Adapt.set_no_reorder a (0x1000 + (i * 8))
  done;
  check cb "table bounded" true (Adapt.size a <= 4);
  check cb "evictions counted" true (a.Adapt.evictions >= 6);
  (* eviction prefers non-quarantined victims: the forward-progress
     state must survive capacity pressure *)
  check cb "quarantine survives pressure" true (Adapt.quarantined a 0x9000);
  check cb "cold plain entry evicted instead" true (not (Adapt.hot a 0x1000))

(* ------------------------------------------------------------------ *)
(* Eviction differential over the workload suite                       *)
(* ------------------------------------------------------------------ *)

let all_workloads () =
  Workloads.Progs_boot.all @ Workloads.Progs_spec.all
  @ Workloads.Progs_apps.all @ Workloads.Progs_quake.all
  @ [ Workloads.Progs_quake.blt_driver () ]
  @ Workloads.Progs_kernel.all

(* Architectural state only; stats legitimately differ under pressure.
   The stack pages are zeroed before digesting, as in the fuzz oracle:
   timer-interrupt delivery boundaries differ between translation
   shapes, leaving different dead bytes below ESP. *)
let arch (c : Cms.t) =
  let m = Cms.mem c in
  let bus = m.Machine.Mem.bus in
  let data = Bytes.copy m.Machine.Mem.phys.Machine.Phys.data in
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
    let tc = tight.Cms.Engine.tcache in
    check cb
      (w.Suite.name ^ ": pressure exercised")
      true
      (tc.Tcache.evicted >= 1 || tc.Tcache.flushes >= 1);
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
    (all_workloads ())

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
      ] );
    ( "robust.tcache",
      [
        Alcotest.test_case "group reactivation across eviction" `Quick
          test_group_reactivation;
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
  ]
