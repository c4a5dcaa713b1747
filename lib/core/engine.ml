(** The CMS runtime: the control loop of the paper's Figure 1.

    Interpret until hot → translate → execute from the translation
    cache with chaining; on a native fault, roll back to the committed
    x86 state, re-execute the region in the interpreter to decide
    whether the fault was genuine (deliver it) or speculative (count it
    and, past a threshold, retranslate more conservatively); deliver
    external interrupts only at consistent boundaries, rolling back a
    translation the interrupt arrived in (§3.2, §3.3). *)

(** Host-side fault-injection hooks (the chaos layer, {!Cms_robust}).
    Each is called from a point where the injected adversity is
    architecturally recoverable; the clean run installs none. *)
type chaos = {
  on_translate : int -> unit;
      (** called with the entry address at the top of every translation
          attempt, *inside* the containment boundary — raising here
          simulates translator/verifier death *)
  pre_exec : Tcache.trans -> Vliw.Nexn.t option;
      (** consulted before a translation runs; [Some n] suppresses the
          execution and injects native fault [n] at the first molecule
          (a spurious rollback: the state is still at the commit
          point), driving the recovery path and the demotion ladder *)
  irq_spoof : unit -> bool;
      (** spurious interrupt-pending signal for the in-translation
          poll: forces an interrupt exit (and rollback when mid-flight)
          with no interrupt actually deliverable *)
}

type t = {
  cfg : Config.t;
  on_diag : (Diag.t -> unit) option;
      (** observer of every verifier diagnostic this engine's compiles
          and installs produce, advisory ones included; it only
          watches — acceptance is {!Codegen.check}'s alone *)
  plat : Machine.Platform.t;
  cpu : Cpu.t;
  interp : Interp.t;
  profile : Profile.t;
  stats : Stats.t;
  tcache : Tcache.t;
  smc : Smc.t;
  adapt : Adapt.t;
  mutable ticked : int;  (** molecules already reported to the bus *)
  mutable irq_sample : int;  (** divider for in-translation IRQ polls *)
  mutable irq_poll : unit -> bool;
      (** [irq_pending_poll] applied to this engine once, at creation:
          every translation run samples it, so no run builds it *)
  mutable on_boundary : (int -> unit) option;
      (** Test/fuzz hook, called with the retired-instruction count at
          the top of every dispatch iteration — a consistent
          architectural boundary in every configuration.  Raising IRQ
          lines here makes them deliverable within the same iteration. *)
  mutable chaos : chaos option;  (** fault injection; [None] = clean run *)
  mutable on_rollback : (unit -> unit) option;
      (** test hook, fired immediately after every speculative-state
          rollback — the seam where the non-interference invariant
          ({!speculation_visible}) is asserted *)
  mutable shared_source :
    (entry:int ->
    region:Region.t ->
    policy:Policy.t ->
    bytes_:Bytes.t ->
    Codegen.compiled option)
      option;
      (** fleet-mode consult hook, fired at the translate instant when
          no parked translation group matched.  The hook receives the
          canonical inputs derived right here — the selected region,
          the adaptive policy, and the current source bytes — and may
          return a pre-minted translation; the *hook* owns validation
          (the fleet layer revalidates every shared-store entry against
          exactly these inputs before trusting it).  A returned translation skips the translate
          charge and is charged a revalidation cost instead, so a warm
          store is a genuine cold-start accelerator. *)
  mutable on_fresh_translation :
    (entry:int ->
    region:Region.t ->
    policy:Policy.t ->
    bytes_:Bytes.t ->
    compiled:Codegen.compiled ->
    unit)
      option;
      (** fleet-mode publish seam, fired after a freshly compiled
          translation (never one supplied by {!shared_source}) is
          installed, with the source bytes it was compiled from.  Exceptions escaping the hook are
          contained by {!translate}. *)
  mutable insn_limit : int;
      (** the active [run]'s [max_insns]; the chained fast path checks
          it at every translation-to-translation boundary so a chained
          loop stops exactly where the dispatcher would *)
  (* forward-progress watchdog state *)
  mutable stall_eip : int;  (** eip at the last dispatch iteration *)
  mutable last_retired : int;
  mutable stalls : int;
      (** consecutive dispatch iterations with no retired progress at
          the same eip *)
}

let perf t = t.cpu.Cpu.exec.Vliw.Exec.perf

(** Total molecules so far (host-executed + cost model). *)
let total_molecules t = Stats.total_molecules t.stats (perf t)

let retired t = t.stats.Stats.x86_interp + (perf t).Vliw.Perf.x86_committed

(* Advance device time to match consumed molecules. *)
let tick_devices t =
  let now = total_molecules t in
  if now > t.ticked then begin
    Machine.Bus.tick (Cpu.bus t.cpu) (now - t.ticked);
    t.ticked <- now
  end

(* Sampled interrupt-pending check used while a translation runs: also
   advances device time so timers can fire mid-translation.  Chaos can
   spoof it: the translation exits (rolling back if mid-flight), the
   dispatcher finds nothing to deliver — a pure spurious rollback. *)
let irq_pending_poll t () =
  t.irq_sample <- t.irq_sample + 1;
  if t.irq_sample land 15 = 0 then tick_devices t;
  Cpu.irq_deliverable t.cpu
  || (match t.chaos with Some c -> c.irq_spoof () | None -> false)

let create ?on_diag ?(cfg = Config.default) plat =
  let cpu = Cpu.create plat ~cfg in
  let stats = Stats.create () in
  let profile = Profile.create () in
  let interp = Interp.create cpu ~profile ~stats ~cfg in
  let tcache = Tcache.create ~capacity:cfg.Config.tcache_capacity in
  let adapt = Adapt.create cfg in
  let mem = plat.Machine.Platform.mem in
  mem.Machine.Mem.fg_enabled <- cfg.Config.enable_fine_grain;
  Machine.Mem.set_fast_paths mem cfg.Config.host_fast_paths;
  let smc = Smc.create ~cfg ~mem ~tcache ~adapt ~stats in
  let t =
    { cfg; on_diag; plat; cpu; interp; profile; stats; tcache; smc; adapt;
      ticked = 0; irq_sample = 0; irq_poll = Fun.const false;
      on_boundary = None; chaos = None; on_rollback = None;
      shared_source = None; on_fresh_translation = None;
      insn_limit = max_int; stall_eip = -1; last_retired = -1; stalls = 0 }
  in
  mem.Machine.Mem.on_smc <- (fun hit ~paddr ~len -> Smc.on_write smc hit ~paddr ~len);
  mem.Machine.Mem.on_dma_smc <- (fun ~ppn -> Smc.on_dma smc ~ppn);
  (* a tcache flush is the big hammer: dependent host caches die too *)
  tcache.Tcache.on_flush <- (fun () -> Interp.dcache_clear interp);
  (* generational eviction is the gentle one: only the evicted records'
     page protection needs re-deriving *)
  tcache.Tcache.on_evict <- (fun tr -> Smc.note_evicted smc tr);
  t.irq_poll <- irq_pending_poll t;
  t

(* ------------------------------------------------------------------ *)
(* Translator driver                                                   *)
(* ------------------------------------------------------------------ *)

let insert_zero_insn t entry =
  let region =
    { Region.entry; insns = [||]; cont = None; src_ranges = [] }
  in
  let tr =
    Tcache.insert t.tcache ~entry ~code:(Codegen.zero_insn_code ~entry)
      ~region ~policy:(Adapt.get t.adapt entry) ~snapshot:None
  in
  t.stats.Stats.translations <- t.stats.Stats.translations + 1;
  tr

(* The translator proper; may raise (verifier rejection, translator
   bug, injected chaos) — callers go through [translate] below, which
   contains any escape. *)
let translate_unprotected t entry =
  let mem = Cpu.mem t.cpu in
  let rec attempt policy =
    match Region.select ~mem ~profile:t.profile ~policy entry with
    | None -> insert_zero_insn t entry
    | Some region -> (
        (* translation groups (§3.6.5): if a parked translation of this
           region matches the current code bytes, reactivate it instead
           of retranslating *)
        match
          if t.cfg.Config.enable_groups && Tcache.group_size t.tcache ~entry > 0
          then
            Tcache.group_match t.tcache ~entry
              ~current_bytes:(Codegen.take_snapshot mem region)
          else None
        with
        | Some tr ->
            t.stats.Stats.group_hits <- t.stats.Stats.group_hits + 1;
            Smc.register t.smc tr;
            tr
        | None ->
        (* With a fleet hook installed (shared-store consult or publish
           seam), the current source bytes are part of every attempt's
           canonical inputs, so the snapshot read happens uniformly —
           never as a function of whether the store had a hit. *)
        let cur_snap =
          if
            Option.is_some t.shared_source
            || Option.is_some t.on_fresh_translation
          then Some (Codegen.take_snapshot mem region)
          else None
        in
        (* Shared-store consult: only when the tcache group could not
           serve the entry.  The hook owns validation; anything it
           returns installs like a local compile, minus the translate
           charge. *)
        let precompiled =
          match (t.shared_source, cur_snap) with
          | Some f, Some cur -> f ~entry ~region ~policy ~bytes_:cur
          | _ -> None
        in
        let from_store = Option.is_some precompiled in
        match
          match (precompiled, cur_snap) with
          | Some c, _ -> c
          | None, Some cur ->
              Codegen.compile_presnapped ?on_diag:t.on_diag ~cfg:t.cfg ~policy
                ~bytes:cur region
          | None, None ->
              Codegen.compile ?on_diag:t.on_diag ~cfg:t.cfg ~policy ~mem region
        with
        | { Codegen.code; snapshot; unprotected; _ } as compiled ->
            let n = Region.instruction_count region in
            if from_store then begin
              (* The fleet's cold-start payoff: a validated store entry
                 skips the per-instruction translate charge and pays
                 only for its consumer-side revalidation (source-byte
                 compare plus code walk). *)
              Stats.charge t.stats
                (Region.src_bytes region * t.cfg.Config.reval_cost_per_byte);
              t.stats.Stats.store_hits <- t.stats.Stats.store_hits + 1
            end
            else begin
              Stats.charge t.stats (n * t.cfg.Config.translate_cost);
              t.stats.Stats.translations <- t.stats.Stats.translations + 1;
              if Adapt.hot t.adapt entry then
                t.stats.Stats.retranslations <-
                  t.stats.Stats.retranslations + 1;
              t.stats.Stats.insns_translated <-
                t.stats.Stats.insns_translated + n;
              t.stats.Stats.translated_atoms <-
                t.stats.Stats.translated_atoms + Vliw.Code.atom_count code;
              t.stats.Stats.translations_verified <-
                t.stats.Stats.translations_verified + 1
            end;
            let tr =
              Tcache.insert ~unprotected t.tcache ~entry ~code ~region ~policy
                ~snapshot
            in
            Smc.register t.smc tr;
            Profile.reset_count t.profile entry;
            if not from_store then
              (match (t.on_fresh_translation, cur_snap) with
              | Some f, Some cur ->
                  f ~entry ~region ~policy ~bytes_:cur ~compiled
              | _ -> ());
            tr
        | exception Codegen.Too_big ->
            if policy.Policy.max_insns <= 4 then insert_zero_insn t entry
            else begin
              let p =
                { policy with Policy.max_insns = policy.Policy.max_insns / 2 }
              in
              Adapt.upgrade t.adapt entry p;
              attempt p
            end)
  in
  attempt (Adapt.get t.adapt entry)

(** Translate the region at [entry] under its adaptive policy.

    This is the containment boundary: any exception escaping region
    selection, scheduling or code generation is absorbed here — counted,
    charged against the entry's failure budget (repeat offenders are
    quarantined), and turned into [None] so the dispatcher falls back to
    the interpreter instead of the run dying.  Resource-exhaustion
    exceptions still propagate: absorbing those would hide real trouble. *)
let translate t entry =
  if (Adapt.get t.adapt entry).Policy.interp_only then None
  else
    try
      (match t.chaos with Some c -> c.on_translate entry | None -> ());
      Some (translate_unprotected t entry)
    with
    | (Out_of_memory | Stack_overflow) as e -> raise e
    | _ ->
        t.stats.Stats.containments <- t.stats.Stats.containments + 1;
        (match Adapt.note_translate_failure t.adapt entry with
        | Some Adapt.Quarantined ->
            t.stats.Stats.quarantines <- t.stats.Stats.quarantines + 1
        | _ -> ());
        None

(** Install a pre-minted translation from an AOT image.  The caller
    (the persist layer's image loader) has already validated the code
    bytes against the image snapshot; here it only takes its place in
    the tcache and under SMC protection, exactly like a dynamic
    translation — crucially *without* the per-instruction translate
    charge, which is the whole cold-start payoff.  Returns [false]
    (and installs nothing) if the entry already has a live translation. *)
let aot_install t ~entry ~code ~region ~policy ~snapshot =
  match Tcache.lookup t.tcache entry with
  | Some _ -> false
  | None ->
      let tr =
        Tcache.insert ~aot:true t.tcache ~entry ~code ~region ~policy
          ~snapshot:(Some snapshot)
      in
      Smc.register t.smc tr;
      t.stats.Stats.aot_loaded <- t.stats.Stats.aot_loaded + 1;
      true

(* ------------------------------------------------------------------ *)
(* Recovery (§3.2)                                                     *)
(* ------------------------------------------------------------------ *)

(* Interpret the region's instructions from the committed state.
   Returns the first genuine fault, if any.  Stops when control leaves
   the region's source ranges, after one region's worth of
   instructions, or at a HLT. *)
let replay_region t (tr : Tcache.trans) =
  let budget = max 1 (Region.instruction_count tr.Tcache.region) in
  let rec go k =
    if k >= budget then None
    else if not (Region.contains tr.Tcache.region (Cpu.committed_eip t.cpu))
    then None
    else begin
      let pc = Cpu.committed_eip t.cpu in
      match Interp.step t.interp with
      | Interp.Stepped -> go (k + 1)
      | Interp.Halted -> None
      | Interp.Faulted f -> Some (f, pc)
    end
  in
  go 0

(* The paper's CMS "monitors recurring failures and generates a more
   conservative translation when it deems the rate of failure to be
   excessive": a handful of faults across many executions is cheaper to
   absorb through rollback+interpret than to pessimize the translation
   for.  Escalate only past an absolute floor AND a rate threshold. *)
let excessive t ~faults ~execs =
  faults >= t.cfg.Config.spec_fault_limit && faults * 64 >= execs

(* One rung of the demotion ladder for [entry]; counts what happened.
   Every scrapped-for-spec-faults translation goes through here, so the
   per-entry escalation budget is what bounds the rollback storm of an
   always-faulting entry (forward progress). *)
let ladder_step t entry =
  match Adapt.note_escalation t.adapt entry with
  | Some Adapt.Demoted -> t.stats.Stats.demotions <- t.stats.Stats.demotions + 1
  | Some Adapt.Quarantined ->
      t.stats.Stats.quarantines <- t.stats.Stats.quarantines + 1
  | None -> ()

(* Escalate a speculative-fault class: first cut the region, then stop
   reordering (paper §3.2 / §3.5); the ladder budget sits on top and
   ends in quarantine. *)
let escalate_spec t (tr : Tcache.trans) =
  let entry = tr.Tcache.entry in
  let n = Region.instruction_count tr.Tcache.region in
  if n > 8 then Adapt.cut_region t.adapt entry ~current:n
  else Adapt.set_no_reorder t.adapt entry;
  ladder_step t entry;
  Smc.invalidate ~cause:Tcache.Udemote t.smc tr ~keep_in_group:false

(** Handle a native fault from a translation.  The engine has already
    rolled back; this decides genuine vs speculative and adapts. *)
let recover t (tr : Tcache.trans) (n : Vliw.Nexn.t) =
  t.stats.Stats.fault_entries <- t.stats.Stats.fault_entries + 1;
  Stats.charge t.stats t.cfg.Config.fault_handler_cost;
  match n with
  | Vliw.Nexn.Smc (_, _) ->
      (* replaying in the interpreter routes the write through the SMC
         handler, which updates protection state (and may invalidate
         this very translation) *)
      ignore (replay_region t tr)
  | Vliw.Nexn.Mmio_spec _ ->
      (* the replay lets the interpreter profile which instruction does
         MMIO; recurring faults retranslate with those instructions
         carved out as interpreter exits (§3.4) *)
      tr.Tcache.spec_faults <- tr.Tcache.spec_faults + 1;
      t.stats.Stats.spec_faults <- t.stats.Stats.spec_faults + 1;
      ignore (replay_region t tr);
      if excessive t ~faults:tr.Tcache.spec_faults ~execs:tr.Tcache.execs
      then begin
        Array.iter
          (fun (i : Region.insn_info) ->
            if Profile.is_mmio_insn t.profile i.Region.addr then
              Adapt.add_interp_insn t.adapt tr.Tcache.entry i.Region.addr)
          tr.Tcache.region.Region.insns;
        ladder_step t tr.Tcache.entry;
        Smc.invalidate ~cause:Tcache.Udemote t.smc tr ~keep_in_group:false
      end
  | Vliw.Nexn.Alias_violation _ ->
      tr.Tcache.spec_faults <- tr.Tcache.spec_faults + 1;
      t.stats.Stats.spec_faults <- t.stats.Stats.spec_faults + 1;
      ignore (replay_region t tr);
      if excessive t ~faults:tr.Tcache.spec_faults ~execs:tr.Tcache.execs then
        escalate_spec t tr
  | Vliw.Nexn.Sbuf_overflow ->
      t.stats.Stats.spec_faults <- t.stats.Stats.spec_faults + 1;
      ignore (replay_region t tr);
      escalate_spec t tr
  | Vliw.Nexn.X86_fault _ -> (
      match replay_region t tr with
      | Some (_, pc) ->
          (* genuine: the interpreter delivered it precisely.  Recurring
             genuine faults narrow the translation around the faulting
             instruction, ultimately to a zero-instruction translation. *)
          tr.Tcache.genuine_faults <- tr.Tcache.genuine_faults + 1;
          t.stats.Stats.genuine_faults <- t.stats.Stats.genuine_faults + 1;
          if
            tr.Tcache.genuine_faults >= t.cfg.Config.genuine_fault_limit
            && tr.Tcache.genuine_faults * 64 >= tr.Tcache.execs
          then begin
            (* carve out the faulting instruction: its neighbours stay
               large and optimized; it becomes a zero-instruction
               translation *)
            Adapt.add_interp_insn t.adapt tr.Tcache.entry pc;
            Smc.invalidate ~cause:Tcache.Udemote t.smc tr ~keep_in_group:false
          end
      | None ->
          (* speculative: a hoisted access faulted on a path the real
             program never takes *)
          tr.Tcache.spec_faults <- tr.Tcache.spec_faults + 1;
          t.stats.Stats.spec_faults <- t.stats.Stats.spec_faults + 1;
          if excessive t ~faults:tr.Tcache.spec_faults ~execs:tr.Tcache.execs
          then escalate_spec t tr)

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let deliver_irq t =
  match Machine.Irq.ack t.plat.Machine.Platform.irq with
  | Some vector ->
      t.stats.Stats.irq_delivered <- t.stats.Stats.irq_delivered + 1;
      Cpu.deliver t.cpu ~vector ~error_code:None
  | None -> ()

(* Execute a translation's code through its compiled closure.
   Compilation is lazy, at first dispatch — also what re-arms
   AOT-installed translations locally after their copy-on-validate
   install.  Every install path gates on {!Vliw.Code.validate}, so
   compilation cannot fail. *)
let exec_code t (tr : Tcache.trans) =
  match tr.Tcache.compiled with
  | Tcache.Compiled c -> Vliw.Closure.run ~irq_pending:t.irq_poll c
  | Tcache.Not_compiled ->
      let c = Vliw.Closure.compile_exn t.cpu.Cpu.exec tr.Tcache.code in
      tr.Tcache.compiled <- Tcache.Compiled c;
      t.stats.Stats.closures_compiled <- t.stats.Stats.closures_compiled + 1;
      Vliw.Closure.run ~irq_pending:t.irq_poll c

(* Run [tr] once.  Returns the successor translation when the exit
   taken is a healthy [Chained] fast exit — the caller decides whether
   the chained transfer actually happens (boundary checks). *)
let run_translation_once t (tr : Tcache.trans) : Tcache.trans option =
  (* self-revalidation prologue *)
  if tr.Tcache.reval_armed then
    if not (Smc.revalidate t.smc tr) then begin
      (* code really changed behind the disarmed protection *)
      Smc.on_selfcheck_fail t.smc tr;
      ()
    end;
  if not tr.Tcache.valid then None
  else begin
    tr.Tcache.execs <- tr.Tcache.execs + 1;
    let aot_before =
      if tr.Tcache.aot then (perf t).Vliw.Perf.x86_committed else 0
    in
    let succ =
      match
        match t.chaos with
        | Some c -> (
            (* injected native fault: the state is still at the commit
               point, so this is exactly a fault at the first molecule *)
            match c.pre_exec tr with
            | Some n -> Vliw.Exec.Faulted n
            | None -> exec_code t tr)
        | None -> exec_code t tr
      with
      | Vliw.Exec.Exited i -> (
          let e = tr.Tcache.code.Vliw.Code.exits.(i) in
          match e.Vliw.Code.kind with
          | Vliw.Code.Enext ->
              (* chaining (§2): resolve an already-patched successor
                 (one id lookup), else patch the exit to its target
                 translation — the patch hands back the successor
                 directly, so a fresh patch costs no extra lookup.  A
                 healthy successor goes to the transfer loop instead of
                 the dispatcher. *)
              let succ =
                match e.Vliw.Code.chain with
                | Vliw.Code.Chained id -> Tcache.by_id t.tcache id
                | _ -> None
              in
              (match succ with
              | Some _ -> succ
              | None -> (
                  t.stats.Stats.lookups <- t.stats.Stats.lookups + 1;
                  Stats.charge t.stats t.cfg.Config.lookup_cost;
                  match e.Vliw.Code.target with
                  | Vliw.Code.Const target when t.cfg.Config.enable_chaining
                    -> (
                      match Tcache.lookup t.tcache target with
                      | Some t2 ->
                          e.Vliw.Code.chain <- Vliw.Code.Chained t2.Tcache.id;
                          Tcache.link ~src:tr ~exit_idx:i ~dst:t2;
                          t.stats.Stats.chain_patches <-
                            t.stats.Stats.chain_patches + 1;
                          Some t2
                      | None -> None)
                  | _ -> None))
          | Vliw.Code.Einterp_one ->
              ignore (Interp.step t.interp);
              None
          | Vliw.Code.Eselfcheck_fail ->
              Smc.on_selfcheck_fail t.smc tr;
              None)
      | Vliw.Exec.Faulted n ->
          Stats.charge t.stats t.cfg.Config.rollback_cost;
          Vliw.Exec.rollback t.cpu.Cpu.exec;
          (match t.on_rollback with Some f -> f () | None -> ());
          recover t tr n;
          None
      | Vliw.Exec.Interrupted ->
          (* roll back to the consistent boundary unless already there *)
          if
            not
              (Vliw.Regfile.consistent t.cpu.Cpu.exec.Vliw.Exec.regs
              && Vliw.Storebuf.is_empty t.cpu.Cpu.exec.Vliw.Exec.sbuf)
          then begin
            Stats.charge t.stats t.cfg.Config.rollback_cost;
            Vliw.Exec.rollback t.cpu.Cpu.exec;
            (match t.on_rollback with Some f -> f () | None -> ());
            t.stats.Stats.irq_rollbacks <- t.stats.Stats.irq_rollbacks + 1
          end;
          (* Under a spoofed poll this exit can happen with IF clear; a
             latched line must then stay latched for later — acking it
             here would deliver an interrupt the guest has masked. *)
          if Cpu.irq_deliverable t.cpu then deliver_irq t;
          None
      | Vliw.Exec.Runaway ->
          raise (Cpu.Panic "translation exceeded molecule budget")
    in
    if tr.Tcache.aot then begin
      t.stats.Stats.aot_hits <- t.stats.Stats.aot_hits + 1;
      t.stats.Stats.aot_x86_retired <-
        t.stats.Stats.aot_x86_retired
        + ((perf t).Vliw.Perf.x86_committed - aot_before)
    end;
    succ
  end

(* Run a translation, following healthy chained exits translation-to-
   translation.  Each hop passes through a boundary that does exactly
   what the dispatcher's loop top does — device ticks, the boundary
   hook, run-limit / halt / interrupt / quarantine checks — minus the
   tcache lookup the chain replaces; any failed check falls back to the
   dispatcher, which re-derives everything from scratch.  A hop also
   requires retired-instruction progress, so a chained cycle can never
   bypass the forward-progress watchdog. *)
let run_translation t (tr : Tcache.trans) =
  let rec go (tr : Tcache.trans) =
    let before = retired t in
    match run_translation_once t tr with
    | None -> ()
    | Some succ ->
        tick_devices t;
        (match t.on_boundary with None -> () | Some f -> f (retired t));
        (* hooks (fuzz events, chaos storms, journal replay) may have
           changed anything: re-check the successor and the world *)
        if
          retired t > before
          && retired t < t.insn_limit
          && (not t.cpu.Cpu.halted)
          && (not (Cpu.irq_deliverable t.cpu))
          && succ.Tcache.valid
          && (not (Adapt.quarantined t.adapt succ.Tcache.entry))
          && Cpu.committed_eip t.cpu = succ.Tcache.entry
        then begin
          (* the dispatcher's [Tcache.lookup] would refresh the
             generation stamp; the chained path must too, or hot
             successors look cold to the evictor *)
          succ.Tcache.gen <- t.tcache.Tcache.cur_gen;
          t.stats.Stats.chained_exits_taken <-
            t.stats.Stats.chained_exits_taken + 1;
          go succ
        end
  in
  go tr

(* Can any device still wake a halted CPU? *)
let wakeup_possible t =
  t.plat.Machine.Platform.timer.Machine.Timer.period > 0
  || t.plat.Machine.Platform.disk.Machine.Disk.busy > 0
  || Machine.Nic.active t.plat.Machine.Platform.nic

(** Copy the machine-layer fast-path counters into {!Stats}.  They
    accumulate in [Mmu.t]/[Mem.t] (the machine library cannot see the
    cms layer); [run] syncs them on exit and callers reading stats
    mid-run can call this directly. *)
let sync_host_stats t =
  let mem = Cpu.mem t.cpu in
  let mmu = mem.Machine.Mem.mmu in
  t.stats.Stats.tlb_hits <- mmu.Machine.Mmu.tlb_hits;
  t.stats.Stats.tlb_misses <- mmu.Machine.Mmu.tlb_misses;
  t.stats.Stats.ram_fast_reads <- mem.Machine.Mem.fast_reads;
  t.stats.Stats.ram_fast_writes <- mem.Machine.Mem.fast_writes;
  t.stats.Stats.tcache_flushes <- t.tcache.Tcache.flushes;
  t.stats.Stats.tcache_evictions <- t.tcache.Tcache.evictions;
  t.stats.Stats.tcache_evicted <- t.tcache.Tcache.evicted;
  t.stats.Stats.adapt_evictions <- t.adapt.Adapt.evictions;
  t.stats.Stats.chain_unlinks_evict <- t.tcache.Tcache.unlinks_evict;
  t.stats.Stats.chain_unlinks_demote <- t.tcache.Tcache.unlinks_demote;
  t.stats.Stats.chain_unlinks_smc <- t.tcache.Tcache.unlinks_smc;
  t.stats.Stats.chain_unlinks_aot <- t.tcache.Tcache.unlinks_aot;
  t.stats.Stats.chain_unlinks_chaos <- t.tcache.Tcache.unlinks_chaos;
  let irq = t.plat.Machine.Platform.irq in
  t.stats.Stats.irq_raised <- irq.Machine.Irq.raised_total;
  t.stats.Stats.irq_deferred <- irq.Machine.Irq.deferred_total;
  let nic = t.plat.Machine.Platform.nic in
  t.stats.Stats.nic_rx_frames <- nic.Machine.Nic.rx_frames;
  t.stats.Stats.nic_tx_frames <- nic.Machine.Nic.tx_frames;
  t.stats.Stats.nic_rx_dropped <- nic.Machine.Nic.rx_dropped;
  t.stats.Stats.nic_irqs <- nic.Machine.Nic.irqs_raised;
  t.stats.Stats.nic_irq_coalesced <- nic.Machine.Nic.irqs_coalesced

type stop = Halted | Insn_limit

(** Run until the guest halts with no wakeup source, or [max_insns]
    x86 instructions have retired.  The translated-instruction count
    and the host counters are synced on every exit, normal or
    exceptional. *)
let run ?(max_insns = max_int) t =
  t.insn_limit <- max_insns;
  Fun.protect
    ~finally:(fun () ->
      t.stats.Stats.x86_translated <- (perf t).Vliw.Perf.x86_committed;
      sync_host_stats t)
  @@ fun () ->
  let continue_ = ref true in
  let result = ref Halted in
  while !continue_ do
    tick_devices t;
    (match t.on_boundary with None -> () | Some f -> f (retired t));
    if retired t >= max_insns then begin
      result := Insn_limit;
      continue_ := false
    end
    else if t.cpu.Cpu.halted then begin
      if Cpu.irq_deliverable t.cpu then deliver_irq t
      else if wakeup_possible t then begin
        (* idle: advance time until something fires *)
        Stats.charge t.stats 256;
        tick_devices t
      end
      else begin
        result := Halted;
        continue_ := false
      end
    end
    else if Cpu.irq_deliverable t.cpu then deliver_irq t
    else begin
      let eip = Cpu.committed_eip t.cpu in
      (* Forward-progress watchdog: if successive dispatch iterations
         retire nothing at the same eip (a translation that always rolls
         back — e.g. under a spoofed-interrupt storm — retires nothing),
         force one interpreter step.  The interpreter commits per
         instruction, so this provably breaks any rollback livelock: the
         safety-net invariant. *)
      let r = retired t in
      if r <> t.last_retired || eip <> t.stall_eip then begin
        t.last_retired <- r;
        t.stall_eip <- eip;
        t.stalls <- 0
      end
      else t.stalls <- t.stalls + 1;
      if t.stalls >= t.cfg.Config.stall_limit then begin
        t.stalls <- 0;
        t.stats.Stats.progress_forces <- t.stats.Stats.progress_forces + 1;
        ignore (Interp.step t.interp)
      end
      else if Adapt.quarantined t.adapt eip then begin
        (* the bottom of the demotion ladder: interpreter-only *)
        t.stats.Stats.quarantined_steps <-
          t.stats.Stats.quarantined_steps + 1;
        ignore (Interp.step t.interp)
      end
      else
        match Tcache.lookup t.tcache eip with
        | Some tr -> run_translation t tr
        | None ->
            let counter = Profile.counter t.profile eip in
            if
              Adapt.hot t.adapt eip
              || !counter >= t.cfg.Config.translate_threshold
            then
              match translate t eip with
              | Some tr -> run_translation t tr
              | None ->
                  (* containment fallback / quarantined mid-check *)
                  ignore (Interp.step t.interp)
            else ignore (Interp.step_counted t.interp counter)
    end
  done;
  !result

(** The speculation non-interference probe: is ANY speculative state
    observable right now?  Meaningful at consistent boundaries — in
    particular immediately after a rollback ({!t.on_rollback}), where
    the answer must always be [no]: working registers match committed,
    the gated store buffer is empty, and no alias-detection range is
    still armed. *)
let speculation_visible t =
  let exec = t.cpu.Cpu.exec in
  (not (Vliw.Regfile.consistent exec.Vliw.Exec.regs))
  || (not (Vliw.Storebuf.is_empty exec.Vliw.Exec.sbuf))
  || exec.Vliw.Exec.alias.Vliw.Alias.any_armed

(** Headline metric: molecules per retired x86 instruction. *)
let mpi t =
  let r = retired t in
  if r = 0 then 0.0 else float_of_int (total_molecules t) /. float_of_int r
