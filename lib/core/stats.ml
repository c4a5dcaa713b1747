(** CMS-level statistics, layered over the host {!Vliw.Perf} counters.

    The headline metric everywhere is *molecules per retired x86
    instruction* (the paper's Table 1 metric).  Total molecules =
    molecules executed by translations + cost-model charges for the
    interpreter, the translator and the runtime's fault handling. *)

type t = {
  mutable x86_interp : int;  (** x86 insns retired by the interpreter *)
  mutable x86_translated : int;  (** x86 insns retired from the tcache *)
  mutable translations : int;
  mutable retranslations : int;
  mutable invalidations : int;
  mutable insns_translated : int;  (** x86 insns fed to the translator *)
  mutable translated_atoms : int;  (** emitted code size in atoms *)
  mutable translations_verified : int;
      (** translations accepted by the static verifier
          ({!Config.verify_translations} on and a verifier installed) *)
  mutable spec_faults : int;  (** native faults that proved speculative *)
  mutable genuine_faults : int;  (** faults that reproduced under interp *)
  mutable irq_delivered : int;
  mutable irq_rollbacks : int;  (** interrupts that interrupted a translation *)
  mutable chain_patches : int;
  mutable lookups : int;  (** dispatcher lookups on unchained paths *)
  mutable fault_entries : int;  (** CMS native-fault handler entries *)
  mutable fg_installs : int;
  mutable reval_checks : int;  (** self-revalidation prologue runs *)
  mutable reval_hits : int;  (** prologue found code unchanged *)
  mutable selfcheck_fails : int;
  mutable group_hits : int;  (** reactivated a grouped translation *)
  mutable tcache_flushes : int;
  mutable charged_molecules : int;  (** cost-model molecules (non-translation) *)
  (* --- recovery hardening (containment, demotion ladder, eviction) --- *)
  mutable containments : int;
      (** exceptions that escaped translate/schedule/codegen and were
          absorbed by the engine's containment boundary *)
  mutable demotions : int;  (** entries dropped to the hard conservative policy *)
  mutable quarantines : int;  (** entries demoted to interpreter-only *)
  mutable quarantined_steps : int;
      (** dispatches interpreted because the entry is quarantined *)
  mutable progress_forces : int;
      (** interpreter steps forced by the forward-progress watchdog *)
  mutable tcache_evictions : int;  (** generational eviction rounds *)
  mutable tcache_evicted : int;  (** translations discarded by eviction *)
  mutable adapt_evictions : int;  (** policy-table entries evicted at capacity *)
  (* --- host fast-path counters (hits/misses of the host-side caches;
     purely observational — no cost-model impact) --- *)
  mutable tlb_hits : int;  (** software-TLB hits in {!Machine.Mmu} *)
  mutable tlb_misses : int;
  mutable dcache_hits : int;  (** decoded-instruction cache hits *)
  mutable dcache_misses : int;
  mutable dcache_invalidations : int;  (** page invalidations + flushes *)
  mutable ram_fast_reads : int;  (** reads/fetches that bypassed the bus *)
  mutable ram_fast_writes : int;  (** writes that bypassed the bus *)
  (* --- persist (checkpoint/restore + deterministic record-replay);
     host-side bookkeeping, normalized away by strict digests --- *)
  mutable snapshots_written : int;  (** snapshot images captured *)
  mutable snapshot_bytes : int;  (** total bytes across those images *)
  mutable journal_events : int;
      (** journal events recorded or replayed into this engine *)
  mutable resumes : int;  (** times this state was restored from an image *)
  (* --- ahead-of-time translation images (static discovery + AOT) --- *)
  mutable aot_loaded : int;  (** translations installed from an AOT image *)
  mutable aot_rejected : int;
      (** image entries refused at install (code bytes diverged from the
          snapshot, or an entry already had a live translation) *)
  mutable aot_hits : int;  (** dispatches served by an AOT translation *)
  mutable aot_x86_retired : int;
      (** x86 instructions retired inside AOT-minted translations *)
  mutable aot_invalidated : int;
      (** AOT translations invalidated (SMC) or evicted at runtime;
          re-translation of those entries falls to the dynamic tier *)
  (* --- closure execution + direct chaining --- *)
  mutable closures_compiled : int;
      (** translations closure-compiled at first dispatch *)
  mutable chained_exits_taken : int;
      (** translation-to-translation transfers that bypassed the
          dispatcher through a patched [Chained] exit *)
  mutable chain_unlinks_evict : int;
      (** chained exits unlinked because a translation died to
          generational eviction, capacity flush or replacement *)
  mutable chain_unlinks_demote : int;
      (** chained exits unlinked by demotion-ladder invalidation *)
  mutable chain_unlinks_smc : int;
      (** chained exits unlinked by SMC/DMA invalidation *)
  mutable chain_unlinks_aot : int;
      (** chained exits unlinked because the dying translation was an
          AOT entry (any trigger) *)
  mutable chain_unlinks_chaos : int;
      (** chained exits forcibly unlinked by the chaos layer's
          unlink storms *)
  (* --- removed background translator: these three stay 0, since
     every translation is synchronous.  They exist only because the
     benchmark's per-layer reader (perfbench/layers.ml) still names
     them; they are not encoded, printed or normalized, and they go
     with the next benchmark change. --- *)
  mutable bg_installed : int;
  mutable bg_overlap_insns : int;
  mutable bg_waits : int;
  (* --- interrupt pressure (device raises vs. CPU delivery; mirrors of
     deterministic machine-side counters, synced by the engine) --- *)
  mutable irq_raised : int;  (** device raises latched by the PIC *)
  mutable irq_deferred : int;
      (** raises that could not become a fresh delivery immediately:
          the line was already latched or masked, so the raise merged
          into the pending latch (delivery deferred) *)
  mutable nic_rx_frames : int;  (** frames delivered into the RX ring *)
  mutable nic_tx_frames : int;  (** frames transmitted from the TX ring *)
  mutable nic_rx_dropped : int;
      (** frames dropped by backpressure: backlog overflow or an
          unarmed RX ring at drain time *)
  mutable nic_irqs : int;  (** interrupts the NIC actually raised *)
  mutable nic_irq_coalesced : int;
      (** RX interrupts suppressed by the mitigation register *)
  (* --- shared translation store (fleet mode) --- *)
  mutable store_hits : int;
      (** translations installed from the shared store after consumer
          revalidation (no local compile needed) *)
  mutable store_misses : int;
      (** store lookups that found no entry for the current
          (entry, source bytes, policy) key *)
  mutable store_rejects : int;
      (** store entries refused at consume time: codec corruption,
          digest mismatch, region drift, or verifier failure *)
  mutable store_quarantines : int;
      (** keys this machine poisoned fleet-wide (first rejection of a
          bad entry; later consumers skip it without revalidating) *)
  mutable store_published : int;
      (** freshly minted translations this machine published into the
          shared store (post publisher-side verification) *)
}

let create () =
  {
    x86_interp = 0;
    x86_translated = 0;
    translations = 0;
    retranslations = 0;
    invalidations = 0;
    insns_translated = 0;
    translated_atoms = 0;
    translations_verified = 0;
    spec_faults = 0;
    genuine_faults = 0;
    irq_delivered = 0;
    irq_rollbacks = 0;
    chain_patches = 0;
    lookups = 0;
    fault_entries = 0;
    fg_installs = 0;
    reval_checks = 0;
    reval_hits = 0;
    selfcheck_fails = 0;
    group_hits = 0;
    tcache_flushes = 0;
    charged_molecules = 0;
    containments = 0;
    demotions = 0;
    quarantines = 0;
    quarantined_steps = 0;
    progress_forces = 0;
    tcache_evictions = 0;
    tcache_evicted = 0;
    adapt_evictions = 0;
    tlb_hits = 0;
    tlb_misses = 0;
    dcache_hits = 0;
    dcache_misses = 0;
    dcache_invalidations = 0;
    ram_fast_reads = 0;
    ram_fast_writes = 0;
    snapshots_written = 0;
    snapshot_bytes = 0;
    journal_events = 0;
    resumes = 0;
    aot_loaded = 0;
    aot_rejected = 0;
    aot_hits = 0;
    aot_x86_retired = 0;
    aot_invalidated = 0;
    closures_compiled = 0;
    chained_exits_taken = 0;
    chain_unlinks_evict = 0;
    chain_unlinks_demote = 0;
    chain_unlinks_smc = 0;
    chain_unlinks_aot = 0;
    chain_unlinks_chaos = 0;
    bg_installed = 0;
    bg_overlap_insns = 0;
    bg_waits = 0;
    irq_raised = 0;
    irq_deferred = 0;
    nic_rx_frames = 0;
    nic_tx_frames = 0;
    nic_rx_dropped = 0;
    nic_irqs = 0;
    nic_irq_coalesced = 0;
    store_hits = 0;
    store_misses = 0;
    store_rejects = 0;
    store_quarantines = 0;
    store_published = 0;
  }

let charge t m = t.charged_molecules <- t.charged_molecules + m

let x86_retired t = t.x86_interp + t.x86_translated

(** Total molecules: host-executed plus cost-model charges. *)
let total_molecules t (perf : Vliw.Perf.t) =
  perf.Vliw.Perf.molecules + t.charged_molecules

(** Molecules per retired x86 instruction — the headline metric. *)
let mpi t perf =
  let retired = x86_retired t in
  if retired = 0 then 0.0
  else float_of_int (total_molecules t perf) /. float_of_int retired

let pp fmt t =
  Fmt.pf fmt
    "x86[interp=%d trans=%d] translations=%d (re=%d inval=%d verif=%d) \
     faults[spec=%d genuine=%d] irq[%d rb=%d] chain=%d lookups=%d \
     smc[fginst=%d reval=%d/%d scfail=%d group=%d] charged=%d"
    t.x86_interp t.x86_translated t.translations t.retranslations
    t.invalidations t.translations_verified t.spec_faults t.genuine_faults
    t.irq_delivered t.irq_rollbacks t.chain_patches t.lookups t.fg_installs
    t.reval_hits t.reval_checks t.selfcheck_fails t.group_hits
    t.charged_molecules

(** Recovery/robustness counters: rollback handling, the demotion
    ladder, containment, and cache-pressure degradation. *)
let pp_recovery fmt t =
  Fmt.pf fmt
    "faults[spec=%d genuine=%d] irq-rollbacks=%d containments=%d \
     ladder[demote=%d quarantine=%d interp-steps=%d] watchdog=%d \
     tcache[flush=%d evict-rounds=%d evicted=%d] adapt-evict=%d"
    t.spec_faults t.genuine_faults t.irq_rollbacks t.containments
    t.demotions t.quarantines t.quarantined_steps t.progress_forces
    t.tcache_flushes t.tcache_evictions t.tcache_evicted t.adapt_evictions

(** The host-side cache counters ({!Config.host_fast_paths} layers). *)
let pp_host fmt t =
  Fmt.pf fmt
    "tlb[hit=%d miss=%d] dcache[hit=%d miss=%d inval=%d] \
     ram-fast[read=%d write=%d]"
    t.tlb_hits t.tlb_misses t.dcache_hits t.dcache_misses
    t.dcache_invalidations t.ram_fast_reads t.ram_fast_writes

(** Persist counters (checkpoint/restore + record-replay). *)
let pp_persist fmt t =
  Fmt.pf fmt
    "snapshots[written=%d bytes=%d] journal-events=%d resumes=%d"
    t.snapshots_written t.snapshot_bytes t.journal_events t.resumes

(** Closure/chaining counters: closures compiled, chained transfers
    taken, and why links were torn down. *)
let pp_chain fmt t =
  Fmt.pf fmt
    "closures=%d chained-exits=%d patches=%d \
     unlinks[evict=%d demote=%d smc=%d aot=%d chaos=%d]"
    t.closures_compiled t.chained_exits_taken t.chain_patches
    t.chain_unlinks_evict t.chain_unlinks_demote t.chain_unlinks_smc
    t.chain_unlinks_aot t.chain_unlinks_chaos

(** Interrupt-pressure counters: device raises vs. CPU deliveries,
    rollbacks forced by asynchronous events, and the NIC's frame /
    backpressure / coalescing accounting. *)
let pp_irq fmt t =
  Fmt.pf fmt
    "irq[raised=%d delivered=%d deferred=%d rollbacks=%d] \
     nic[rx=%d tx=%d dropped=%d irqs=%d coalesced=%d]"
    t.irq_raised t.irq_delivered t.irq_deferred t.irq_rollbacks
    t.nic_rx_frames t.nic_tx_frames t.nic_rx_dropped t.nic_irqs
    t.nic_irq_coalesced

(** Shared-store counters (fleet mode): how much of this machine's
    translation work the fleet's warm store carried, and how much of
    the store it refused to trust. *)
let pp_fleet fmt t =
  Fmt.pf fmt
    "store[hits=%d misses=%d rejects=%d quarantines=%d published=%d] \
     translations=%d"
    t.store_hits t.store_misses t.store_rejects t.store_quarantines
    t.store_published t.translations

(** AOT counters: what the static pass shipped and how much of the run
    it actually carried (AOT hits vs dynamic retranslations). *)
let pp_aot fmt t =
  Fmt.pf fmt
    "aot[loaded=%d rejected=%d inval=%d] hits[aot=%d] x86-from-aot=%d \
     dynamic-translations=%d"
    t.aot_loaded t.aot_rejected t.aot_invalidated t.aot_hits
    t.aot_x86_retired t.translations
