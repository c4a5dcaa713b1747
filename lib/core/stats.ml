(** CMS-level statistics, layered over the host {!Vliw.Perf} counters.

    The headline metric everywhere is *molecules per retired x86
    instruction* (the paper's Table 1 metric).  Total molecules =
    molecules executed by translations + cost-model charges for the
    interpreter, the translator and the runtime's fault handling.

    Hot paths bump the record's fields directly; {!counters} declares
    every counter once for everything that walks them all (snapshot
    codec, strict digests, printers, fleet totals). *)

type t = {
  mutable x86_interp : int;  (** x86 insns retired by the interpreter *)
  mutable x86_translated : int;  (** x86 insns retired from the tcache *)
  mutable translations : int;
  mutable retranslations : int;
  mutable invalidations : int;
  mutable insns_translated : int;  (** x86 insns fed to the translator *)
  mutable translated_atoms : int;  (** emitted code size in atoms *)
  mutable translations_verified : int;
      (** fresh compiles accepted by the static verifier (every
          {!Codegen.compile_presnapped} runs it; zero-instruction stubs
          and shared-store hits are not compiles) *)
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
          shared store (each already passed the verifier inside
          {!Codegen.compile_presnapped}; the store takes it unless the
          key is live or poisoned) *)
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

(** Total molecules: host-executed plus cost-model charges. *)
let total_molecules t (perf : Vliw.Perf.t) =
  perf.Vliw.Perf.molecules + t.charged_molecules

(* ------------------------------------------------------------------ *)
(* The counter table                                                   *)
(* ------------------------------------------------------------------ *)

(** One counter: its name (the record field's), the print group it
    reports under, whether strict digests zero it, and its accessors. *)
type counter = {
  name : string;
  group : string;
  host : bool;
      (** host-side bookkeeping that legitimately differs across
          equivalent runs (fast paths on/off, resumed vs uninterrupted,
          which fleet machine published first): strict digests zero it.
          A guest-visible or cost-model counter must never carry it. *)
  get : t -> int;
  set : t -> int -> unit;
}

(** Every counter, in snapshot-codec order: the STAT section, strict
    digests, the printers and fleet totals all walk this list, so it is
    the one place a counter is declared.  Appending changes the STAT
    bytes (a format-version bump); the three [bg_*] fields are not in
    it. *)
let counters =
  let c ?(host = false) group name get set = { name; group; host; get; set } in
  [
    c "translate" "x86_interp"
      (fun s -> s.x86_interp) (fun s v -> s.x86_interp <- v);
    c "translate" "x86_translated"
      (fun s -> s.x86_translated) (fun s v -> s.x86_translated <- v);
    c "translate" "translations"
      (fun s -> s.translations) (fun s v -> s.translations <- v);
    c "translate" "retranslations"
      (fun s -> s.retranslations) (fun s v -> s.retranslations <- v);
    c "translate" "invalidations"
      (fun s -> s.invalidations) (fun s v -> s.invalidations <- v);
    c "translate" "insns_translated"
      (fun s -> s.insns_translated) (fun s v -> s.insns_translated <- v);
    c "translate" "translated_atoms"
      (fun s -> s.translated_atoms) (fun s v -> s.translated_atoms <- v);
    c "translate" "translations_verified"
      (fun s -> s.translations_verified)
      (fun s v -> s.translations_verified <- v);
    c "recovery" "spec_faults"
      (fun s -> s.spec_faults) (fun s v -> s.spec_faults <- v);
    c "recovery" "genuine_faults"
      (fun s -> s.genuine_faults) (fun s v -> s.genuine_faults <- v);
    c "irq" "irq_delivered"
      (fun s -> s.irq_delivered) (fun s v -> s.irq_delivered <- v);
    c "irq" "irq_rollbacks"
      (fun s -> s.irq_rollbacks) (fun s v -> s.irq_rollbacks <- v);
    c "chain" "chain_patches"
      (fun s -> s.chain_patches) (fun s v -> s.chain_patches <- v);
    c "translate" "lookups"
      (fun s -> s.lookups) (fun s v -> s.lookups <- v);
    c "recovery" "fault_entries"
      (fun s -> s.fault_entries) (fun s v -> s.fault_entries <- v);
    c "smc" "fg_installs"
      (fun s -> s.fg_installs) (fun s v -> s.fg_installs <- v);
    c "smc" "reval_checks"
      (fun s -> s.reval_checks) (fun s v -> s.reval_checks <- v);
    c "smc" "reval_hits"
      (fun s -> s.reval_hits) (fun s v -> s.reval_hits <- v);
    c "smc" "selfcheck_fails"
      (fun s -> s.selfcheck_fails) (fun s v -> s.selfcheck_fails <- v);
    c "smc" "group_hits"
      (fun s -> s.group_hits) (fun s v -> s.group_hits <- v);
    c "recovery" "tcache_flushes"
      (fun s -> s.tcache_flushes) (fun s v -> s.tcache_flushes <- v);
    c "translate" "charged_molecules"
      (fun s -> s.charged_molecules) (fun s v -> s.charged_molecules <- v);
    c "recovery" "containments"
      (fun s -> s.containments) (fun s v -> s.containments <- v);
    c "recovery" "demotions"
      (fun s -> s.demotions) (fun s v -> s.demotions <- v);
    c "recovery" "quarantines"
      (fun s -> s.quarantines) (fun s v -> s.quarantines <- v);
    c "recovery" "quarantined_steps"
      (fun s -> s.quarantined_steps) (fun s v -> s.quarantined_steps <- v);
    c "recovery" "progress_forces"
      (fun s -> s.progress_forces) (fun s v -> s.progress_forces <- v);
    c "recovery" "tcache_evictions"
      (fun s -> s.tcache_evictions) (fun s v -> s.tcache_evictions <- v);
    c "recovery" "tcache_evicted"
      (fun s -> s.tcache_evicted) (fun s v -> s.tcache_evicted <- v);
    c "recovery" "adapt_evictions"
      (fun s -> s.adapt_evictions) (fun s v -> s.adapt_evictions <- v);
    c ~host:true "host" "tlb_hits"
      (fun s -> s.tlb_hits) (fun s v -> s.tlb_hits <- v);
    c ~host:true "host" "tlb_misses"
      (fun s -> s.tlb_misses) (fun s v -> s.tlb_misses <- v);
    c ~host:true "host" "dcache_hits"
      (fun s -> s.dcache_hits) (fun s v -> s.dcache_hits <- v);
    c ~host:true "host" "dcache_misses"
      (fun s -> s.dcache_misses) (fun s v -> s.dcache_misses <- v);
    c ~host:true "host" "dcache_invalidations"
      (fun s -> s.dcache_invalidations)
      (fun s v -> s.dcache_invalidations <- v);
    c ~host:true "host" "ram_fast_reads"
      (fun s -> s.ram_fast_reads) (fun s v -> s.ram_fast_reads <- v);
    c ~host:true "host" "ram_fast_writes"
      (fun s -> s.ram_fast_writes) (fun s v -> s.ram_fast_writes <- v);
    c ~host:true "persist" "snapshots_written"
      (fun s -> s.snapshots_written) (fun s v -> s.snapshots_written <- v);
    c ~host:true "persist" "snapshot_bytes"
      (fun s -> s.snapshot_bytes) (fun s v -> s.snapshot_bytes <- v);
    c ~host:true "persist" "journal_events"
      (fun s -> s.journal_events) (fun s v -> s.journal_events <- v);
    c ~host:true "persist" "resumes"
      (fun s -> s.resumes) (fun s v -> s.resumes <- v);
    c ~host:true "aot" "aot_loaded"
      (fun s -> s.aot_loaded) (fun s v -> s.aot_loaded <- v);
    c ~host:true "aot" "aot_rejected"
      (fun s -> s.aot_rejected) (fun s v -> s.aot_rejected <- v);
    c ~host:true "aot" "aot_hits"
      (fun s -> s.aot_hits) (fun s v -> s.aot_hits <- v);
    c ~host:true "aot" "aot_x86_retired"
      (fun s -> s.aot_x86_retired) (fun s v -> s.aot_x86_retired <- v);
    c ~host:true "aot" "aot_invalidated"
      (fun s -> s.aot_invalidated) (fun s v -> s.aot_invalidated <- v);
    c ~host:true "chain" "closures_compiled"
      (fun s -> s.closures_compiled) (fun s v -> s.closures_compiled <- v);
    c ~host:true "chain" "chained_exits_taken"
      (fun s -> s.chained_exits_taken) (fun s v -> s.chained_exits_taken <- v);
    c ~host:true "chain" "chain_unlinks_evict"
      (fun s -> s.chain_unlinks_evict) (fun s v -> s.chain_unlinks_evict <- v);
    c ~host:true "chain" "chain_unlinks_demote"
      (fun s -> s.chain_unlinks_demote)
      (fun s v -> s.chain_unlinks_demote <- v);
    c ~host:true "chain" "chain_unlinks_smc"
      (fun s -> s.chain_unlinks_smc) (fun s v -> s.chain_unlinks_smc <- v);
    c ~host:true "chain" "chain_unlinks_aot"
      (fun s -> s.chain_unlinks_aot) (fun s v -> s.chain_unlinks_aot <- v);
    c ~host:true "chain" "chain_unlinks_chaos"
      (fun s -> s.chain_unlinks_chaos) (fun s v -> s.chain_unlinks_chaos <- v);
    c "irq" "irq_raised"
      (fun s -> s.irq_raised) (fun s v -> s.irq_raised <- v);
    c "irq" "irq_deferred"
      (fun s -> s.irq_deferred) (fun s v -> s.irq_deferred <- v);
    c "irq" "nic_rx_frames"
      (fun s -> s.nic_rx_frames) (fun s v -> s.nic_rx_frames <- v);
    c "irq" "nic_tx_frames"
      (fun s -> s.nic_tx_frames) (fun s v -> s.nic_tx_frames <- v);
    c "irq" "nic_rx_dropped"
      (fun s -> s.nic_rx_dropped) (fun s v -> s.nic_rx_dropped <- v);
    c "irq" "nic_irqs"
      (fun s -> s.nic_irqs) (fun s v -> s.nic_irqs <- v);
    c "irq" "nic_irq_coalesced"
      (fun s -> s.nic_irq_coalesced) (fun s v -> s.nic_irq_coalesced <- v);
    c ~host:true "store" "store_hits"
      (fun s -> s.store_hits) (fun s v -> s.store_hits <- v);
    c ~host:true "store" "store_misses"
      (fun s -> s.store_misses) (fun s v -> s.store_misses <- v);
    c ~host:true "store" "store_rejects"
      (fun s -> s.store_rejects) (fun s v -> s.store_rejects <- v);
    c ~host:true "store" "store_quarantines"
      (fun s -> s.store_quarantines) (fun s v -> s.store_quarantines <- v);
    c ~host:true "store" "store_published"
      (fun s -> s.store_published) (fun s v -> s.store_published <- v);
  ]

(** Print groups, in order of first appearance in {!counters}. *)
let groups =
  List.fold_left
    (fun gs c -> if List.mem c.group gs then gs else gs @ [ c.group ])
    [] counters

(** [group: name=value ...] for every counter of [group]. *)
let pp_group group ppf t =
  Fmt.pf ppf "%s:" group;
  List.iter
    (fun c -> if c.group = group then Fmt.pf ppf " %s=%d" c.name (c.get t))
    counters

(** A fresh record holding [t]'s values. *)
let copy t = { t with x86_interp = t.x86_interp }

(** [into] += [t], counter by counter. *)
let add ~into t =
  List.iter (fun c -> c.set into (c.get into + c.get t)) counters
