(** Stable codecs for the core record types.

    Field-by-field encoders/decoders over {!Codec} with a fixed field
    order, replacing every [Marshal]-based digest in the tree: the byte
    image of a [Config]/[Stats]/[Perf]/[Policy] value is defined by this
    module alone, so fingerprints are format-versioned rather than
    OCaml-compiler-versioned, and snapshot images interoperate across
    builds.

    Changing any record layout requires updating the matching codec here
    *and* bumping the container version of the images that embed it
    ({!Snapshot.version} / {!Journal.version}) — the decoders read
    exactly as many fields as the encoders wrote, so skew shows up as a
    [Codec.Corrupt] rather than silent misinterpretation. *)

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

let w_config b (c : Cms.Config.t) =
  let open Cms.Config in
  Codec.w_bool b c.enable_reorder;
  Codec.w_bool b c.enable_alias_hw;
  Codec.w_bool b c.enable_fine_grain;
  Codec.w_bool b c.enable_chaining;
  Codec.w_bool b c.enable_self_reval;
  Codec.w_bool b c.enable_self_check;
  Codec.w_bool b c.enable_stylized;
  Codec.w_bool b c.enable_groups;
  Codec.w_bool b c.force_self_check;
  Codec.w_int b c.translate_threshold;
  Codec.w_int b c.max_region_insns;
  Codec.w_int b c.unroll_limit;
  Codec.w_int b c.alias_slots;
  Codec.w_int b c.sbuf_capacity;
  Codec.w_int b c.fg_capacity;
  Codec.w_int b c.tcache_capacity;
  Codec.w_int b c.spec_fault_limit;
  Codec.w_int b c.genuine_fault_limit;
  Codec.w_int b c.smc_false_limit;
  Codec.w_int b c.adapt_capacity;
  Codec.w_int b c.demote_limit;
  Codec.w_int b c.quarantine_limit;
  Codec.w_int b c.translate_fail_limit;
  Codec.w_int b c.stall_limit;
  Codec.w_int b c.interp_cost;
  Codec.w_int b c.translate_cost;
  Codec.w_int b c.rollback_cost;
  Codec.w_int b c.lookup_cost;
  Codec.w_int b c.fault_handler_cost;
  Codec.w_int b c.fg_install_cost;
  Codec.w_int b c.reval_cost_per_byte;
  Codec.w_bool b c.host_fast_paths

let r_config r : Cms.Config.t =
  let enable_reorder = Codec.r_bool r in
  let enable_alias_hw = Codec.r_bool r in
  let enable_fine_grain = Codec.r_bool r in
  let enable_chaining = Codec.r_bool r in
  let enable_self_reval = Codec.r_bool r in
  let enable_self_check = Codec.r_bool r in
  let enable_stylized = Codec.r_bool r in
  let enable_groups = Codec.r_bool r in
  let force_self_check = Codec.r_bool r in
  let translate_threshold = Codec.r_int r in
  let max_region_insns = Codec.r_int r in
  let unroll_limit = Codec.r_int r in
  let alias_slots = Codec.r_int r in
  let sbuf_capacity = Codec.r_int r in
  let fg_capacity = Codec.r_int r in
  let tcache_capacity = Codec.r_int r in
  let spec_fault_limit = Codec.r_int r in
  let genuine_fault_limit = Codec.r_int r in
  let smc_false_limit = Codec.r_int r in
  let adapt_capacity = Codec.r_int r in
  let demote_limit = Codec.r_int r in
  let quarantine_limit = Codec.r_int r in
  let translate_fail_limit = Codec.r_int r in
  let stall_limit = Codec.r_int r in
  let interp_cost = Codec.r_int r in
  let translate_cost = Codec.r_int r in
  let rollback_cost = Codec.r_int r in
  let lookup_cost = Codec.r_int r in
  let fault_handler_cost = Codec.r_int r in
  let fg_install_cost = Codec.r_int r in
  let reval_cost_per_byte = Codec.r_int r in
  let host_fast_paths = Codec.r_bool r in
  {
    Cms.Config.enable_reorder;
    enable_alias_hw;
    enable_fine_grain;
    enable_chaining;
    enable_self_reval;
    enable_self_check;
    enable_stylized;
    enable_groups;
    force_self_check;
    translate_threshold;
    max_region_insns;
    unroll_limit;
    alias_slots;
    sbuf_capacity;
    fg_capacity;
    tcache_capacity;
    spec_fault_limit;
    genuine_fault_limit;
    smc_false_limit;
    adapt_capacity;
    demote_limit;
    quarantine_limit;
    translate_fail_limit;
    stall_limit;
    interp_cost;
    translate_cost;
    rollback_cost;
    lookup_cost;
    fault_handler_cost;
    fg_install_cost;
    reval_cost_per_byte;
    host_fast_paths;
  }

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let w_stats b (s : Cms.Stats.t) =
  let open Cms.Stats in
  Codec.w_int b s.x86_interp;
  Codec.w_int b s.x86_translated;
  Codec.w_int b s.translations;
  Codec.w_int b s.retranslations;
  Codec.w_int b s.invalidations;
  Codec.w_int b s.insns_translated;
  Codec.w_int b s.translated_atoms;
  Codec.w_int b s.translations_verified;
  Codec.w_int b s.spec_faults;
  Codec.w_int b s.genuine_faults;
  Codec.w_int b s.irq_delivered;
  Codec.w_int b s.irq_rollbacks;
  Codec.w_int b s.chain_patches;
  Codec.w_int b s.lookups;
  Codec.w_int b s.fault_entries;
  Codec.w_int b s.fg_installs;
  Codec.w_int b s.reval_checks;
  Codec.w_int b s.reval_hits;
  Codec.w_int b s.selfcheck_fails;
  Codec.w_int b s.group_hits;
  Codec.w_int b s.tcache_flushes;
  Codec.w_int b s.charged_molecules;
  Codec.w_int b s.containments;
  Codec.w_int b s.demotions;
  Codec.w_int b s.quarantines;
  Codec.w_int b s.quarantined_steps;
  Codec.w_int b s.progress_forces;
  Codec.w_int b s.tcache_evictions;
  Codec.w_int b s.tcache_evicted;
  Codec.w_int b s.adapt_evictions;
  Codec.w_int b s.tlb_hits;
  Codec.w_int b s.tlb_misses;
  Codec.w_int b s.dcache_hits;
  Codec.w_int b s.dcache_misses;
  Codec.w_int b s.dcache_invalidations;
  Codec.w_int b s.ram_fast_reads;
  Codec.w_int b s.ram_fast_writes;
  Codec.w_int b s.snapshots_written;
  Codec.w_int b s.snapshot_bytes;
  Codec.w_int b s.journal_events;
  Codec.w_int b s.resumes;
  Codec.w_int b s.aot_loaded;
  Codec.w_int b s.aot_rejected;
  Codec.w_int b s.aot_hits;
  Codec.w_int b s.aot_x86_retired;
  Codec.w_int b s.aot_invalidated;
  Codec.w_int b s.closures_compiled;
  Codec.w_int b s.chained_exits_taken;
  Codec.w_int b s.chain_unlinks_evict;
  Codec.w_int b s.chain_unlinks_demote;
  Codec.w_int b s.chain_unlinks_smc;
  Codec.w_int b s.chain_unlinks_aot;
  Codec.w_int b s.chain_unlinks_chaos;
  Codec.w_int b s.irq_raised;
  Codec.w_int b s.irq_deferred;
  Codec.w_int b s.nic_rx_frames;
  Codec.w_int b s.nic_tx_frames;
  Codec.w_int b s.nic_rx_dropped;
  Codec.w_int b s.nic_irqs;
  Codec.w_int b s.nic_irq_coalesced;
  Codec.w_int b s.store_hits;
  Codec.w_int b s.store_misses;
  Codec.w_int b s.store_rejects;
  Codec.w_int b s.store_quarantines;
  Codec.w_int b s.store_published

let r_stats_into r (s : Cms.Stats.t) =
  let open Cms.Stats in
  s.x86_interp <- Codec.r_int r;
  s.x86_translated <- Codec.r_int r;
  s.translations <- Codec.r_int r;
  s.retranslations <- Codec.r_int r;
  s.invalidations <- Codec.r_int r;
  s.insns_translated <- Codec.r_int r;
  s.translated_atoms <- Codec.r_int r;
  s.translations_verified <- Codec.r_int r;
  s.spec_faults <- Codec.r_int r;
  s.genuine_faults <- Codec.r_int r;
  s.irq_delivered <- Codec.r_int r;
  s.irq_rollbacks <- Codec.r_int r;
  s.chain_patches <- Codec.r_int r;
  s.lookups <- Codec.r_int r;
  s.fault_entries <- Codec.r_int r;
  s.fg_installs <- Codec.r_int r;
  s.reval_checks <- Codec.r_int r;
  s.reval_hits <- Codec.r_int r;
  s.selfcheck_fails <- Codec.r_int r;
  s.group_hits <- Codec.r_int r;
  s.tcache_flushes <- Codec.r_int r;
  s.charged_molecules <- Codec.r_int r;
  s.containments <- Codec.r_int r;
  s.demotions <- Codec.r_int r;
  s.quarantines <- Codec.r_int r;
  s.quarantined_steps <- Codec.r_int r;
  s.progress_forces <- Codec.r_int r;
  s.tcache_evictions <- Codec.r_int r;
  s.tcache_evicted <- Codec.r_int r;
  s.adapt_evictions <- Codec.r_int r;
  s.tlb_hits <- Codec.r_int r;
  s.tlb_misses <- Codec.r_int r;
  s.dcache_hits <- Codec.r_int r;
  s.dcache_misses <- Codec.r_int r;
  s.dcache_invalidations <- Codec.r_int r;
  s.ram_fast_reads <- Codec.r_int r;
  s.ram_fast_writes <- Codec.r_int r;
  s.snapshots_written <- Codec.r_int r;
  s.snapshot_bytes <- Codec.r_int r;
  s.journal_events <- Codec.r_int r;
  s.resumes <- Codec.r_int r;
  s.aot_loaded <- Codec.r_int r;
  s.aot_rejected <- Codec.r_int r;
  s.aot_hits <- Codec.r_int r;
  s.aot_x86_retired <- Codec.r_int r;
  s.aot_invalidated <- Codec.r_int r;
  s.closures_compiled <- Codec.r_int r;
  s.chained_exits_taken <- Codec.r_int r;
  s.chain_unlinks_evict <- Codec.r_int r;
  s.chain_unlinks_demote <- Codec.r_int r;
  s.chain_unlinks_smc <- Codec.r_int r;
  s.chain_unlinks_aot <- Codec.r_int r;
  s.chain_unlinks_chaos <- Codec.r_int r;
  s.irq_raised <- Codec.r_int r;
  s.irq_deferred <- Codec.r_int r;
  s.nic_rx_frames <- Codec.r_int r;
  s.nic_tx_frames <- Codec.r_int r;
  s.nic_rx_dropped <- Codec.r_int r;
  s.nic_irqs <- Codec.r_int r;
  s.nic_irq_coalesced <- Codec.r_int r;
  s.store_hits <- Codec.r_int r;
  s.store_misses <- Codec.r_int r;
  s.store_rejects <- Codec.r_int r;
  s.store_quarantines <- Codec.r_int r;
  s.store_published <- Codec.r_int r

(* ------------------------------------------------------------------ *)
(* Vliw.Perf                                                           *)
(* ------------------------------------------------------------------ *)

let w_perf b (p : Vliw.Perf.t) =
  let open Vliw.Perf in
  Codec.w_int b p.molecules;
  Codec.w_int b p.atoms;
  Codec.w_int b p.nops;
  Codec.w_int b p.loads;
  Codec.w_int b p.stores;
  Codec.w_int b p.commits;
  Codec.w_int b p.x86_committed;
  Codec.w_int b p.rollbacks;
  Codec.w_int b p.exits_taken;
  Codec.w_int b p.x86_fault_atoms;
  Codec.w_int b p.alias_faults;
  Codec.w_int b p.mmio_spec_faults;
  Codec.w_int b p.smc_faults;
  Codec.w_int b p.sbuf_overflows;
  Codec.w_int b p.interrupts_taken

let r_perf_into r (p : Vliw.Perf.t) =
  let open Vliw.Perf in
  p.molecules <- Codec.r_int r;
  p.atoms <- Codec.r_int r;
  p.nops <- Codec.r_int r;
  p.loads <- Codec.r_int r;
  p.stores <- Codec.r_int r;
  p.commits <- Codec.r_int r;
  p.x86_committed <- Codec.r_int r;
  p.rollbacks <- Codec.r_int r;
  p.exits_taken <- Codec.r_int r;
  p.x86_fault_atoms <- Codec.r_int r;
  p.alias_faults <- Codec.r_int r;
  p.mmio_spec_faults <- Codec.r_int r;
  p.smc_faults <- Codec.r_int r;
  p.sbuf_overflows <- Codec.r_int r;
  p.interrupts_taken <- Codec.r_int r

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)
(* ------------------------------------------------------------------ *)

(* [ISet] elements are written sorted ascending ([ISet.elements]), so
   equal sets give equal bytes regardless of internal tree shape. *)
let w_policy b (p : Cms.Policy.t) =
  let open Cms.Policy in
  Codec.w_bool b p.no_reorder;
  Codec.w_bool b p.no_alias;
  Codec.w_int b p.max_insns;
  Codec.w_int b p.unroll;
  Codec.w_bool b p.self_check;
  Codec.w_bool b p.self_reval;
  Codec.w_bool b p.interp_only;
  Codec.w_list b Codec.w_int (ISet.elements p.interp_insns);
  Codec.w_list b Codec.w_int (ISet.elements p.stylized_imms)

let r_policy r : Cms.Policy.t =
  let no_reorder = Codec.r_bool r in
  let no_alias = Codec.r_bool r in
  let max_insns = Codec.r_int r in
  let unroll = Codec.r_int r in
  let self_check = Codec.r_bool r in
  let self_reval = Codec.r_bool r in
  let interp_only = Codec.r_bool r in
  let interp_insns =
    Cms.Policy.ISet.of_list (Codec.r_list r Codec.r_int)
  in
  let stylized_imms =
    Cms.Policy.ISet.of_list (Codec.r_list r Codec.r_int)
  in
  {
    Cms.Policy.no_reorder;
    no_alias;
    max_insns;
    unroll;
    self_check;
    self_reval;
    interp_only;
    interp_insns;
    stylized_imms;
  }
