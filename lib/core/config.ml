(** CMS configuration: feature knobs and the molecule cost model.

    The experiments in the paper are ablations over exactly these knobs
    (suppress reordering for Figure 2, no alias hardware for Figure 3,
    no fine-grain protection for Table 1, force self-checking for
    §3.6.3, disable self-revalidation for §3.6.2).

    Cost model: the real interpreter, translator and fault handlers are
    themselves native code, so the simulator charges them in molecules.
    The defaults are order-of-magnitude figures consistent with
    published DBT systems (interpreter ~tens of host ops per guest
    instruction; translator ~thousands per translated instruction) and
    are deliberately configurable — the experiment harness reports how
    conclusions depend on them. *)

type t = {
  (* --- feature knobs (the paper's ablation axes) --- *)
  enable_reorder : bool;  (** allow load/store reordering (Fig. 2) *)
  enable_alias_hw : bool;  (** alias hardware present (Fig. 3) *)
  enable_fine_grain : bool;  (** fine-grain protection (Table 1) *)
  enable_chaining : bool;  (** translation chaining (§2) *)
  enable_self_reval : bool;  (** self-revalidating translations (§3.6.2) *)
  enable_self_check : bool;  (** self-checking translations (§3.6.3) *)
  enable_stylized : bool;  (** stylized-SMC immediate reload (§3.6.4) *)
  enable_groups : bool;  (** translation groups (§3.6.5) *)
  force_self_check : bool;  (** force every translation self-checking *)
  (* --- sizing --- *)
  translate_threshold : int;  (** interpreter executions before translating *)
  max_region_insns : int;  (** region size cap (paper: up to 200) *)
  unroll_limit : int;
      (** how many times a trace may revisit the same instruction —
          loop unrolling inside regions; cross-iteration load/store
          reordering is where speculation pays most *)
  alias_slots : int;
  sbuf_capacity : int;
  fg_capacity : int;  (** fine-grain cache entries *)
  tcache_capacity : int;  (** translations before a full flush (GC) *)
  (* --- adaptive-retranslation thresholds --- *)
  spec_fault_limit : int;
      (** speculative failures of one translation before retranslating
          more conservatively *)
  genuine_fault_limit : int;
      (** genuine x86 faults before narrowing the region *)
  smc_false_limit : int;
      (** protection faults with unchanged code before self-reval *)
  (* --- recovery hardening: the demotion ladder and its budgets --- *)
  adapt_capacity : int;
      (** policy-table entries before coldest-entry eviction *)
  demote_limit : int;
      (** spec-fault escalations of one entry before the hard
          conservative policy (no speculation, tiny regions) *)
  quarantine_limit : int;
      (** escalations before interpreter-only quarantine — the bound
          that makes an always-faulting translation provably terminate
          in interpreter mode *)
  translate_fail_limit : int;
      (** contained translator failures of one entry before quarantine *)
  stall_limit : int;
      (** consecutive dispatches with no architectural progress before
          the dispatcher forces an interpreter step (forward-progress
          watchdog) *)
  (* --- cost model (molecules) --- *)
  interp_cost : int;  (** per interpreted x86 instruction *)
  translate_cost : int;  (** per x86 instruction translated *)
  rollback_cost : int;  (** per rollback (paper: < 2 branch misses) *)
  lookup_cost : int;  (** per tcache lookup on an unchained path *)
  fault_handler_cost : int;  (** per native fault taken (CMS entry) *)
  fg_install_cost : int;  (** per fine-grain cache software refill *)
  reval_cost_per_byte : int;  (** prologue compare cost (self-reval) *)
  (* --- host-side fast paths --- *)
  host_fast_paths : bool;
      (** enable the host-side caching layers: the MMU software TLB,
          the decoded-instruction cache in the interpreter, and the
          RAM fast path that bypasses bus dispatch.  Observationally
          invisible by construction (each layer has an explicit
          invalidation contract; the differential suite pins it) —
          the knob exists to measure them and to fall back if a
          contract is ever in doubt. *)
}

let default =
  {
    enable_reorder = true;
    enable_alias_hw = true;
    enable_fine_grain = true;
    enable_chaining = true;
    enable_self_reval = true;
    enable_self_check = true;
    enable_stylized = true;
    enable_groups = true;
    force_self_check = false;
    translate_threshold = 24;
    max_region_insns = 200;
    unroll_limit = 2;
    alias_slots = 8;
    sbuf_capacity = 64;
    fg_capacity = 8;
    tcache_capacity = 8192;
    spec_fault_limit = 3;
    genuine_fault_limit = 3;
    smc_false_limit = 2;
    adapt_capacity = 1024;
    demote_limit = 3;
    quarantine_limit = 5;
    translate_fail_limit = 3;
    stall_limit = 16;
    interp_cost = 45;
    translate_cost = 4000;
    rollback_cost = 4;
    lookup_cost = 15;
    fault_handler_cost = 300;
    fg_install_cost = 60;
    reval_cost_per_byte = 1;
    host_fast_paths = true;
  }
