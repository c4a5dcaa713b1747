(** CMS configuration: the knobs something sets, and fixed constants.

    {!t} holds what callers vary: the ablation axes ([enable_*],
    [force_self_check]; the experiment harness and [cmsrun]'s flags,
    e.g. no reordering for Figure 2, no alias hardware for Figure 3,
    no fine-grain protection for Table 1), the sweeps
    ([translate_threshold], [max_region_insns], [alias_slots],
    [sbuf_capacity]), the capacities the chaos layer scrambles
    ([tcache_capacity], [adapt_capacity], with [sbuf_capacity]),
    [unroll_limit] (the property tests; an AOT image must agree on it),
    [lookup_cost] (the chained-versus-dispatcher differential runs it
    at 0) and [host_fast_paths] (the fuzz fast-path oracle and the
    bench's fast-path ladder).  The ladder budgets, the adaptation
    thresholds, the other molecule charges and the fine-grain cache
    size are fixed constants, as in CMS.

    Cost model: the real interpreter, translator and fault handlers are
    themselves native code, so the simulator charges them in molecules,
    order-of-magnitude figures consistent with published DBT systems
    (interpreter ~tens of host ops per guest instruction; translator
    ~thousands per translated instruction). *)

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
  tcache_capacity : int;  (** translations before a full flush (GC) *)
  adapt_capacity : int;
      (** policy-table entries before coldest-entry eviction *)
  (* --- cost model (molecules) --- *)
  lookup_cost : int;  (** per tcache lookup on an unchained path *)
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
    tcache_capacity = 8192;
    adapt_capacity = 1024;
    lookup_cost = 15;
    host_fast_paths = true;
  }

(* --- fixed constants: no caller varies them, no image records them --- *)

(* adaptive-retranslation thresholds *)
let spec_fault_limit = 3
(** speculative failures of one translation before retranslating more
    conservatively *)

let genuine_fault_limit = 3  (* genuine x86 faults before narrowing the region *)
let smc_false_limit = 2  (* false protection faults before self-reval *)

let smc_disarm_limit = 8
(** self-revalidation disarms of one page before its translations turn
    self-checking: a disarm cycle that keeps repeating means the writer
    lives on the page itself, which self-revalidation cannot handle
    (§3.6.2) *)

(* recovery hardening: the demotion ladder and its budgets *)
let demote_limit = 3
(** spec-fault escalations of one entry before the hard conservative
    policy (no speculation, tiny regions) *)

let quarantine_limit = 5
(** escalations before interpreter-only quarantine — the bound that
    makes an always-faulting translation provably terminate in
    interpreter mode *)

let translate_fail_limit = 3
(** contained translator failures of one entry before quarantine *)

let stall_limit = 16
(** consecutive dispatches with no architectural progress before the
    dispatcher forces an interpreter step (forward-progress watchdog) *)

(* cost model (molecules) *)
let interp_cost = 45  (* per interpreted x86 instruction *)
let translate_cost = 4000  (* per x86 instruction translated *)
let rollback_cost = 4  (* per rollback (paper: < 2 branch misses) *)
let fault_handler_cost = 300  (* per native fault taken (CMS entry) *)
let fg_install_cost = 60  (* per fine-grain cache software refill *)
let reval_cost_per_byte = 1  (* prologue compare cost (self-reval) *)
