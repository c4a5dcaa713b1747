(** Stable codecs for the core record types.

    One {!Codec.field} table per record, in a fixed field order,
    replacing every [Marshal]-based digest in the tree: the byte image
    of a [Config]/[Stats]/[Perf]/[Policy] value is defined by this
    module alone, so fingerprints are format-versioned rather than
    OCaml-compiler-versioned, and snapshot images interoperate across
    builds.  The encoder and the decoder walk the same table.

    Changing any record layout requires adding the field to its table
    here (for [Stats], to {!Cms.Stats.counters}, which {!stats} walks)
    *and* bumping the container version of the images that embed it
    ({!Snapshot.version} / {!Journal.version} / {!Aot.version}).  The
    format pins in the test suite move with any such change. *)

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

let config : Cms.Config.t Codec.codec =
  let open Cms.Config in
  Codec.(
    record
      [
        field bool (fun c -> c.enable_reorder) (fun c v -> { c with enable_reorder = v });
        field bool (fun c -> c.enable_alias_hw) (fun c v -> { c with enable_alias_hw = v });
        field bool (fun c -> c.enable_fine_grain) (fun c v -> { c with enable_fine_grain = v });
        field bool (fun c -> c.enable_chaining) (fun c v -> { c with enable_chaining = v });
        field bool (fun c -> c.enable_self_reval) (fun c v -> { c with enable_self_reval = v });
        field bool (fun c -> c.enable_self_check) (fun c v -> { c with enable_self_check = v });
        field bool (fun c -> c.enable_stylized) (fun c v -> { c with enable_stylized = v });
        field bool (fun c -> c.enable_groups) (fun c v -> { c with enable_groups = v });
        field bool (fun c -> c.force_self_check) (fun c v -> { c with force_self_check = v });
        field int (fun c -> c.translate_threshold) (fun c v -> { c with translate_threshold = v });
        field int (fun c -> c.max_region_insns) (fun c v -> { c with max_region_insns = v });
        field int (fun c -> c.unroll_limit) (fun c v -> { c with unroll_limit = v });
        field int (fun c -> c.alias_slots) (fun c v -> { c with alias_slots = v });
        field int (fun c -> c.sbuf_capacity) (fun c v -> { c with sbuf_capacity = v });
        field int (fun c -> c.tcache_capacity) (fun c v -> { c with tcache_capacity = v });
        field int (fun c -> c.adapt_capacity) (fun c v -> { c with adapt_capacity = v });
        field int (fun c -> c.lookup_cost) (fun c v -> { c with lookup_cost = v });
        field bool (fun c -> c.host_fast_paths) (fun c v -> { c with host_fast_paths = v });
      ]
      (fun () -> default))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

(* Every counter of {!Cms.Stats.counters}, in table order. *)
let stats : Cms.Stats.t Codec.field list =
  List.map
    (fun k -> Codec.mut Codec.int k.Cms.Stats.get k.Cms.Stats.set)
    Cms.Stats.counters

(* ------------------------------------------------------------------ *)
(* Vliw.Perf                                                           *)
(* ------------------------------------------------------------------ *)

let perf : Vliw.Perf.t Codec.field list =
  let open Vliw.Perf in
  Codec.
    [
      mut int (fun p -> p.molecules) (fun p v -> p.molecules <- v);
      mut int (fun p -> p.atoms) (fun p v -> p.atoms <- v);
      mut int (fun p -> p.nops) (fun p v -> p.nops <- v);
      mut int (fun p -> p.loads) (fun p v -> p.loads <- v);
      mut int (fun p -> p.stores) (fun p v -> p.stores <- v);
      mut int (fun p -> p.commits) (fun p v -> p.commits <- v);
      mut int (fun p -> p.x86_committed) (fun p v -> p.x86_committed <- v);
      mut int (fun p -> p.rollbacks) (fun p v -> p.rollbacks <- v);
      mut int (fun p -> p.exits_taken) (fun p v -> p.exits_taken <- v);
      mut int (fun p -> p.x86_fault_atoms) (fun p v -> p.x86_fault_atoms <- v);
      mut int (fun p -> p.alias_faults) (fun p v -> p.alias_faults <- v);
      mut int (fun p -> p.mmio_spec_faults) (fun p v -> p.mmio_spec_faults <- v);
      mut int (fun p -> p.smc_faults) (fun p v -> p.smc_faults <- v);
      mut int (fun p -> p.sbuf_overflows) (fun p v -> p.sbuf_overflows <- v);
      mut int (fun p -> p.interrupts_taken) (fun p v -> p.interrupts_taken <- v);
    ]

(* ------------------------------------------------------------------ *)
(* Policy                                                              *)
(* ------------------------------------------------------------------ *)

(* [ISet] elements are written sorted ascending ([ISet.elements]), so
   equal sets give equal bytes regardless of internal tree shape. *)
let iset =
  {
    Codec.write = (fun w s -> Codec.w_list w Codec.w_int (Cms.Policy.ISet.elements s));
    read = (fun r -> Cms.Policy.ISet.of_list (Codec.r_list r Codec.r_int));
  }

let policy : Cms.Policy.t Codec.codec =
  let open Cms.Policy in
  Codec.(
    record
      [
        field bool (fun p -> p.no_reorder) (fun p v -> { p with no_reorder = v });
        field bool (fun p -> p.no_alias) (fun p v -> { p with no_alias = v });
        field int (fun p -> p.max_insns) (fun p v -> { p with max_insns = v });
        field int (fun p -> p.unroll) (fun p v -> { p with unroll = v });
        field bool (fun p -> p.self_check) (fun p v -> { p with self_check = v });
        field bool (fun p -> p.self_reval) (fun p v -> { p with self_reval = v });
        field bool (fun p -> p.interp_only) (fun p v -> { p with interp_only = v });
        field iset (fun p -> p.interp_insns) (fun p v -> { p with interp_insns = v });
        field iset (fun p -> p.stylized_imms) (fun p v -> { p with stylized_imms = v });
      ]
      (fun () -> default Cms.Config.default))
