(** Translator intermediate representation.

    IR operations reuse the {!Vliw.Atom} vocabulary but with an open
    register space: numbers below [Vliw.Abi.tmp_base] are the dedicated
    guest-state registers; numbers from [vreg_base] up are virtual
    temporaries that register allocation later maps into the host
    temporary range.  Branch targets in IR atoms are *label ids*, and
    [Exit i] refers to the block's exit table.

    Each op carries the index of the x86 instruction it implements (for
    retired-instruction accounting at exits) and, for memory ops, a
    program-order sequence number the scheduler uses for reordering
    decisions and speculation marking. *)

type label = int

let vreg_base = 1024
let is_vreg r = r >= vreg_base
let is_guest r = r < Vliw.Abi.tmp_base

(** Dense index of a register: host registers first, then the virtual
    temporaries.  An IR whose last temporary is [next_vreg - 1] indexes
    into [0, reg_index next_vreg). *)
let reg_index r = if is_vreg r then Vliw.Abi.num_regs + r - vreg_base else r

type op = {
  mutable atom : Vliw.Atom.t;
  x86_idx : int;
  mem_seq : int;  (** program order among memory ops; -1 for non-mem *)
  mutable base_ver : int;
      (** def-version of the base register at this op (memory ops only);
          used for static disambiguation *)
  mutable barrier : bool;
      (** scheduling barrier: a loop back-edge branch; nothing from the
          code after it may hoist above it (it would re-execute every
          iteration) *)
  mutable base_abs : int option;
      (** statically known absolute value of the base register, when the
          trace itself materialized it (e.g. absolute addressing);
          enables exact disambiguation — both disjointness and
          must-alias *)
}

type item = Op of op | Lbl of label

type t = {
  mutable items : item list;  (** reversed during construction *)
  mutable next_vreg : int;
  mutable next_label : int;
  mutable next_seq : int;
  mutable exits : Vliw.Code.exit list;  (** reversed *)
}

let create () =
  { items = []; next_vreg = vreg_base; next_label = 0; next_seq = 0; exits = [] }

let fresh_vreg t =
  let v = t.next_vreg in
  t.next_vreg <- v + 1;
  v

let fresh_label t =
  let l = t.next_label in
  t.next_label <- l + 1;
  l

let emit t ~x86_idx atom =
  let mem_seq =
    if Vliw.Atom.is_mem atom then begin
      let s = t.next_seq in
      t.next_seq <- s + 1;
      s
    end
    else -1
  in
  t.items <- Op { atom; x86_idx; mem_seq; base_ver = 0; barrier = false; base_abs = None } :: t.items

let emit_label t l = t.items <- Lbl l :: t.items

(** Register an exit; returns its index for [Atom.Exit]. *)
let add_exit t ~target ~kind ~x86_retired =
  let idx = List.length t.exits in
  t.exits <-
    { Vliw.Code.target; kind; x86_retired } :: t.exits;
  idx

let items t = List.rev t.items
let exits t = Array.of_list (List.rev t.exits)

let pp_item fmt = function
  | Op o -> Fmt.pf fmt "  [%d] %a" o.x86_idx Vliw.Atom.pp o.atom
  | Lbl l -> Fmt.pf fmt "L%d:" l

let pp fmt t =
  List.iter (fun i -> Fmt.pf fmt "%a@." pp_item i) (items t)
