(** IR optimization passes.

    The translator "performs a number of traditional and Crusoe-specific
    optimizations" (paper §2).  Implemented here, all on the linear IR:

    - dead-condition-code elimination: x86 sets flags on almost every
      instruction, but most flag results are overwritten before use;
      retargeting dead flag writes to a scratch register removes the
      serial dependence chain through EFLAGS that would otherwise kill
      VLIW parallelism (Crusoe-specific, enabled by the [fw] field);
    - copy propagation and constant propagation/folding;
    - dead code elimination (pure ALU results only — memory operations
      keep their architectural fault side effects);
    - redundant-load elimination and store-to-load forwarding within
      extended basic blocks.

    Liveness is computed by iterative dataflow over the block graph; a
    [Commit] observes all guest state, which is what makes interior
    flag results deletable while every exit still materializes precise
    x86 flags.  Live sets are dense bitsets over the IR's registers, and
    the fixpoint iterates each block's summary (upward-exposed uses,
    defs), so a compile costs time linear in its ops. *)

module A = Vliw.Atom

(* ------------------------------------------------------------------ *)
(* Register bitsets                                                    *)
(* ------------------------------------------------------------------ *)

(* A set of IR registers, one bit per {!Ir.reg_index}. *)
module Bits = struct
  type t = int array

  let w = Sys.int_size
  let bit = Ir.reg_index
  let create nregs : t = Array.make ((nregs + w - 1) / w) 0

  let mem (s : t) r =
    let b = bit r in
    s.(b / w) land (1 lsl (b mod w)) <> 0

  let add (s : t) r =
    let b = bit r in
    s.(b / w) <- s.(b / w) lor (1 lsl (b mod w))

  let remove (s : t) r =
    let b = bit r in
    s.(b / w) <- s.(b / w) land lnot (1 lsl (b mod w))
end

(* Commit makes all shadowed guest state observable. *)
let add_uses live (a : A.t) =
  match a with
  | A.Commit _ ->
      for r = 0 to Vliw.Abi.shadow_count - 1 do
        Bits.add live r
      done
  | a -> List.iter (Bits.add live) (A.uses a)

(* Backward transfer through one op, in place; [A.uses] is
   flags-precise, so this is exact. *)
let live_before (o : Ir.op) live =
  List.iter (Bits.remove live) (A.defs o.Ir.atom);
  add_uses live o.Ir.atom

type block = {
  label : Ir.label option;
  mutable ops : Ir.op array;
  mutable succs : int list;  (** block indices *)
  live_in : Bits.t;
  live_out : Bits.t;
}

(* ------------------------------------------------------------------ *)
(* Block construction                                                  *)
(* ------------------------------------------------------------------ *)

let build_blocks ~nregs items =
  (* leaders: labels and the op following a branch *)
  let blocks = ref [] in
  let cur = ref [] and cur_label = ref None in
  let flush () =
    if !cur <> [] || !cur_label <> None then begin
      blocks :=
        {
          label = !cur_label;
          ops = Array.of_list (List.rev !cur);
          succs = [];
          live_in = Bits.create nregs;
          live_out = Bits.create nregs;
        }
        :: !blocks;
      cur := [];
      cur_label := None
    end
  in
  List.iter
    (fun item ->
      match item with
      | Ir.Lbl l ->
          flush ();
          cur_label := Some l
      | Ir.Op o ->
          cur := o :: !cur;
          if A.is_branch o.Ir.atom then flush ())
    items;
  flush ();
  let blocks = Array.of_list (List.rev !blocks) in
  (* successor edges *)
  let label_block = Hashtbl.create 16 in
  Array.iteri
    (fun i b -> match b.label with Some l -> Hashtbl.add label_block l i | None -> ())
    blocks;
  Array.iteri
    (fun i b ->
      let n = Array.length b.ops in
      let last = if n = 0 then None else Some b.ops.(n - 1).Ir.atom in
      let fallthrough =
        if i + 1 < Array.length blocks then [ i + 1 ] else []
      in
      b.succs <-
        (match last with
        | Some (A.Br { target }) -> [ Hashtbl.find label_block target ]
        | Some (A.BrCond { target; _ }) | Some (A.BrCmp { target; _ }) ->
            Hashtbl.find label_block target :: fallthrough
        | Some (A.Exit _) -> []
        | _ -> fallthrough))
    blocks;
  blocks

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

(* Each block is summarized once as its upward-exposed uses [gen] and
   its defs [kill], so live_in = gen ∪ (live_out − kill) and every
   fixpoint round costs one pass over the bitset words per block. *)
let compute_liveness ~nregs blocks =
  let summary b =
    let gen = Bits.create nregs and kill = Bits.create nregs in
    for k = Array.length b.ops - 1 downto 0 do
      let o = b.ops.(k) in
      List.iter (fun r -> Bits.add kill r; Bits.remove gen r) (A.defs o.Ir.atom);
      add_uses gen o.Ir.atom
    done;
    (gen, kill)
  in
  let sums = Array.map summary blocks in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = Array.length blocks - 1 downto 0 do
      let b = blocks.(i) in
      let gen, kill = sums.(i) in
      for k = 0 to Array.length b.live_out - 1 do
        let out =
          List.fold_left (fun acc s -> acc lor blocks.(s).live_in.(k)) 0 b.succs
        in
        let inn = gen.(k) lor (out land lnot kill.(k)) in
        if out <> b.live_out.(k) || inn <> b.live_in.(k) then begin
          b.live_out.(k) <- out;
          b.live_in.(k) <- inn;
          changed := true
        end
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Pass 1: dead flag retargeting + DCE                                 *)
(* ------------------------------------------------------------------ *)

(* Pure ops whose results can be discarded when dead.  Memory, control,
   commits, and DivX (faulting) must stay. *)
let is_pure = function
  | A.Nop | A.MovI _ | A.MovR _ | A.Alu _ | A.AluX _ | A.MulX _ | A.SetCond _
  | A.ExtField _ | A.InsField _ ->
      true
  | _ -> false

let dce_and_flags blocks =
  Array.iter
    (fun b ->
      let live = Array.copy b.live_out in
      let keep = ref [] in
      for k = Array.length b.ops - 1 downto 0 do
        let o = b.ops.(k) in
        let defs = A.defs o.Ir.atom in
        let any_live = List.exists (Bits.mem live) defs in
        if (not any_live) && is_pure o.Ir.atom && defs <> [] then
          () (* drop the op *)
        else begin
          (* dead condition codes: drop the flags write entirely, and
             the flags read too unless the *result* consumes flags
             (adc/sbb).  This removes the serial EFLAGS chain between
             consecutive ALU operations. *)
          (match o.Ir.atom with
          | A.AluX ({ fw; fr; op; _ } as r)
            when fw = Vliw.Abi.eflags
                 && (not (Bits.mem live Vliw.Abi.eflags))
                 && op <> A.XNot ->
              let needs_fr = op = A.XAdc || op = A.XSbb in
              o.Ir.atom <-
                A.AluX
                  { r with fw = A.no_flags;
                    fr = (if needs_fr then fr else A.no_flags) }
          | A.MulX ({ fw; _ } as r)
            when fw = Vliw.Abi.eflags && not (Bits.mem live Vliw.Abi.eflags) ->
              o.Ir.atom <- A.MulX { r with fw = A.no_flags; fr = A.no_flags }
          | _ -> ());
          keep := o :: !keep;
          live_before o live
        end
      done;
      b.ops <- Array.of_list !keep)
    blocks

(* ------------------------------------------------------------------ *)
(* Pass 2: copy + constant propagation (per block)                     *)
(* ------------------------------------------------------------------ *)

let subst_src copies s =
  match s with
  | A.R r -> ( match Hashtbl.find_opt copies r with Some s' -> s' | None -> s)
  | A.I _ -> s

let subst_reg copies r =
  match Hashtbl.find_opt copies r with Some (A.R r') -> r' | _ -> r

(* Substitute into an op's sources only.  Register-valued positions
   (Load/Store base, DivX hi/lo, BrCmp a, ...) only accept register
   substitutions. *)
let substitute copies (o : Ir.op) =
  let s = subst_src copies and r = subst_reg copies in
  o.Ir.atom <-
    (match o.Ir.atom with
    | A.MovR { rd; rs } -> (
        match Hashtbl.find_opt copies rs with
        | Some (A.I imm) -> A.MovI { rd; imm }
        | Some (A.R rs') -> A.MovR { rd; rs = rs' }
        | None -> A.MovR { rd; rs })
    | A.Alu a -> A.Alu { a with a = r a.a; b = s a.b }
    | A.AluX a -> A.AluX { a with a = s a.a; b = s a.b }
    | A.MulX a -> A.MulX { a with a = s a.a; b = s a.b }
    | A.DivX a -> A.DivX { a with hi = r a.hi; lo = r a.lo; divisor = s a.divisor }
    | A.ExtField a -> A.ExtField { a with rs = r a.rs }
    | A.InsField a -> A.InsField { a with rs = r a.rs }
    | A.Load a -> A.Load { a with base = r a.base }
    | A.Store a -> A.Store { a with rs = s a.rs; base = r a.base }
    | A.BrCmp a -> A.BrCmp { a with a = r a.a; b = s a.b }
    | atom -> atom)

let mask32 v = v land 0xffffffff
let sext32 v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

let fold_alu op a b =
  match op with
  | A.HAdd -> mask32 (a + b)
  | A.HSub -> mask32 (a - b)
  | A.HAnd -> a land b
  | A.HOr -> a lor b
  | A.HXor -> a lxor b
  | A.HShl -> mask32 (a lsl (b land 31))
  | A.HShr -> a lsr (b land 31)
  | A.HSar -> mask32 (sext32 a asr (b land 31))
  | A.HMul -> mask32 (a * b)

(* [idx] maps a register to the keys of [tbl] that may mention it;
   [stale k r] confirms that key [k] still does.  Killing [r] drops
   every such key, without a scan of the whole table. *)
let kill_indexed tbl idx ~stale r =
  match Hashtbl.find_opt idx r with
  | None -> ()
  | Some ks ->
      List.iter (fun k -> if stale k r then Hashtbl.remove tbl k) ks;
      Hashtbl.remove idx r

let index idx r k =
  Hashtbl.replace idx r
    (k :: (match Hashtbl.find_opt idx r with Some ks -> ks | None -> []))

let copy_const_prop blocks =
  Array.iter
    (fun b ->
      let copies : (int, A.src) Hashtbl.t = Hashtbl.create 32 in
      (* source register -> the keys copied from it *)
      let users : (int, int list) Hashtbl.t = Hashtbl.create 32 in
      let kill r =
        Hashtbl.remove copies r;
        (* drop mappings whose source was just redefined *)
        kill_indexed copies users r ~stale:(fun k r ->
            Hashtbl.find_opt copies k = Some (A.R r))
      in
      Array.iter
        (fun (o : Ir.op) ->
          substitute copies o;
          (* fold a fully-constant host ALU op *)
          (match o.Ir.atom with
          | A.Alu { op; rd; a; b = A.I bi } -> (
              match Hashtbl.find_opt copies a with
              | Some (A.I ai) -> o.Ir.atom <- A.MovI { rd; imm = fold_alu op ai bi }
              | _ -> ())
          | _ -> ());
          List.iter kill (A.defs o.Ir.atom);
          (* record new copy facts (temps only as keys) *)
          match o.Ir.atom with
          | A.MovI { rd; imm } when Ir.is_vreg rd ->
              Hashtbl.replace copies rd (A.I imm)
          | A.MovR { rd; rs } when Ir.is_vreg rd ->
              Hashtbl.replace copies rd (A.R rs);
              index users rs rd
          | _ -> ())
        b.ops)
    blocks

(* ------------------------------------------------------------------ *)
(* Pass 3: redundant loads & store-to-load forwarding (per block)      *)
(* ------------------------------------------------------------------ *)

let redundant_loads blocks =
  Array.iter
    (fun b ->
      (* (base reg, disp, size) -> register currently holding the value;
         base keys are invalidated when the base register is redefined,
         everything memory-derived dies at stores/commits *)
      let avail : (int * int * int, int) Hashtbl.t = Hashtbl.create 16 in
      (* register -> the keys whose base or value it is *)
      let users : (int, (int * int * int) list) Hashtbl.t = Hashtbl.create 16 in
      let remember ((base, _, _) as k) r =
        Hashtbl.replace avail k r;
        index users base k;
        index users r k
      in
      let forget () =
        Hashtbl.reset avail;
        Hashtbl.reset users
      in
      let kill_reg =
        kill_indexed avail users ~stale:(fun ((base, _, _) as k) r ->
            match Hashtbl.find_opt avail k with
            | Some v -> base = r || v = r
            | None -> false)
      in
      Array.iter
        (fun (o : Ir.op) ->
          match o.Ir.atom with
          | A.Load { rd; base; disp; size; spec = false; protect = None; _ }
            -> (
              match Hashtbl.find_opt avail (base, disp, size) with
              | Some r when r <> rd ->
                  o.Ir.atom <- A.MovR { rd; rs = r };
                  List.iter kill_reg (A.defs o.Ir.atom);
                  remember (base, disp, size) rd
              | _ ->
                  List.iter kill_reg (A.defs o.Ir.atom);
                  (* a load into its own base register invalidates the key *)
                  if rd <> base then remember (base, disp, size) rd)
          | A.Store { rs; base; disp; size; _ } -> (
              (* conservative: a store kills all remembered values,
                 then forwards its own *)
              forget ();
              match rs with
              | A.R r -> remember (base, disp, size) r
              | A.I _ -> ())
          | A.Commit _ -> forget ()
          | atom -> List.iter kill_reg (A.defs atom))
        b.ops)
    blocks

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

type result = { items : Ir.item list }

let flatten blocks =
  Array.fold_right
    (fun b acc ->
      let acc = Array.fold_right (fun o acc -> Ir.Op o :: acc) b.ops acc in
      match b.label with Some l -> Ir.Lbl l :: acc | None -> acc)
    blocks []

(** Run the pass pipeline over lowered IR items. *)
let run (ir : Ir.t) items =
  let nregs = Ir.reg_index ir.Ir.next_vreg in
  let blocks = build_blocks ~nregs items in
  copy_const_prop blocks;
  redundant_loads blocks;
  (* propagate copies introduced by load elimination *)
  copy_const_prop blocks;
  compute_liveness ~nregs blocks;
  dce_and_flags blocks;
  (* removal may make more code dead; one more round is cheap *)
  compute_liveness ~nregs blocks;
  dce_and_flags blocks;
  { items = flatten blocks }
