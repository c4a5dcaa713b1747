(** Native VLIW operations (atoms).

    Atoms are RISC-like operations issued in parallel inside a molecule.
    Following the paper, the native ISA is x86-flavoured where that pays:
    [AluX] atoms evaluate x86 arithmetic *and* x86 condition codes in one
    operation (the semantics are shared with the interpreter through
    [X86.Flags], so translation and interpretation agree bit-for-bit),
    and [ExtField]/[InsField] make 8-bit subregister accesses cheap —
    the paper notes exactly such atoms were added to the TM5800.

    Memory atoms carry the speculation metadata the hardware acts on:
    [spec] marks an access reordered with respect to the original x86
    program (it faults if it touches I/O space, §3.4); [protect] records
    the accessed range in an alias-hardware slot, and [check] is a
    bitmask of slots the access must not overlap (§3.5). *)

type reg = int

type src = R of reg | I of int

type host_op = HAdd | HSub | HAnd | HOr | HXor | HShl | HShr | HSar | HMul

(** x86-flavoured ALU operations; update the flags register like the
    corresponding x86 instruction. *)
type xop =
  | XAdd
  | XAdc
  | XSub
  | XSbb
  | XAnd
  | XOr
  | XXor
  | XShl
  | XShr
  | XSar
  | XRol
  | XRor
  | XInc
  | XDec
  | XNeg
  | XNot  (** no flags, kept here for uniform lowering *)
  | XTest  (** flags only *)
  | XCmp  (** flags only *)

(** Host compare conditions for [BrCmp]. *)
type cmp = Ceq | Cne | Cult | Cule | Cslt | Csle

(** Sentinel for [AluX]/[MulX] [fr]/[fw] fields: the operation neither
    reads nor writes the flags register.  The optimizer rewrites dead
    condition-code updates to this, breaking the serial dependence
    chain through EFLAGS that x86 semantics would otherwise impose on
    every ALU operation. *)
let no_flags = -1

(** Does an x86-flavoured ALU op's execution read the old flags?
    True when the result depends on CF (adc/sbb) or when the op
    partially preserves status bits into its flags output (inc/dec keep
    CF; rotates only touch CF/OF; shifts by a possibly-zero count leave
    flags unchanged).  Pure ops (add, sub, logic, test, cmp, neg, mul)
    fully overwrite the status field, so they read nothing — the
    property dead-condition-code elimination relies on.  (The system
    bits of EFLAGS, e.g. IF, live outside this register: they cannot
    change inside a translation.) *)
let xop_reads_flags op (b : src) =
  match op with
  | XAdc | XSbb | XInc | XDec -> true
  | XRol | XRor -> true
  | XShl | XShr | XSar -> (
      match b with I k -> k land 31 = 0 | R _ -> true)
  | XAdd | XSub | XAnd | XOr | XXor | XTest | XCmp | XNeg | XNot -> false

type t =
  | Nop
  | MovI of { rd : reg; imm : int }
  | MovR of { rd : reg; rs : reg }
  | Alu of { op : host_op; rd : reg; a : reg; b : src }
      (** plain host ALU op; does not touch x86 flags *)
  | AluX of {
      op : xop;
      size : X86.Flags.size;
      rd : reg option;  (** [None] for flags-only ops (test/cmp) *)
      a : src;
      b : src;
      fr : reg;  (** flags register input *)
      fw : reg;
          (** flags output target; normally [= fr], but retargeted to a
              dead scratch register when the optimizer proves the x86
              flags result dead (dead-condition-code elimination) *)
    }
  | MulX of {
      signed : bool;
      size : X86.Flags.size;
      rd_lo : reg;
      rd_hi : reg option;
      a : src;
      b : src;
      fr : reg;
      fw : reg;
    }
  | DivX of {
      signed : bool;
      size : X86.Flags.size;
      rd_q : reg;
      rd_r : reg;
      hi : reg;
      lo : reg;
      divisor : src;
    }  (** faults #DE like x86 *)
  | SetCond of { rd : reg; cond : X86.Cond.t; fr : reg }
  | ExtField of { rd : reg; rs : reg; shift : int; width : int; sign : bool }
  | InsField of { rd : reg; rs : reg; shift : int; width : int }
      (** rd = insert low [width] bits of [rs] into [rd] at [shift] *)
  | Load of {
      rd : reg;
      base : reg;
      disp : int;
      size : int;  (** bytes: 1 or 4 *)
      spec : bool;
      protect : int option;  (** alias slot to arm *)
      check : int;  (** alias slot mask to verify against *)
    }
  | Store of {
      rs : src;
      base : reg;
      disp : int;
      size : int;
      spec : bool;
      check : int;
    }
  | Br of { target : int }  (** molecule index within the code block *)
  | BrCond of { cond : X86.Cond.t; fr : reg; target : int }
  | BrCmp of { cmp : cmp; a : reg; b : src; target : int }
  | ArmRange of { slot : int; base : reg; disp : int; len : int }
      (** arm an alias slot over a whole byte range (used by
          self-checking translations to guard their own source bytes
          against their own stores, §3.6.3's use of the alias
          hardware) *)
  | Commit of int
      (** copy working -> shadow, drain the gated store buffer; the
          payload is the number of x86 instructions this commit retires
          (counted into [Perf.x86_committed]) *)
  | Exit of int  (** leave the translation through exit-table entry [i] *)

(** Functional unit classes (paper §2: two ALUs, a memory unit, an
    FP/media unit, and a branch unit). *)
type unit_class = UAlu | UMem | UFpm | UBr | UFree

let unit_of = function
  | Nop | MovI _ | MovR _ | Alu _ | AluX _ | SetCond _ | ExtField _
  | InsField _ | ArmRange _ ->
      UAlu
  | MulX _ | DivX _ -> UFpm
  | Load _ | Store _ -> UMem
  | Br _ | BrCond _ | BrCmp _ | Exit _ -> UBr
  | Commit _ -> UFree (* commits are effectively free (paper §3.1) *)

(** Result latency in molecules (the scheduler must keep consumers at
    least this far behind; loads and multiplies have exposed latency on
    a statically scheduled machine). *)
let latency = function
  | Load _ -> 2
  | MulX _ -> 2
  | DivX _ -> 8
  | _ -> 1

(* ------------------------------------------------------------------ *)
(* Register use/def sets (for the scheduler and the verifier)          *)
(* ------------------------------------------------------------------ *)

let src_reg = function R r -> [ r ] | I _ -> []

let uses = function
  | Nop | MovI _ | Commit _ | Exit _ | Br _ -> []
  | MovR { rs; _ } -> [ rs ]
  | Alu { a; b; _ } -> a :: src_reg b
  | AluX { op; a; b; fr; _ } ->
      src_reg a @ src_reg b
      @ (if fr >= 0 && xop_reads_flags op b then [ fr ] else [])
  | MulX { a; b; _ } ->
      (* mul fully overwrites the status field: no flags read *)
      src_reg a @ src_reg b
  | DivX { hi; lo; divisor; _ } -> [ hi; lo ] @ src_reg divisor
  | ArmRange { base; _ } -> [ base ]
  | SetCond { fr; _ } -> [ fr ]
  | ExtField { rs; _ } -> [ rs ]
  | InsField { rd; rs; _ } -> [ rd; rs ]
  | Load { base; _ } -> [ base ]
  | Store { rs; base; _ } -> src_reg rs @ [ base ]
  | BrCond { fr; _ } -> [ fr ]
  | BrCmp { a; b; _ } -> a :: src_reg b

let defs = function
  | Nop | Commit _ | Exit _ | Br _ | BrCond _ | BrCmp _ | Store _
  | ArmRange _ ->
      []
  | MovI { rd; _ } | MovR { rd; _ } | Alu { rd; _ } -> [ rd ]
  | AluX { rd; fw; op; _ } -> (
      let f = match op with XNot -> [] | _ when fw < 0 -> [] | _ -> [ fw ] in
      match rd with Some r -> r :: f | None -> f)
  | MulX { rd_lo; rd_hi; fw; _ } ->
      (rd_lo :: (if fw >= 0 then [ fw ] else []))
      @ (match rd_hi with Some r -> [ r ] | None -> [])
  | DivX { rd_q; rd_r; _ } -> [ rd_q; rd_r ]
  | SetCond { rd; _ } | ExtField { rd; _ } | InsField { rd; _ } -> [ rd ]
  | Load { rd; _ } -> [ rd ]

let is_branch = function
  | Br _ | BrCond _ | BrCmp _ | Exit _ -> true
  | _ -> false

let is_mem = function Load _ | Store _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Pretty printing (debug dumps)                                       *)
(* ------------------------------------------------------------------ *)

let pp_src fmt = function
  | R r -> Fmt.pf fmt "r%d" r
  | I i -> Fmt.pf fmt "#0x%x" i

let host_op_name = function
  | HAdd -> "add"
  | HSub -> "sub"
  | HAnd -> "and"
  | HOr -> "or"
  | HXor -> "xor"
  | HShl -> "shl"
  | HShr -> "shr"
  | HSar -> "sar"
  | HMul -> "mul"

let xop_name = function
  | XAdd -> "xadd"
  | XAdc -> "xadc"
  | XSub -> "xsub"
  | XSbb -> "xsbb"
  | XAnd -> "xand"
  | XOr -> "xor"
  | XXor -> "xxor"
  | XShl -> "xshl"
  | XShr -> "xshr"
  | XSar -> "xsar"
  | XRol -> "xrol"
  | XRor -> "xror"
  | XInc -> "xinc"
  | XDec -> "xdec"
  | XNeg -> "xneg"
  | XNot -> "xnot"
  | XTest -> "xtest"
  | XCmp -> "xcmp"

let pp fmt = function
  | Nop -> Fmt.string fmt "nop"
  | MovI { rd; imm } -> Fmt.pf fmt "r%d = #0x%x" rd imm
  | MovR { rd; rs } -> Fmt.pf fmt "r%d = r%d" rd rs
  | Alu { op; rd; a; b } ->
      Fmt.pf fmt "r%d = %s r%d, %a" rd (host_op_name op) a pp_src b
  | AluX { op; size; rd; a; b; fr; fw } ->
      Fmt.pf fmt "%s%s.%s %a, %a (fr=r%d fw=r%d)"
        (match rd with Some r -> Fmt.str "r%d = " r | None -> "")
        (xop_name op)
        (match size with X86.Flags.S8 -> "b" | S32 -> "d")
        pp_src a pp_src b fr fw
  | MulX { signed; rd_lo; rd_hi; a; b; _ } ->
      Fmt.pf fmt "r%d%s = %s %a, %a" rd_lo
        (match rd_hi with Some r -> Fmt.str ":r%d" r | None -> "")
        (if signed then "imul" else "mul")
        pp_src a pp_src b
  | DivX { signed; rd_q; rd_r; hi; lo; divisor; _ } ->
      Fmt.pf fmt "r%d,r%d = %s r%d:r%d / %a" rd_q rd_r
        (if signed then "idiv" else "div")
        hi lo pp_src divisor
  | SetCond { rd; cond; fr } ->
      Fmt.pf fmt "r%d = set%s(r%d)" rd (X86.Cond.name cond) fr
  | ExtField { rd; rs; shift; width; sign } ->
      Fmt.pf fmt "r%d = ext%s r%d[%d+:%d]" rd (if sign then "s" else "u") rs
        shift width
  | InsField { rd; rs; shift; width } ->
      Fmt.pf fmt "r%d[%d+:%d] = r%d" rd shift width rs
  | Load { rd; base; disp; size; spec; protect; check } ->
      Fmt.pf fmt "r%d = ld%d [r%d%+d]%s%s%s" rd size base disp
        (if spec then " spec" else "")
        (match protect with Some s -> Fmt.str " prot%d" s | None -> "")
        (if check <> 0 then Fmt.str " chk%x" check else "")
  | Store { rs; base; disp; size; spec; check } ->
      Fmt.pf fmt "st%d [r%d%+d] = %a%s%s" size base disp pp_src rs
        (if spec then " spec" else "")
        (if check <> 0 then Fmt.str " chk%x" check else "")
  | Br { target } -> Fmt.pf fmt "br @%d" target
  | BrCond { cond; fr; target } ->
      Fmt.pf fmt "br%s(r%d) @%d" (X86.Cond.name cond) fr target
  | BrCmp { cmp; a; b; target } ->
      let n =
        match cmp with
        | Ceq -> "eq"
        | Cne -> "ne"
        | Cult -> "ult"
        | Cule -> "ule"
        | Cslt -> "slt"
        | Csle -> "sle"
      in
      Fmt.pf fmt "br.%s r%d, %a @%d" n a pp_src b target
  | ArmRange { slot; base; disp; len } ->
      Fmt.pf fmt "arm%d [r%d%+d, +%d)" slot base disp len
  | Commit n -> Fmt.pf fmt "commit(%d)" n
  | Exit i -> Fmt.pf fmt "exit #%d" i
