(** Abstract syntax for the IA-32 subset.

    Register operands are ModRM register numbers ([Regs.t]); whether a
    number denotes a 32-bit or an 8-bit register is determined by the
    instruction's operand size.  Branch targets are absolute 32-bit
    addresses — the decoder resolves rel8/rel32 displacements against the
    address of the next instruction, and the encoder re-derives relative
    displacements. *)

type size = Flags.size = S8 | S32

(** A ModRM memory operand: [base + index*scale + disp]. *)
type mem = {
  base : Regs.t option;
  index : (Regs.t * int) option;  (** register and scale in {1,2,4,8} *)
  disp : int;  (** 32-bit displacement, stored masked *)
}

let mem ?base ?index disp = { base; index; disp = disp land 0xffffffff }

(** Register-or-memory operand (the ModRM r/m field). *)
type rm = R of Regs.t | M of mem

(** The three general operand shapes of two-operand instructions. *)
type ops =
  | RM_R of rm * Regs.t  (** op r/m, reg — e.g. [add \[eax\], ecx] *)
  | R_RM of Regs.t * rm  (** op reg, r/m — e.g. [add ecx, \[eax\]] *)
  | RM_I of rm * int  (** op r/m, imm *)

type arith = Add | Or | Adc | Sbb | And | Sub | Xor | Cmp

(* ModRM /digit for the 0x80/0x81/0x83 immediate group. *)
let arith_digit = function
  | Add -> 0
  | Or -> 1
  | Adc -> 2
  | Sbb -> 3
  | And -> 4
  | Sub -> 5
  | Xor -> 6
  | Cmp -> 7

let arith_of_digit = function
  | 0 -> Add
  | 1 -> Or
  | 2 -> Adc
  | 3 -> Sbb
  | 4 -> And
  | 5 -> Sub
  | 6 -> Xor
  | 7 -> Cmp
  | d -> invalid_arg (Printf.sprintf "arith_of_digit %d" d)

type shift = Shl | Shr | Sar | Rol | Ror

let shift_digit = function Rol -> 0 | Ror -> 1 | Shl -> 4 | Shr -> 5 | Sar -> 7

type count = C1 | Cimm of int | Ccl

(** Source of a PUSH. *)
type pushsrc = PushR of Regs.t | PushI of int | PushM of mem

(** I/O port designation: immediate port number or the DX register. *)
type port = PortImm of int | PortDx

type strkind = Movs | Stos

type t =
  | Arith of arith * size * ops
  | Test of size * rm * ops_test
  | Mov of size * ops
  | Movx of { sign : bool; dst : Regs.t; src : rm }
      (** movzx/movsx r32, r/m8 *)
  | Lea of Regs.t * mem
  | Xchg of size * rm * Regs.t
  | Inc of size * rm
  | Dec of size * rm
  | Not of size * rm
  | Neg of size * rm
  | Shift of shift * size * rm * count
  | Mul of size * rm
  | Imul1 of size * rm  (** one-operand imul: eDX:eAX = eAX * r/m *)
  | Imul2 of Regs.t * rm  (** imul r32, r/m32 *)
  | Div of size * rm
  | Idiv of size * rm
  | Cdq
  | Push of pushsrc
  | Pop of rm
  | Pushf
  | Popf
  | Jcc of Cond.t * int  (** absolute target *)
  | Setcc of Cond.t * rm  (** 8-bit destination *)
  | Jmp of int  (** absolute target *)
  | JmpInd of rm
  | Call of int
  | CallInd of rm
  | Ret of int  (** extra bytes to pop after the return address *)
  | Int3
  | Int of int
  | Iret
  | In of size * port
  | Out of size * port
  | Hlt
  | Nop
  | Cli
  | Sti
  | Strop of { rep : bool; op : strkind; size : size }
  | Lidt of mem  (** 0F 01 /3: load the interrupt table base *)

and ops_test = T_R of Regs.t | T_I of int

(* ------------------------------------------------------------------ *)
(* Classification helpers used by the CMS front end                    *)
(* ------------------------------------------------------------------ *)

(** Instructions the translator never compiles inline; they are executed
    by calling back into the interpreter (the paper's "zero-instruction
    translation" escape also uses this path). *)
let interp_only = function
  | Int _ | Int3 | Iret | Hlt | Cli | Sti | Lidt _ | In _ | Out _
  | Pushf | Popf ->
      (* the system-flag state (IF) lives outside the native flags
         register and can only change at interpreter boundaries *)
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_mem fmt { base; index; disp } =
  let parts =
    (match base with Some b -> [ Regs.name32.(b) ] | None -> [])
    @ (match index with
      | Some (i, s) -> [ Printf.sprintf "%s*%d" Regs.name32.(i) s ]
      | None -> [])
    @ if disp <> 0 || (base = None && index = None) then
        [ Printf.sprintf "0x%x" disp ]
      else []
  in
  Fmt.pf fmt "[%s]" (String.concat "+" parts)

let pp_rm sz fmt = function
  | R r -> (match sz with S8 -> Regs.pp8 fmt r | S32 -> Regs.pp32 fmt r)
  | M m -> pp_mem fmt m

let pp_ops sz fmt = function
  | RM_R (rm, r) -> Fmt.pf fmt "%a, %a" (pp_rm sz) rm (pp_rm sz) (R r)
  | R_RM (r, rm) -> Fmt.pf fmt "%a, %a" (pp_rm sz) (R r) (pp_rm sz) rm
  | RM_I (rm, i) -> Fmt.pf fmt "%a, 0x%x" (pp_rm sz) rm i

let arith_name = function
  | Add -> "add"
  | Or -> "or"
  | Adc -> "adc"
  | Sbb -> "sbb"
  | And -> "and"
  | Sub -> "sub"
  | Xor -> "xor"
  | Cmp -> "cmp"

let shift_name = function
  | Shl -> "shl"
  | Shr -> "shr"
  | Sar -> "sar"
  | Rol -> "rol"
  | Ror -> "ror"

let size_suffix = function S8 -> "b" | S32 -> "d"

let pp fmt = function
  | Arith (op, sz, ops) ->
      Fmt.pf fmt "%s %a" (arith_name op) (pp_ops sz) ops
  | Test (sz, rm, T_R r) ->
      Fmt.pf fmt "test %a, %a" (pp_rm sz) rm (pp_rm sz) (R r)
  | Test (sz, rm, T_I i) -> Fmt.pf fmt "test %a, 0x%x" (pp_rm sz) rm i
  | Mov (sz, ops) -> Fmt.pf fmt "mov %a" (pp_ops sz) ops
  | Movx { sign; dst; src } ->
      Fmt.pf fmt "%s %a, %a"
        (if sign then "movsx" else "movzx")
        Regs.pp32 dst (pp_rm S8) src
  | Lea (r, m) -> Fmt.pf fmt "lea %a, %a" Regs.pp32 r pp_mem m
  | Xchg (sz, rm, r) ->
      Fmt.pf fmt "xchg %a, %a" (pp_rm sz) rm (pp_rm sz) (R r)
  | Inc (sz, rm) -> Fmt.pf fmt "inc %a" (pp_rm sz) rm
  | Dec (sz, rm) -> Fmt.pf fmt "dec %a" (pp_rm sz) rm
  | Not (sz, rm) -> Fmt.pf fmt "not %a" (pp_rm sz) rm
  | Neg (sz, rm) -> Fmt.pf fmt "neg %a" (pp_rm sz) rm
  | Shift (op, sz, rm, c) ->
      let count =
        match c with C1 -> "1" | Cimm i -> string_of_int i | Ccl -> "cl"
      in
      Fmt.pf fmt "%s %a, %s" (shift_name op) (pp_rm sz) rm count
  | Mul (sz, rm) -> Fmt.pf fmt "mul%s %a" (size_suffix sz) (pp_rm sz) rm
  | Imul1 (sz, rm) -> Fmt.pf fmt "imul%s %a" (size_suffix sz) (pp_rm sz) rm
  | Imul2 (r, rm) -> Fmt.pf fmt "imul %a, %a" Regs.pp32 r (pp_rm S32) rm
  | Div (sz, rm) -> Fmt.pf fmt "div%s %a" (size_suffix sz) (pp_rm sz) rm
  | Idiv (sz, rm) -> Fmt.pf fmt "idiv%s %a" (size_suffix sz) (pp_rm sz) rm
  | Cdq -> Fmt.string fmt "cdq"
  | Push (PushR r) -> Fmt.pf fmt "push %a" Regs.pp32 r
  | Push (PushI i) -> Fmt.pf fmt "push 0x%x" i
  | Push (PushM m) -> Fmt.pf fmt "push %a" pp_mem m
  | Pop rm -> Fmt.pf fmt "pop %a" (pp_rm S32) rm
  | Pushf -> Fmt.string fmt "pushf"
  | Popf -> Fmt.string fmt "popf"
  | Jcc (c, t) -> Fmt.pf fmt "j%s 0x%x" (Cond.name c) t
  | Setcc (c, rm) -> Fmt.pf fmt "set%s %a" (Cond.name c) (pp_rm S8) rm
  | Jmp t -> Fmt.pf fmt "jmp 0x%x" t
  | JmpInd rm -> Fmt.pf fmt "jmp %a" (pp_rm S32) rm
  | Call t -> Fmt.pf fmt "call 0x%x" t
  | CallInd rm -> Fmt.pf fmt "call %a" (pp_rm S32) rm
  | Ret 0 -> Fmt.string fmt "ret"
  | Ret n -> Fmt.pf fmt "ret %d" n
  | Int3 -> Fmt.string fmt "int3"
  | Int v -> Fmt.pf fmt "int 0x%x" v
  | Iret -> Fmt.string fmt "iret"
  | In (sz, PortImm p) -> Fmt.pf fmt "in%s 0x%x" (size_suffix sz) p
  | In (sz, PortDx) -> Fmt.pf fmt "in%s dx" (size_suffix sz)
  | Out (sz, PortImm p) -> Fmt.pf fmt "out%s 0x%x" (size_suffix sz) p
  | Out (sz, PortDx) -> Fmt.pf fmt "out%s dx" (size_suffix sz)
  | Hlt -> Fmt.string fmt "hlt"
  | Nop -> Fmt.string fmt "nop"
  | Cli -> Fmt.string fmt "cli"
  | Sti -> Fmt.string fmt "sti"
  | Strop { rep; op; size } ->
      Fmt.pf fmt "%s%s%s"
        (if rep then "rep " else "")
        (match op with Movs -> "movs" | Stos -> "stos")
        (size_suffix size)
  | Lidt m -> Fmt.pf fmt "lidt %a" pp_mem m

let to_string i = Fmt.str "%a" pp i
