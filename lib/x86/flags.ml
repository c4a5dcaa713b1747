(** EFLAGS semantics for the IA-32 subset.

    This module is the single source of truth for x86 arithmetic-flag
    behaviour.  The interpreter, the translator's constant folder, and the
    VLIW host's x86-flavoured ALU atoms all call these functions, so the
    three agree by construction — a property the CMS recovery machinery
    depends on (re-interpreting a rolled-back translation must reproduce
    the exact state the translation would have produced).

    Values are stored as an OCaml [int] using the real EFLAGS bit layout.
    All arithmetic is on 32-bit (or 8-bit) values held in the low bits of
    an OCaml int; results are always masked. *)

type t = int

(* Real IA-32 bit positions. *)
let cf_bit = 0
let pf_bit = 2
let af_bit = 4
let zf_bit = 6
let sf_bit = 7
let if_bit = 9
let of_bit = 11

let cf_mask = 1 lsl cf_bit
let pf_mask = 1 lsl pf_bit
let af_mask = 1 lsl af_bit
let zf_mask = 1 lsl zf_bit
let sf_mask = 1 lsl sf_bit
let if_mask = 1 lsl if_bit
let of_mask = 1 lsl of_bit

(* Bit 1 of EFLAGS is always 1 on real hardware. *)
let reserved = 0x2
let initial = reserved

(* All the bits arithmetic instructions may touch. *)
let status_mask = cf_mask lor pf_mask lor af_mask lor zf_mask lor sf_mask lor of_mask

let cf f = f land cf_mask <> 0
let pf f = f land pf_mask <> 0
let af f = f land af_mask <> 0
let zf f = f land zf_mask <> 0
let sf f = f land sf_mask <> 0
let interrupts_enabled f = f land if_mask <> 0
let of_ f = f land of_mask <> 0

type size = S8 | S32

let bits = function S8 -> 8 | S32 -> 32
let mask = function S8 -> 0xff | S32 -> 0xffffffff
let sign_mask = function S8 -> 0x80 | S32 -> 0x80000000

(** Sign-extend a [size]-sized value to a signed OCaml int. *)
let sext sz v =
  let v = v land mask sz in
  if v land sign_mask sz <> 0 then v - (mask sz + 1) else v

(** Truncate to size. *)
let trunc sz v = v land mask sz

(* ------------------------------------------------------------------ *)
(* Packed results                                                      *)
(* ------------------------------------------------------------------ *)

(* Every flag-setting operation returns its result and the new flags
   word in one immediate int, [r lor (flags lsl 32)]: bits 0-31 hold
   the masked result, bits 32-43 the EFLAGS bits 0-11.  One int instead
   of a pair keeps the interpreter's and the closure executor's
   per-instruction paths free of allocation.  A flags word is at most
   31 bits wide, so it survives the round trip through [lsl 32]. *)
type packed = int

let pack r fl = r lor (fl lsl 32)
let result (p : packed) = p land 0xffffffff
let flags (p : packed) : t = p lsr 32

(* PF: 1 when the low byte has even parity.  0x9669 has bit [i] set for
   every nibble [i] with an even number of ones. *)
let pf_bits r = ((0x9669 lsr ((r lxor (r lsr 4)) land 0xf)) land 1) lsl pf_bit

(* ZF, SF and PF of a result already masked to [sz], in place. *)
let szp sz r =
  (if r = 0 then zf_mask else 0)
  lor ((r lsr (bits sz - 8)) land sf_mask)
  lor pf_bits r

(* The six status bits of [fl] replaced by [st]. *)
let with_status fl st = fl land lnot status_mask lor st

(* ------------------------------------------------------------------ *)
(* Addition / subtraction                                              *)
(* ------------------------------------------------------------------ *)

(* [cin] is the incoming carry or borrow, 0 or 1.  AF is bit 4 of
   [a lxor b lxor r], the carry (or borrow) into bit 4; OF is the sign
   bit of [(a lxor r) land (b lxor r)] for addition, of
   [(a lxor b) land (a lxor r)] for subtraction. *)
let add_c sz fl a b cin =
  let n = bits sz and m = mask sz in
  let a = a land m and b = b land m in
  let full = a + b + cin in
  let r = full land m in
  pack r
    (with_status fl
       ((full lsr n) land 1
       lor ((a lxor b lxor r) land af_mask)
       lor ((((a lxor r) land (b lxor r)) lsr (n - 1)) land 1) lsl of_bit
       lor szp sz r))

let add sz fl a b = add_c sz fl a b 0
let adc sz fl a b = add_c sz fl a b (fl land cf_mask)

let sub_b sz fl a b cin =
  let n = bits sz and m = mask sz in
  let a = a land m and b = b land m in
  let full = a - b - cin in
  let r = full land m in
  pack r
    (with_status fl
       ((full lsr n) land 1
       lor ((a lxor b lxor r) land af_mask)
       lor ((((a lxor b) land (a lxor r)) lsr (n - 1)) land 1) lsl of_bit
       lor szp sz r))

let sub sz fl a b = sub_b sz fl a b 0
let sbb sz fl a b = sub_b sz fl a b (fl land cf_mask)

(* Flags-only operations keep a zero result field. *)
let cmp sz fl a b = pack 0 (flags (sub sz fl a b))

(* INC/DEC preserve CF. *)
let inc sz fl a =
  add sz fl a 1 land lnot (cf_mask lsl 32) lor ((fl land cf_mask) lsl 32)

let dec sz fl a =
  sub sz fl a 1 land lnot (cf_mask lsl 32) lor ((fl land cf_mask) lsl 32)

(* NEG: CF = (src <> 0), which the generic sub already computes. *)
let neg sz fl a = sub sz fl 0 a

(* ------------------------------------------------------------------ *)
(* Logic                                                               *)
(* ------------------------------------------------------------------ *)

let logic sz fl r =
  let r = r land mask sz in
  pack r (with_status fl (szp sz r))

let and_ sz fl a b = logic sz fl (a land b)
let or_ sz fl a b = logic sz fl (a lor b)
let xor sz fl a b = logic sz fl (a lxor b)
let test sz fl a b = pack 0 (flags (and_ sz fl a b))

(* ------------------------------------------------------------------ *)
(* Shifts and rotates                                                  *)
(* ------------------------------------------------------------------ *)

(* x86 masks shift counts to 5 bits.  Count 0 leaves flags unchanged.
   OF is architecturally defined only for count 1; we define it by the
   count-1 formula for all counts (documented deviation, consistent
   everywhere in this system).  AF is cleared. *)

let shl sz fl a count =
  let count = count land 0x1f and m = mask sz in
  let a = a land m in
  if count = 0 then pack a fl
  else
    let n = bits sz in
    let c = if count <= n then (a lsr (n - count)) land 1 else 0 in
    let r = (a lsl count) land m in
    pack r
      (with_status fl
         (c lor ((c lxor (r lsr (n - 1))) lsl of_bit) lor szp sz r))

(* A count past the operand width shifts every bit out: [a lsr
   (count - 1)] is then 0, so CF = 0 without a guard. *)
let shr sz fl a count =
  let count = count land 0x1f and m = mask sz in
  let a = a land m in
  if count = 0 then pack a fl
  else
    let r = a lsr count in
    pack r
      (with_status fl
         ((a lsr (count - 1)) land 1
         lor (((a lsr (bits sz - 1)) land 1) lsl of_bit)
         lor szp sz r))

let sar sz fl a count =
  let count = count land 0x1f in
  if count = 0 then pack (trunc sz a) fl
  else
    let a = sext sz a in
    let r = (a asr count) land mask sz in
    pack r (with_status fl ((a asr (count - 1)) land 1 lor szp sz r))

(* Rotates touch only CF and OF. *)
let with_cf_of fl c o = fl land lnot (cf_mask lor of_mask) lor c lor (o lsl of_bit)

let rol sz fl a count =
  let count = count land 0x1f and m = mask sz in
  let a = a land m in
  if count = 0 then pack a fl
  else
    let n = bits sz in
    let c = count land (n - 1) in
    let r = if c = 0 then a else ((a lsl c) lor (a lsr (n - c))) land m in
    let cf = r land 1 in
    pack r (with_cf_of fl cf (cf lxor (r lsr (n - 1))))

let ror sz fl a count =
  let count = count land 0x1f and m = mask sz in
  let a = a land m in
  if count = 0 then pack a fl
  else
    let n = bits sz in
    let c = count land (n - 1) in
    let r = if c = 0 then a else ((a lsr c) lor (a lsl (n - c))) land m in
    let msb = r lsr (n - 1) in
    pack r (with_cf_of fl msb (msb lxor ((r lsr (n - 2)) land 1)))

(* ------------------------------------------------------------------ *)
(* Multiply / divide                                                   *)
(* ------------------------------------------------------------------ *)

(* MUL/IMUL: CF/OF indicate significant upper half.  ZF/SF/PF are
   architecturally undefined; we define them from the low result and set
   AF = 0 (documented, used consistently system-wide).  The low half and
   the flags come packed like every other operation; the upper half,
   which does not fit beside them, comes from [mul_hi]/[imul_hi]. *)

(* 32x32 products and 64/32 divides exceed OCaml's 63-bit [int]; do the
   wide arithmetic in [Int64] and come back to masked ints. *)

let mul_hi sz a b =
  let m = mask sz in
  let full = Int64.mul (Int64.of_int (a land m)) (Int64.of_int (b land m)) in
  Int64.to_int (Int64.shift_right_logical full (bits sz)) land m

let mul sz fl a b =
  let lo = a land mask sz * (b land mask sz) land mask sz in
  let over = if mul_hi sz a b <> 0 then cf_mask lor of_mask else 0 in
  pack lo (with_status fl (over lor szp sz lo))

let[@inline] imul_full sz a b = Int64.mul (Int64.of_int (sext sz a)) (Int64.of_int (sext sz b))

let imul_hi sz a b =
  Int64.to_int (Int64.shift_right (imul_full sz a b) (bits sz)) land mask sz

let imul sz fl a b =
  let full = imul_full sz a b in
  let lo = Int64.to_int full land mask sz in
  let over =
    if not (Int64.equal full (Int64.of_int (sext sz lo))) then cf_mask lor of_mask else 0
  in
  pack lo (with_status fl (over lor szp sz lo))

(* Division returns the masked quotient alone, or -1 for a #DE
   condition (divide by zero or quotient overflow): no option, no pair.
   The remainder follows from it, see [div_rem]. *)

(** Unsigned [hi:lo / divisor] quotient, or -1 on #DE. *)
let div_q sz hi lo divisor =
  let d = trunc sz divisor and hi = trunc sz hi and lo = trunc sz lo in
  (* the quotient fits in [sz] exactly when hi < d *)
  if d = 0 || hi >= d then -1
  else
    match sz with
    | S8 -> ((hi lsl 8) lor lo) / d
    | S32 ->
        (* a 64-bit dividend overflows [int]: long division in 16-bit
           digits, each partial dividend below d * 2^16 < 2^48 *)
        let t1 = (hi lsl 16) lor (lo lsr 16) in
        let q1 = t1 / d in
        let t2 = ((t1 - (q1 * d)) lsl 16) lor (lo land 0xffff) in
        (q1 lsl 16) lor (t2 / d)

(** Signed quotient of the two's-complement dividend [hi:lo] (truncated
    toward zero, like IDIV), masked to [sz], or -1 on #DE. *)
let idiv_q sz hi lo divisor =
  let divisor = sext sz divisor in
  if divisor = 0 then -1
  else
    let dividend =
      Int64.logor
        (Int64.shift_left (Int64.of_int (sext sz hi)) (bits sz))
        (Int64.of_int (trunc sz lo))
    in
    let q = Int64.div dividend (Int64.of_int divisor) in
    if
      Int64.compare q (Int64.of_int (sext sz (sign_mask sz - 1))) > 0
      || Int64.compare q (Int64.of_int (sext sz (sign_mask sz))) < 0
    then -1
    else Int64.to_int q land mask sz

(** The remainder that goes with quotient [q] of [div_q] or [idiv_q]:
    [dividend - q * divisor], whose low [sz] bits depend only on the
    low bits of each operand. *)
let div_rem sz lo divisor q = (lo - (q * divisor)) land mask sz

(* ------------------------------------------------------------------ *)
(* Condition evaluation                                                *)
(* ------------------------------------------------------------------ *)

let eval_cond (c : Cond.t) f =
  match c with
  | Cond.O -> of_ f
  | NO -> not (of_ f)
  | B -> cf f
  | AE -> not (cf f)
  | E -> zf f
  | NE -> not (zf f)
  | BE -> cf f || zf f
  | A -> not (cf f || zf f)
  | S -> sf f
  | NS -> not (sf f)
  | P -> pf f
  | NP -> not (pf f)
  | L -> sf f <> of_ f
  | GE -> sf f = of_ f
  | LE -> zf f || sf f <> of_ f
  | G -> (not (zf f)) && sf f = of_ f

let pp fmt f =
  Fmt.pf fmt "[%s%s%s%s%s%s%s]"
    (if cf f then "C" else "-")
    (if pf f then "P" else "-")
    (if af f then "A" else "-")
    (if zf f then "Z" else "-")
    (if sf f then "S" else "-")
    (if of_ f then "O" else "-")
    (if interrupts_enabled f then "I" else "-")
