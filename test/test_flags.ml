(* The packed flags API against a reference model.

   [Ref] is the tuple-returning implementation the packed one replaced,
   kept as it was: each operation returns [(result, flags)], builds the
   six status bits through labelled booleans, and computes parity by
   folding the low byte.  Every packed operation must agree
   with it bit for bit — exhaustively over 8-bit operands (both CF-in
   values, every shift/rotate count 0..31), and on seeded random 32-bit
   operands. *)

open X86
module F = Flags

module Ref = struct
  let mask = F.mask
  let sign_mask = F.sign_mask
  let bits = F.bits
  let trunc = F.trunc
  let sext = F.sext
  let status_mask = F.status_mask

  let parity_even v =
    let v = v land 0xff in
    let v = v lxor (v lsr 4) in
    let v = v lxor (v lsr 2) in
    let v = v lxor (v lsr 1) in
    v land 1 = 0

  let compose ~old ~cf ~pf ~af ~zf ~sf ~ovf =
    let f = old land lnot status_mask in
    let f = if cf then f lor F.cf_mask else f in
    let f = if pf then f lor F.pf_mask else f in
    let f = if af then f lor F.af_mask else f in
    let f = if zf then f lor F.zf_mask else f in
    let f = if sf then f lor F.sf_mask else f in
    if ovf then f lor F.of_mask else f

  let szp sz r = (r land mask sz = 0, r land sign_mask sz <> 0, parity_even r)

  let add_c sz fl a b carry_in =
    let a = trunc sz a and b = trunc sz b in
    let cin = if carry_in then 1 else 0 in
    let full = a + b + cin in
    let r = trunc sz full in
    let carry = full > mask sz in
    let ovf =
      let sa = a land sign_mask sz <> 0
      and sb = b land sign_mask sz <> 0
      and sr = r land sign_mask sz <> 0 in
      sa = sb && sa <> sr
    in
    let auxc = (a land 0xf) + (b land 0xf) + cin > 0xf in
    let zf, sf, pf = szp sz r in
    (r, compose ~old:fl ~cf:carry ~pf ~af:auxc ~zf ~sf ~ovf)

  let add sz fl a b = add_c sz fl a b false
  let adc sz fl a b = add_c sz fl a b (F.cf fl)

  let sub_b sz fl a b borrow_in =
    let a = trunc sz a and b = trunc sz b in
    let bin = if borrow_in then 1 else 0 in
    let full = a - b - bin in
    let r = trunc sz full in
    let carry = full < 0 in
    let ovf =
      let sa = a land sign_mask sz <> 0
      and sb = b land sign_mask sz <> 0
      and sr = r land sign_mask sz <> 0 in
      sa <> sb && sa <> sr
    in
    let auxc = (a land 0xf) - (b land 0xf) - bin < 0 in
    let zf, sf, pf = szp sz r in
    (r, compose ~old:fl ~cf:carry ~pf ~af:auxc ~zf ~sf ~ovf)

  let sub sz fl a b = sub_b sz fl a b false
  let sbb sz fl a b = sub_b sz fl a b (F.cf fl)
  let cmp sz fl a b = snd (sub sz fl a b)

  let inc sz fl a =
    let r, f = add sz fl a 1 in
    (r, f land lnot F.cf_mask lor (fl land F.cf_mask))

  let dec sz fl a =
    let r, f = sub sz fl a 1 in
    (r, f land lnot F.cf_mask lor (fl land F.cf_mask))

  let neg sz fl a = sub sz fl 0 a

  let logic sz fl r =
    let r = trunc sz r in
    let zf, sf, pf = szp sz r in
    (r, compose ~old:fl ~cf:false ~pf ~af:false ~zf ~sf ~ovf:false)

  let and_ sz fl a b = logic sz fl (a land b)
  let or_ sz fl a b = logic sz fl (a lor b)
  let xor sz fl a b = logic sz fl (a lxor b)
  let test sz fl a b = snd (and_ sz fl a b)

  let shl sz fl a count =
    let count = count land 0x1f in
    if count = 0 then (trunc sz a, fl)
    else
      let a = trunc sz a in
      let n = bits sz in
      let carry = count <= n && a land (1 lsl (n - count)) <> 0 in
      let r = trunc sz (a lsl count) in
      let zf, sf, pf = szp sz r in
      let ovf = carry <> (r land sign_mask sz <> 0) in
      (r, compose ~old:fl ~cf:carry ~pf ~af:false ~zf ~sf ~ovf)

  let shr sz fl a count =
    let count = count land 0x1f in
    if count = 0 then (trunc sz a, fl)
    else
      let a = trunc sz a in
      let carry = count <= bits sz && a land (1 lsl (count - 1)) <> 0 in
      let r = a lsr count in
      let zf, sf, pf = szp sz r in
      let ovf = a land sign_mask sz <> 0 in
      (r, compose ~old:fl ~cf:carry ~pf ~af:false ~zf ~sf ~ovf)

  let sar sz fl a count =
    let count = count land 0x1f in
    if count = 0 then (trunc sz a, fl)
    else
      let a = sext sz a in
      let carry = (a asr (count - 1)) land 1 <> 0 in
      let r = trunc sz (a asr count) in
      let zf, sf, pf = szp sz r in
      (r, compose ~old:fl ~cf:carry ~pf ~af:false ~zf ~sf ~ovf:false)

  let rol sz fl a count =
    let n = bits sz in
    let count = count land 0x1f in
    if count = 0 then (trunc sz a, fl)
    else
      let c = count mod n in
      let a = trunc sz a in
      let r = if c = 0 then a else trunc sz ((a lsl c) lor (a lsr (n - c))) in
      let carry = r land 1 <> 0 in
      let ovf = carry <> (r land sign_mask sz <> 0) in
      let fl = if carry then fl lor F.cf_mask else fl land lnot F.cf_mask in
      let fl = if ovf then fl lor F.of_mask else fl land lnot F.of_mask in
      (r, fl)

  let ror sz fl a count =
    let n = bits sz in
    let count = count land 0x1f in
    if count = 0 then (trunc sz a, fl)
    else
      let c = count mod n in
      let a = trunc sz a in
      let r = if c = 0 then a else trunc sz ((a lsr c) lor (a lsl (n - c))) in
      let msb = r land sign_mask sz <> 0 in
      let msb2 = r land (sign_mask sz lsr 1) <> 0 in
      let fl = if msb then fl lor F.cf_mask else fl land lnot F.cf_mask in
      let fl = if msb <> msb2 then fl lor F.of_mask else fl land lnot F.of_mask in
      (r, fl)

  let mul sz fl a b =
    let a = trunc sz a and b = trunc sz b in
    let full = Int64.mul (Int64.of_int a) (Int64.of_int b) in
    let lo = Int64.to_int (Int64.logand full 0xffffffffL) land mask sz in
    let hi =
      Int64.to_int (Int64.shift_right_logical full (bits sz)) land mask sz
    in
    let over = hi <> 0 in
    let zf, sf, pf = szp sz lo in
    (lo, hi, compose ~old:fl ~cf:over ~pf ~af:false ~zf ~sf ~ovf:over)

  let imul sz fl a b =
    let a = sext sz a and b = sext sz b in
    let full = Int64.mul (Int64.of_int a) (Int64.of_int b) in
    let lo = Int64.to_int (Int64.logand full (Int64.of_int (mask sz))) in
    let hi = Int64.to_int (Int64.shift_right full (bits sz)) land mask sz in
    let over = full <> Int64.of_int (sext sz lo) in
    let zf, sf, pf = szp sz lo in
    (lo, hi, compose ~old:fl ~cf:over ~pf ~af:false ~zf ~sf ~ovf:over)
end

(* ------------------------------------------------------------------ *)
(* The operations under test, paired with their references            *)
(* ------------------------------------------------------------------ *)

type op =
  | Bin of string * (F.size -> F.t -> int -> int -> F.packed)
      * (F.size -> F.t -> int -> int -> int * F.t)
  | Flags_only of string * (F.size -> F.t -> int -> int -> F.packed)
      * (F.size -> F.t -> int -> int -> F.t)
  | Un of string * (F.size -> F.t -> int -> F.packed)
      * (F.size -> F.t -> int -> int * F.t)

let binary =
  [
    Bin ("add", F.add, Ref.add);
    Bin ("adc", F.adc, Ref.adc);
    Bin ("sub", F.sub, Ref.sub);
    Bin ("sbb", F.sbb, Ref.sbb);
    Flags_only ("cmp", F.cmp, Ref.cmp);
    Bin ("and", F.and_, Ref.and_);
    Bin ("or", F.or_, Ref.or_);
    Bin ("xor", F.xor, Ref.xor);
    Flags_only ("test", F.test, Ref.test);
    Un ("inc", F.inc, Ref.inc);
    Un ("dec", F.dec, Ref.dec);
    Un ("neg", F.neg, Ref.neg);
  ]

let shifts =
  [
    Bin ("shl", F.shl, Ref.shl);
    Bin ("shr", F.shr, Ref.shr);
    Bin ("sar", F.sar, Ref.sar);
    Bin ("rol", F.rol, Ref.rol);
    Bin ("ror", F.ror, Ref.ror);
  ]

(* Incoming flags words: both CF-in values, each with the other status
   bits clear and set (the untouched bits must pass through). *)
let flag_words =
  let rest = F.status_mask land lnot F.cf_mask lor F.if_mask in
  [ F.initial; F.initial lor F.cf_mask; F.initial lor rest;
    F.initial lor rest lor F.cf_mask ]

let size_name = function F.S8 -> "8" | F.S32 -> "32"

let fail name sz fl a b ~got ~want =
  Alcotest.failf "%s/%s fl=%#x a=%#x b=%#x: packed (%#x, %#x), reference (%#x, %#x)"
    name (size_name sz) fl a b (fst got) (snd got) (fst want) (snd want)

(* One comparison; [b] is ignored by unary operations. *)
let agree op sz fl a b =
  let p_pair p = (F.result p, F.flags p) in
  match op with
  | Bin (name, f, r) ->
      let got = p_pair (f sz fl a b) and want = r sz fl a b in
      if got <> want then fail name sz fl a b ~got ~want
  | Flags_only (name, f, r) ->
      let got = p_pair (f sz fl a b) and want = (0, r sz fl a b) in
      if got <> want then fail name sz fl a b ~got ~want
  | Un (name, f, r) ->
      let got = p_pair (f sz fl a) and want = r sz fl a in
      if got <> want then fail name sz fl a 0 ~got ~want

let op_name = function Bin (n, _, _) | Flags_only (n, _, _) | Un (n, _, _) -> n

let exhaustive8 op () =
  let bs = match op with Un _ -> 0 | _ -> 255 in
  List.iter
    (fun fl ->
      for a = 0 to 255 do
        for b = 0 to bs do
          agree op F.S8 fl a b
        done
      done)
    flag_words

let exhaustive8_counts op () =
  List.iter
    (fun fl ->
      for a = 0 to 255 do
        for count = 0 to 31 do
          agree op F.S8 fl a count
        done
      done)
    flag_words

(* Seeded random 32-bit operands; shift counts are drawn past 31 too,
   to exercise the 5-bit count mask. *)
let random32 ~counts op () =
  let st = Random.State.make [| 0x5eed; String.length (op_name op) |] in
  let nfl = List.length flag_words in
  for _ = 1 to 200_000 do
    let fl = List.nth flag_words (Random.State.int st nfl) in
    let a = Random.State.bits st lor (Random.State.int st 4 lsl 30) in
    let b =
      if counts then Random.State.int st 64
      else Random.State.bits st lor (Random.State.int st 4 lsl 30)
    in
    agree op F.S32 fl a b
  done;
  (* the edges: 0, 1, the sign bit and all ones, pairwise *)
  let edges = [ 0; 1; 0x7fffffff; 0x80000000; 0xffffffff ] in
  List.iter
    (fun fl ->
      List.iter
        (fun a ->
          if counts then
            for c = 0 to 33 do
              agree op F.S32 fl a c
            done
          else List.iter (fun b -> agree op F.S32 fl a b) edges)
        edges)
    flag_words

let test_mul_model () =
  let check name sz fl a b =
    let p, hi =
      if name = "imul" then (F.imul sz fl a b, F.imul_hi sz a b)
      else (F.mul sz fl a b, F.mul_hi sz a b)
    in
    let want = if name = "imul" then Ref.imul sz fl a b else Ref.mul sz fl a b in
    let got = (F.result p, hi, F.flags p) in
    if got <> want then
      let l, h, f = want in
      Alcotest.failf "%s/%s fl=%#x a=%#x b=%#x: packed (%#x, %#x, %#x), reference (%#x, %#x, %#x)"
        name (size_name sz) fl a b (F.result p) hi (F.flags p) l h f
  in
  List.iter
    (fun name ->
      List.iter
        (fun fl ->
          for a = 0 to 255 do
            for b = 0 to 255 do
              check name F.S8 fl a b
            done
          done)
        [ F.initial; F.initial lor F.status_mask ];
      let st = Random.State.make [| 0x3017 |] in
      for _ = 1 to 200_000 do
        let a = Random.State.bits st lor (Random.State.int st 4 lsl 30)
        and b = Random.State.bits st lor (Random.State.int st 4 lsl 30) in
        check name F.S32 F.initial a b
      done;
      List.iter
        (fun a ->
          List.iter (fun b -> check name F.S32 F.initial a b)
            [ 0; 1; 0x7fffffff; 0x80000000; 0xffffffff ])
        [ 0; 1; 0x7fffffff; 0x80000000; 0xffffffff ])
    [ "mul"; "imul" ]

(* INC/DEC leave CF exactly as it came in, whatever the operand. *)
let test_inc_dec_keep_cf () =
  List.iter
    (fun (name, f) ->
      List.iter
        (fun sz ->
          List.iter
            (fun fl ->
              List.iter
                (fun a ->
                  let got = F.flags (f sz fl a) land F.cf_mask in
                  if got <> fl land F.cf_mask then
                    Alcotest.failf "%s/%s a=%#x changed CF" name (size_name sz) a)
                [ 0; 1; 0x7f; 0x80; 0xff; 0x7fffffff; 0x80000000; 0xffffffff ])
            flag_words)
        [ F.S8; F.S32 ])
    [ ("inc", F.inc); ("dec", F.dec) ]

(* A shift or rotate whose masked count is 0 (counts 0 and 32) returns
   the truncated operand and leaves every flag unchanged. *)
let test_count0_unchanged () =
  List.iter
    (fun (name, f) ->
      List.iter
        (fun sz ->
          List.iter
            (fun fl ->
              List.iter
                (fun count ->
                  List.iter
                    (fun a ->
                      let p = f sz fl a count in
                      Alcotest.(check int)
                        (Printf.sprintf "%s/%s result" name (size_name sz))
                        (F.trunc sz a) (F.result p);
                      Alcotest.(check int)
                        (Printf.sprintf "%s/%s flags" name (size_name sz))
                        fl (F.flags p))
                    [ 0; 0x81; 0xdeadbeef; 0xffffffff ])
                [ 0; 32 ])
            flag_words)
        [ F.S8; F.S32 ])
    [ ("shl", F.shl); ("shr", F.shr); ("sar", F.sar); ("rol", F.rol);
      ("ror", F.ror) ]

(* The packed layout itself: bits 0-31 result, bits 32 and up flags. *)
let test_layout () =
  let p = F.pack 0xffffffff (F.initial lor F.status_mask lor F.if_mask) in
  Alcotest.(check int) "result" 0xffffffff (F.result p);
  Alcotest.(check int) "flags" (F.initial lor F.status_mask lor F.if_mask)
    (F.flags p);
  Alcotest.(check int) "flags at bit 32" (F.of_mask lsl 32)
    (F.pack 0 F.of_mask)

(* ------------------------------------------------------------------ *)
(* Division: the int-only quotient against the Int64 reference         *)
(* ------------------------------------------------------------------ *)

(* The option-returning Int64 division that [div_q]/[idiv_q] and
   [div_rem] replaced, kept as it was. *)
module Ref_div = struct
  let div sz hi lo divisor =
    let divisor = F.trunc sz divisor in
    if divisor = 0 then None
    else
      let dividend =
        Int64.logor
          (Int64.shift_left (Int64.of_int (F.trunc sz hi)) (F.bits sz))
          (Int64.of_int (F.trunc sz lo))
      in
      let d = Int64.of_int divisor in
      let q = Int64.unsigned_div dividend d
      and r = Int64.unsigned_rem dividend d in
      if Int64.unsigned_compare q (Int64.of_int (F.mask sz)) > 0 then None
      else Some (Int64.to_int q, Int64.to_int r)

  let idiv sz hi lo divisor =
    let divisor = F.sext sz divisor in
    if divisor = 0 then None
    else
      let dividend =
        Int64.logor
          (Int64.shift_left (Int64.of_int (F.sext sz hi)) (F.bits sz))
          (Int64.of_int (F.trunc sz lo))
      in
      let d = Int64.of_int divisor in
      let q = Int64.div dividend d and r = Int64.rem dividend d in
      if
        Int64.compare q (Int64.of_int (F.sext sz (F.sign_mask sz - 1))) > 0
        || Int64.compare q (Int64.of_int (F.sext sz (F.sign_mask sz))) < 0
      then None
      else Some (Int64.to_int q land F.mask sz, Int64.to_int r land F.mask sz)
end

let check_div sz hi lo d =
  let show = function
    | None -> "#DE"
    | Some (q, r) -> Printf.sprintf "q=%#x r=%#x" q r
  in
  let packed q = if q < 0 then None else Some (q, F.div_rem sz lo d q) in
  let name = Printf.sprintf "%#x:%#x / %#x" hi lo d in
  Alcotest.(check string) ("div " ^ name) (show (Ref_div.div sz hi lo d))
    (show (packed (F.div_q sz hi lo d)));
  Alcotest.(check string) ("idiv " ^ name) (show (Ref_div.idiv sz hi lo d))
    (show (packed (F.idiv_q sz hi lo d)))

(* Every 8-bit divisor and low byte, against a spread of high bytes on
   both sides of the overflow boundary. *)
let test_div8 () =
  List.iter
    (fun hi ->
      for d = 0 to 0xff do
        for lo = 0 to 0xff do
          check_div F.S8 hi lo d
        done
      done)
    [ 0; 1; 0x3f; 0x7f; 0x80; 0xc0; 0xfe; 0xff ]

let test_div32 () =
  let st = Random.State.make [| 0xd1f |] in
  let word () =
    match Random.State.int st 4 with
    | 0 -> Random.State.int st 16
    | 1 -> 0xffffffff - Random.State.int st 16
    | _ -> Random.State.bits st lor (Random.State.int st 4 lsl 30)
  in
  for _ = 1 to 100_000 do
    let d = word () in
    (* small [hi] keeps most unsigned quotients in range *)
    let hi = if Random.State.bool st then word () else word () mod (d + 1) in
    check_div F.S32 hi (word ()) d
  done

(* ------------------------------------------------------------------ *)
(* Result-only ALU atoms                                               *)
(* ------------------------------------------------------------------ *)

(* The ops the closure compiler evaluates as a masked host operation
   when their flags are dead. *)
let result_ops =
  Vliw.Atom.
    [ ("add", XAdd); ("sub", XSub); ("and", XAnd); ("or", XOr); ("xor", XXor);
      ("inc", XInc); ("dec", XDec); ("neg", XNeg); ("not", XNot) ]

let check_result_fn name op sz a b =
  match Vliw.Closure.result_fn op sz with
  | None -> Alcotest.failf "%s has no result-only form" name
  | Some f ->
      let full = Vliw.Closure.xop_fn op sz in
      List.iter
        (fun fl ->
          let want = F.result (full fl a b) in
          if f a b <> want then
            Alcotest.failf "%s/%s %#x %#x (flags %#x): %#x, want %#x" name
              (size_name sz) a b fl (f a b) want)
        [ F.initial; F.initial lor F.status_mask ]

(* 8-bit: every operand pair, with and without garbage above bit 7 (a
   register holds a whole word). *)
let result_exhaustive8 (name, op) () =
  for a = 0 to 0xff do
    for b = 0 to 0xff do
      check_result_fn name op F.S8 a b;
      check_result_fn name op F.S8 (a lor 0xab00) (b lor 0xffffff00)
    done
  done

let result_random32 (name, op) () =
  let st = Random.State.make [| 0x7e5; String.length name |] in
  let word () = Random.State.bits st lor (Random.State.int st 4 lsl 30) in
  for _ = 1 to 100_000 do
    check_result_fn name op F.S32 (word ()) (word ())
  done;
  List.iter
    (fun a ->
      List.iter (fun b -> check_result_fn name op F.S32 a b)
        [ 0; 1; 0x7fffffff; 0x80000000; 0xffffffff ])
    [ 0; 1; 0x7fffffff; 0x80000000; 0xffffffff ]

(* The flags-dependent and flags-only ops keep the full path. *)
let test_no_result_form () =
  List.iter
    (fun op ->
      List.iter
        (fun sz ->
          Alcotest.(check bool) "no result-only form" true
            (Vliw.Closure.result_fn op sz = None))
        [ F.S8; F.S32 ])
    Vliw.Atom.[ XAdc; XSbb; XShl; XShr; XSar; XRol; XRor; XTest; XCmp ]

(* Random blocks of x86-flavoured ALU molecules run through the
   closure executor and through [ref_run] below from the same
   registers: dead-flag [AluX] on every operand shape, mixed with
   flag-live [AluX] and host [Alu] atoms.  Sibling atoms often read
   each other's destinations, so both the fused (apply-phase) and
   staged (evaluation-phase) forms run. *)
let random_alu_block st =
  let open Vliw in
  let reg () = 20 + Random.State.int st 6 in
  let word () = Random.State.bits st lor (Random.State.int st 4 lsl 30) in
  let operand () =
    if Random.State.int st 3 = 0 then Atom.I (word ()) else Atom.R (reg ())
  in
  let xops =
    Array.of_list
      (List.map snd result_ops
      @ Atom.[ XAdc; XSbb; XShl; XShr; XSar; XRol; XRor; XTest; XCmp ])
  in
  let atom () =
    match Random.State.int st 8 with
    | 0 ->
        Atom.Alu
          { op = Atom.HXor; rd = reg (); a = reg (); b = operand () }
    | 1 | 2 ->
        (* flags live: read and written through EFLAGS *)
        let op = xops.(Random.State.int st (Array.length xops)) in
        let rd = match op with Atom.XTest | XCmp -> None | _ -> Some (reg ()) in
        Atom.AluX
          { op; size = (if Random.State.bool st then F.S8 else F.S32); rd;
            a = operand (); b = operand (); fr = Abi.eflags; fw = Abi.eflags }
    | _ ->
        let _, op = List.nth result_ops (Random.State.int st 9) in
        Atom.AluX
          { op; size = (if Random.State.bool st then F.S8 else F.S32);
            rd = Some (reg ()); a = operand (); b = operand ();
            fr = Atom.no_flags; fw = Atom.no_flags }
  in
  let molecule () = Array.init (1 + Random.State.int st 4) (fun _ -> atom ()) in
  {
    Code.molecules =
      Array.append
        (Array.init (1 + Random.State.int st 6) (fun _ -> molecule ()))
        [| [| Atom.Exit 0 |] |];
    exits =
      [|
        { Code.target = Code.Const 0; kind = Code.Enext; x86_retired = 0;
          chain = Code.Unchained };
      |];
  }

(* The reference for those blocks: a two-phase evaluator over
   [X86.Flags] for exactly [Alu], [AluX] and [Exit].  Every atom of a
   molecule reads the pre-molecule registers; its writes land, in
   program order, when the molecule ends; an [Exit] leaves after that.
   Returns the exit taken and the molecules and atoms executed. *)
let ref_xop op size fl a b =
  let open Vliw.Atom in
  match op with
  | XAdd -> F.add size fl a b
  | XAdc -> F.adc size fl a b
  | XSub -> F.sub size fl a b
  | XSbb -> F.sbb size fl a b
  | XAnd -> F.and_ size fl a b
  | XOr -> F.or_ size fl a b
  | XXor -> F.xor size fl a b
  | XShl -> F.shl size fl a b
  | XShr -> F.shr size fl a b
  | XSar -> F.sar size fl a b
  | XRol -> F.rol size fl a b
  | XRor -> F.ror size fl a b
  | XInc -> F.inc size fl a
  | XDec -> F.dec size fl a
  | XNeg -> F.neg size fl a
  | XNot -> F.pack (F.trunc size (lnot a)) fl
  | XTest -> F.test size fl a b
  | XCmp -> F.cmp size fl a b

let ref_run (regs : int array) (code : Vliw.Code.t) =
  let open Vliw in
  let m32 v = v land 0xffffffff in
  let molecules = ref 0 and atoms = ref 0 in
  let rec step pc =
    let m = code.Code.molecules.(pc) in
    incr molecules;
    atoms := !atoms + Array.length m;
    let src = function Atom.R r -> regs.(r) | Atom.I i -> m32 i in
    let writes = ref [] and exit = ref None in
    let write r v = writes := (r, m32 v) :: !writes in
    Array.iter
      (function
        | Atom.Alu { op = Atom.HXor; rd; a; b } -> write rd (regs.(a) lxor src b)
        | Atom.AluX { op; size; rd; a; b; fr; fw } ->
            let fl =
              if fr >= 0 && Atom.xop_reads_flags op b then regs.(fr)
              else F.initial
            in
            let p = ref_xop op size fl (src a) (src b) in
            Option.iter (fun rd -> write rd (F.result p)) rd;
            if op <> Atom.XNot && fw >= 0 then write fw (F.flags p)
        | Atom.Exit i -> exit := Some i
        | a -> Alcotest.failf "reference: unexpected atom %a" Atom.pp a)
      m;
    List.iter (fun (r, v) -> regs.(r) <- v) (List.rev !writes);
    match !exit with Some i -> i | None -> step (pc + 1)
  in
  let i = step 0 in
  (i, !molecules, !atoms)

let test_closure_vs_reference () =
  let st = Random.State.make [| 0xa1 |] in
  let init seed =
    let rs = Random.State.make [| seed |] in
    let regs =
      Array.init Vliw.Abi.num_regs (fun _ ->
          Random.State.bits rs lor (Random.State.int rs 4 lsl 30))
    in
    regs.(Vliw.Abi.eflags) <-
      F.initial lor (Random.State.int rs 0x1000 land F.status_mask);
    regs
  in
  for i = 1 to 2_000 do
    let code = random_alu_block st in
    let want = init i in
    let exit, molecules, atoms = ref_run want code in
    let ex = Vliw.Exec.create (Machine.Mem.create ~ram_size:(1 lsl 16) ()) in
    Array.iteri (Vliw.Regfile.set ex.Vliw.Exec.regs) (init i);
    let out =
      match Vliw.Closure.compile ex code with
      | Some c -> Vliw.Closure.run ~irq_pending:(fun () -> false) c
      | None -> Alcotest.fail "block did not closure-compile"
    in
    Alcotest.(check bool) (Printf.sprintf "block %d outcome" i) true
      (out = Vliw.Exec.Exited exit);
    Alcotest.(check (array int))
      (Printf.sprintf "block %d registers" i)
      want ex.Vliw.Exec.regs.Vliw.Regfile.working;
    let p = ex.Vliw.Exec.perf in
    Alcotest.(check (list int))
      (Printf.sprintf "block %d counters" i)
      [ molecules; atoms; 1 ]
      Vliw.Perf.[ p.molecules; p.atoms; p.exits_taken ]
  done

let suites =
  let case name f = Alcotest.test_case name `Quick f in
  [
    ( "x86.flags-model",
      [
        case "packed layout" test_layout;
        case "inc/dec preserve CF" test_inc_dec_keep_cf;
        case "count 0 leaves flags unchanged" test_count0_unchanged;
        case "mul/imul vs reference" test_mul_model;
        case "div/idiv exhaustive 8-bit" test_div8;
        case "div/idiv random 32-bit" test_div32;
        case "flag-dependent ops keep the full path" test_no_result_form;
        case "closure vs reference on dead-flag ALU blocks"
          test_closure_vs_reference;
      ]
      @ List.map
          (fun op ->
            case ("result-only " ^ fst op ^ " exhaustive 8-bit")
              (result_exhaustive8 op))
          result_ops
      @ List.map
          (fun op ->
            case ("result-only " ^ fst op ^ " random 32-bit")
              (result_random32 op))
          result_ops
      @ List.map
          (fun op -> case (op_name op ^ " exhaustive 8-bit") (exhaustive8 op))
          binary
      @ List.map
          (fun op ->
            case (op_name op ^ " exhaustive 8-bit, counts 0..31")
              (exhaustive8_counts op))
          shifts
      @ List.map
          (fun op ->
            case (op_name op ^ " random 32-bit") (random32 ~counts:false op))
          binary
      @ List.map
          (fun op ->
            case (op_name op ^ " random 32-bit") (random32 ~counts:true op))
          shifts );
  ]
