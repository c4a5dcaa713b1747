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

let suites =
  let case name f = Alcotest.test_case name `Quick f in
  [
    ( "x86.flags-model",
      [
        case "packed layout" test_layout;
        case "inc/dec preserve CF" test_inc_dec_keep_cf;
        case "count 0 leaves flags unchanged" test_count0_unchanged;
        case "mul/imul vs reference" test_mul_model;
      ]
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
