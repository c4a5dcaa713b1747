(* Tests for the x86 substrate: flags semantics, decoder/encoder
   round-trips (including against hand-checked real IA-32 byte
   sequences), and the assembler. *)

open X86

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Flags                                                               *)
(* ------------------------------------------------------------------ *)

let f0 = Flags.initial

(* result and flags of a packed operation *)
let unpack p = (Flags.result p, Flags.flags p)

(* low half, high half and flags of a widening multiply *)
let wide ~signed sz fl a b =
  let p = if signed then Flags.imul sz fl a b else Flags.mul sz fl a b in
  let hi = if signed then Flags.imul_hi sz a b else Flags.mul_hi sz a b in
  (Flags.result p, hi, Flags.flags p)

let test_add_carry () =
  let r, f = unpack (Flags.add S32 f0 0xffffffff 1) in
  check ci "wraps" 0 r;
  check cb "CF" true (Flags.cf f);
  check cb "ZF" true (Flags.zf f);
  check cb "OF" false (Flags.of_ f)

let test_add_overflow () =
  let r, f = unpack (Flags.add S32 f0 0x7fffffff 1) in
  check ci "result" 0x80000000 r;
  check cb "OF" true (Flags.of_ f);
  check cb "CF" false (Flags.cf f);
  check cb "SF" true (Flags.sf f)

let test_sub_borrow () =
  let r, f = unpack (Flags.sub S32 f0 0 1) in
  check ci "result" 0xffffffff r;
  check cb "CF" true (Flags.cf f);
  check cb "SF" true (Flags.sf f);
  check cb "OF" false (Flags.of_ f)

let test_sub_overflow () =
  let _, f = unpack (Flags.sub S32 f0 0x80000000 1) in
  check cb "OF" true (Flags.of_ f);
  check cb "CF" false (Flags.cf f)

let test_inc_preserves_cf () =
  let _, f = unpack (Flags.add S32 f0 0xffffffff 1) in
  (* CF set *)
  let _, f' = unpack (Flags.inc S32 f 5) in
  check cb "CF preserved" true (Flags.cf f');
  let _, f'' = unpack (Flags.dec S32 f 0) in
  check cb "CF preserved by dec" true (Flags.cf f'')

let test_logic_clears () =
  let _, f = unpack (Flags.add S32 f0 0xffffffff 1) in
  let r, f = unpack (Flags.and_ S32 f 0xf0 0x0f) in
  check ci "and" 0 r;
  check cb "CF cleared" false (Flags.cf f);
  check cb "OF cleared" false (Flags.of_ f);
  check cb "ZF" true (Flags.zf f)

let test_parity () =
  let _, f = unpack (Flags.or_ S32 f0 0x3 0) in
  check cb "0x3 parity even" true (Flags.pf f);
  let _, f = unpack (Flags.or_ S32 f0 0x7 0) in
  check cb "0x7 parity odd" false (Flags.pf f);
  let _, f = unpack (Flags.or_ S32 f0 0x100 0) in
  (* parity looks at low byte only *)
  check cb "low byte only" true (Flags.pf f)

let test_shl () =
  let r, f = unpack (Flags.shl S32 f0 0x80000001 1) in
  check ci "result" 2 r;
  check cb "CF = bit shifted out" true (Flags.cf f);
  let r, f = unpack (Flags.shl S32 f0 1 0) in
  check ci "count 0 identity" 1 r;
  check cb "count 0 flags unchanged" false (Flags.cf f)

let test_sar_signed () =
  let r, _ = unpack (Flags.sar S32 f0 0x80000000 4) in
  check ci "sign extends" 0xf8000000 r;
  let r, _ = unpack (Flags.shr S32 f0 0x80000000 4) in
  check ci "shr zero extends" 0x08000000 r

let test_mul_wide () =
  let lo, hi, f = wide ~signed:false S32 f0 0xffffffff 0xffffffff in
  check ci "lo" 1 lo;
  check ci "hi" 0xfffffffe hi;
  check cb "CF" true (Flags.cf f);
  let lo, hi, f = wide ~signed:false S32 f0 2 3 in
  check ci "small lo" 6 lo;
  check ci "small hi" 0 hi;
  check cb "small CF clear" false (Flags.cf f)

let test_imul_wide () =
  (* -1 * -1 = 1 *)
  let lo, hi, f = wide ~signed:true S32 f0 0xffffffff 0xffffffff in
  check ci "lo" 1 lo;
  check ci "hi" 0 hi;
  check cb "no overflow" false (Flags.cf f);
  (* 0x10000 * 0x10000 overflows signed 32 *)
  let lo, _, f = wide ~signed:true S32 f0 0x10000 0x10000 in
  check ci "lo wraps" 0 lo;
  check cb "overflow" true (Flags.cf f)

let test_div () =
  let q = Flags.div_q S32 0 100 7 in
  check ci "q" 14 q;
  check ci "r" 2 (Flags.div_rem S32 100 7 q);
  check ci "div by zero" (-1) (Flags.div_q S32 0 1 0);
  (* hi:lo = 2^32, divisor 1 -> quotient overflow *)
  check ci "quotient overflow" (-1) (Flags.div_q S32 1 0 1)

let test_idiv () =
  (* -100 / 7 = -14 rem -2, truncation toward zero *)
  let q = Flags.idiv_q S32 0xffffffff 0xffffff9c 7 in
  check ci "q" 0xfffffff2 q;
  check ci "r" 0xfffffffe (Flags.div_rem S32 0xffffff9c 7 q);
  (* INT_MIN / -1 overflows *)
  check ci "overflow" (-1) (Flags.idiv_q S32 0xffffffff 0x80000000 0xffffffff)

let test_cond_negate () =
  List.iter
    (fun c ->
      List.iter
        (fun f ->
          check cb "negate" (not (Flags.eval_cond c f))
            (Flags.eval_cond (Cond.negate c) f))
        [ 0; Flags.cf_mask; Flags.zf_mask; Flags.sf_mask; Flags.of_mask;
          Flags.sf_mask lor Flags.of_mask; Flags.cf_mask lor Flags.zf_mask ])
    Cond.all

let flags_tests =
  [
    Alcotest.test_case "add carry" `Quick test_add_carry;
    Alcotest.test_case "add overflow" `Quick test_add_overflow;
    Alcotest.test_case "sub borrow" `Quick test_sub_borrow;
    Alcotest.test_case "sub overflow" `Quick test_sub_overflow;
    Alcotest.test_case "inc preserves CF" `Quick test_inc_preserves_cf;
    Alcotest.test_case "logic clears CF/OF" `Quick test_logic_clears;
    Alcotest.test_case "parity" `Quick test_parity;
    Alcotest.test_case "shl" `Quick test_shl;
    Alcotest.test_case "sar/shr" `Quick test_sar_signed;
    Alcotest.test_case "mul wide" `Quick test_mul_wide;
    Alcotest.test_case "imul wide" `Quick test_imul_wide;
    Alcotest.test_case "div" `Quick test_div;
    Alcotest.test_case "idiv" `Quick test_idiv;
    Alcotest.test_case "cond negate" `Quick test_cond_negate;
  ]

(* ------------------------------------------------------------------ *)
(* Decoder against hand-checked real IA-32 bytes                       *)
(* ------------------------------------------------------------------ *)

let decode_bytes ?(at = 0x1000) lst =
  let arr = Array.of_list lst in
  let fetch a = arr.(a - at) in
  X86.Decode.decode ~fetch at

let insn_eq = Alcotest.testable X86.Insn.pp ( = )

let test_decode_known () =
  let open Insn in
  let cases =
    [
      (* mov eax, ebx = 89 D8 *)
      ([ 0x89; 0xd8 ], Mov (S32, RM_R (R Regs.eax, Regs.ebx)), 2);
      (* add eax, 0x12345678 = 05 78 56 34 12 *)
      ( [ 0x05; 0x78; 0x56; 0x34; 0x12 ],
        Arith (Add, S32, RM_I (R Regs.eax, 0x12345678)),
        5 );
      (* mov eax, [ebx+ecx*4+4] = 8B 44 8B 04 *)
      ( [ 0x8b; 0x44; 0x8b; 0x04 ],
        Mov (S32, R_RM (Regs.eax, M (mem ~base:Regs.ebx ~index:(Regs.ecx, 4) 4))),
        4 );
      (* imul eax, ebx = 0F AF C3 *)
      ([ 0x0f; 0xaf; 0xc3 ], Imul2 (Regs.eax, R Regs.ebx), 3);
      (* push ebp = 55 *)
      ([ 0x55 ], Push (PushR Regs.ebp), 1);
      (* mov [ebp-4], eax = 89 45 FC *)
      ( [ 0x89; 0x45; 0xfc ],
        Mov (S32, RM_R (M (mem ~base:Regs.ebp (-4)), Regs.eax)),
        3 );
      (* ret = C3 *)
      ([ 0xc3 ], Ret 0, 1);
      (* rep movsd = F3 A5 *)
      ([ 0xf3; 0xa5 ], Strop { rep = true; op = Movs; size = S32 }, 2);
      (* xor ecx, ecx = 31 C9 *)
      ([ 0x31; 0xc9 ], Arith (Xor, S32, RM_R (R Regs.ecx, Regs.ecx)), 2);
      (* int 0x21 = CD 21 *)
      ([ 0xcd; 0x21 ], Int 0x21, 2);
      (* sub esp, 8 via 83 EC 08 (sign-extended imm8 form) *)
      ([ 0x83; 0xec; 0x08 ], Arith (Sub, S32, RM_I (R Regs.esp, 8)), 3);
      (* mov byte [eax], 7 = C6 00 07 *)
      ([ 0xc6; 0x00; 0x07 ], Mov (S8, RM_I (M (mem ~base:Regs.eax 0), 7)), 3);
    ]
  in
  List.iter
    (fun (bytes, expected, len) ->
      let f = decode_bytes bytes in
      check insn_eq "insn" expected f.Decode.insn;
      check ci "len" len f.Decode.len)
    cases

let test_decode_rel8 () =
  (* jnz -2 at 0x1000: 75 FE -> target 0x1000 *)
  let f = decode_bytes [ 0x75; 0xfe ] in
  check insn_eq "jnz self" (Insn.Jcc (Cond.NE, 0x1000)) f.Decode.insn;
  (* jmp +0 short: EB 00 -> target 0x1002 *)
  let f = decode_bytes [ 0xeb; 0x00 ] in
  check insn_eq "jmp next" (Insn.Jmp 0x1002) f.Decode.insn

let test_decode_ud () =
  (* 0x0F 0xFF is not in the subset *)
  match decode_bytes [ 0x0f; 0xff ] with
  | exception Exn.Fault Exn.UD -> ()
  | _ -> Alcotest.fail "expected #UD"

let test_decode_imm_off () =
  (* mov eax, imm32: immediate at offset 1 *)
  let f = decode_bytes [ 0xb8; 1; 2; 3; 4 ] in
  check (Alcotest.option ci) "imm off" (Some 1) f.Decode.imm32_off;
  (* add [ebx+4], imm32 : 81 43 04 <imm> -> offset 3 *)
  let f = decode_bytes [ 0x81; 0x43; 0x04; 9; 9; 9; 9 ] in
  check (Alcotest.option ci) "imm off" (Some 3) f.Decode.imm32_off;
  (* branch displacement is not a data immediate *)
  let f = decode_bytes [ 0xe9; 0; 0; 0; 0 ] in
  check (Alcotest.option ci) "no imm" None f.Decode.imm32_off

let decode_tests =
  [
    Alcotest.test_case "known encodings" `Quick test_decode_known;
    Alcotest.test_case "rel8 branches" `Quick test_decode_rel8;
    Alcotest.test_case "#UD on unknown" `Quick test_decode_ud;
    Alcotest.test_case "imm32 offsets" `Quick test_decode_imm_off;
  ]

(* ------------------------------------------------------------------ *)
(* Property: encode/decode round trip                                  *)
(* ------------------------------------------------------------------ *)

let gen_gpr = QCheck.Gen.int_range 0 7
let gen_imm32 = QCheck.Gen.(map (fun i -> i land 0xffffffff) (int_bound max_int))

let gen_imm32' =
  QCheck.Gen.(
    oneof
      [
        int_range 0 255;
        map (fun i -> i land 0xffffffff) (int_bound max_int);
        return 0xffffffff;
        return 0x80000000;
      ])

let _ = gen_imm32

let gen_mem =
  let open QCheck.Gen in
  let* base = opt gen_gpr in
  let* index =
    opt
      (let* r = oneofl [ 0; 1; 2; 3; 5; 6; 7 ] in
       let* s = oneofl [ 1; 2; 4; 8 ] in
       return (r, s))
  in
  let* disp = gen_imm32' in
  return (Insn.mem ?base ?index disp)

let gen_rm =
  QCheck.Gen.(
    oneof [ map (fun r -> Insn.R r) gen_gpr; map (fun m -> Insn.M m) gen_mem ])

let gen_insn =
  let open QCheck.Gen in
  let open Insn in
  let gen_size = oneofl [ S8; S32 ] in
  let gen_arith = oneofl [ Add; Or; Adc; Sbb; And; Sub; Xor; Cmp ] in
  let gen_imm_for sz = match sz with S8 -> int_range 0 255 | S32 -> gen_imm32' in
  let gen_ops sz =
    oneof
      [
        (let* rm = gen_rm and* r = gen_gpr in
         return (RM_R (rm, r)));
        (let* rm = gen_rm and* r = gen_gpr in
         return (R_RM (r, rm)));
        (let* rm = gen_rm and* i = gen_imm_for sz in
         return (RM_I (rm, i)));
      ]
  in
  oneof
    [
      (let* op = gen_arith and* sz = gen_size in
       let* ops = gen_ops sz in
       return (Arith (op, sz, ops)));
      (let* sz = gen_size and* rm = gen_rm in
       oneof
         [
           (let* r = gen_gpr in
            return (Test (sz, rm, T_R r)));
           (let* i = gen_imm_for sz in
            return (Test (sz, rm, T_I i)));
         ]);
      (let* sz = gen_size in
       let* ops = gen_ops sz in
       match ops with
       | RM_R _ | R_RM _ | RM_I _ -> return (Mov (sz, ops)));
      (let* sign = bool and* dst = gen_gpr and* src = gen_rm in
       return (Movx { sign; dst; src }));
      (let* r = gen_gpr and* m = gen_mem in
       return (Lea (r, m)));
      (let* sz = gen_size and* rm = gen_rm and* r = gen_gpr in
       return (Xchg (sz, rm, r)));
      (let* sz = gen_size and* rm = gen_rm in
       oneofl [ Inc (sz, rm); Dec (sz, rm); Not (sz, rm); Neg (sz, rm) ]);
      (let* op = oneofl [ Shl; Shr; Sar; Rol; Ror ]
       and* sz = gen_size
       and* rm = gen_rm
       and* c = oneof [ return C1; return Ccl; map (fun i -> Cimm i) (int_range 0 255) ] in
       return (Shift (op, sz, rm, c)));
      (let* sz = gen_size and* rm = gen_rm in
       oneofl [ Mul (sz, rm); Imul1 (sz, rm); Div (sz, rm); Idiv (sz, rm) ]);
      (let* r = gen_gpr and* rm = gen_rm in
       return (Imul2 (r, rm)));
      return Cdq;
      (let* src =
         oneof
           [
             map (fun r -> PushR r) gen_gpr;
             map (fun i -> PushI i) gen_imm32';
             map (fun m -> PushM m) gen_mem;
           ]
       in
       return (Push src));
      (let* rm = gen_rm in
       return (Pop rm));
      return Pushf;
      return Popf;
      (let* cc = oneofl Cond.all and* t = gen_imm32' in
       return (Jcc (cc, t)));
      (let* cc = oneofl Cond.all and* rm = gen_rm in
       return (Setcc (cc, rm)));
      (let* t = gen_imm32' in
       oneofl [ Jmp t; Call t ]);
      (let* rm = gen_rm in
       oneofl [ JmpInd rm; CallInd rm ]);
      (let* n = oneofl [ 0; 4; 8; 0xfffe ] in
       return (Ret n));
      return Int3;
      (let* v = int_range 0 255 in
       return (Int v));
      return Iret;
      (let* sz = gen_size
       and* p = oneof [ map (fun p -> PortImm p) (int_range 0 255); return PortDx ] in
       oneofl [ In (sz, p); Out (sz, p) ]);
      oneofl [ Hlt; Nop; Cli; Sti ];
      (let* rep = bool and* op = oneofl [ Movs; Stos ] and* size = gen_size in
       return (Strop { rep; op; size }));
      (let* m = gen_mem in
       return (Lidt m));
    ]

let arbitrary_insn = QCheck.make ~print:Insn.to_string gen_insn

let prop_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"encode/decode roundtrip" arbitrary_insn
    (fun insn ->
      let at = 0x40000 in
      let { Encode.bytes; imm32_off } = Encode.encode ~at insn in
      let fetch a = Char.code (Bytes.get bytes (a - at)) in
      let f = Decode.decode ~fetch at in
      f.Decode.insn = insn
      && f.Decode.len = Bytes.length bytes
      && f.Decode.imm32_off = imm32_off
      && f.Decode.len <= Decode.max_len)

let prop_length_stable =
  QCheck.Test.make ~count:500 ~name:"encoded length placement-independent"
    arbitrary_insn (fun insn ->
      Encode.length insn
      = Bytes.length (Encode.encode ~at:0x12345 insn).Encode.bytes)

(* Exhaustive encode→decode→encode over the fuzzer's opcode table: one
   canonical instruction per decoder dispatch arm
   ({!Cms_fuzz.Coverage.exemplars}), so every arm the generator can
   reach is known to survive a full byte-level round trip — the QCheck
   property above covers the randomized-operand side. *)
let test_roundtrip_exemplars () =
  List.iter
    (fun insn ->
      let at = 0x10000 in
      let { Encode.bytes; imm32_off } = Encode.encode ~at insn in
      let fetch a = Char.code (Bytes.get bytes (a - at)) in
      let f = Decode.decode ~fetch at in
      if f.Decode.insn <> insn then
        Alcotest.failf "decode mismatch for %s: got %s" (Insn.to_string insn)
          (Insn.to_string f.Decode.insn);
      if f.Decode.len <> Bytes.length bytes then
        Alcotest.failf "length mismatch for %s" (Insn.to_string insn);
      let re = Encode.encode ~at f.Decode.insn in
      if re.Encode.bytes <> bytes then
        Alcotest.failf "re-encode mismatch for %s" (Insn.to_string insn);
      if re.Encode.imm32_off <> imm32_off then
        Alcotest.failf "imm32_off mismatch for %s" (Insn.to_string insn))
    Cms_fuzz.Coverage.exemplars

(* ------------------------------------------------------------------ *)
(* Assembler                                                           *)
(* ------------------------------------------------------------------ *)

let test_asm_loop () =
  let open Asm in
  let l =
    assemble ~base:0x2000
      [
        label "start";
        mov_ri eax 0;
        label "loop";
        add_ri eax 1;
        cmp_ri eax 10;
        jne "loop";
        hlt;
        label "data";
        dd [ 0xdeadbeef ];
      ]
  in
  check ci "start" 0x2000 (label_addr l "start");
  check ci "loop is after mov" 0x2005 (label_addr l "loop");
  (* Decode the jne and verify it targets "loop". *)
  let fetch a = Char.code (Bytes.get l.image (a - l.base)) in
  let jne_info = List.nth l.insns 3 in
  let f = Decode.decode ~fetch jne_info.addr in
  (match f.Decode.insn with
  | Insn.Jcc (Cond.NE, t) -> check ci "target" (label_addr l "loop") t
  | i -> Alcotest.failf "expected jne, got %s" (Insn.to_string i));
  (* Data word is little-endian. *)
  let d = label_addr l "data" in
  check ci "byte0" 0xef (fetch d);
  check ci "byte3" 0xde (fetch (d + 3))

let test_asm_align () =
  let open Asm in
  let l = assemble ~base:0x1000 [ nop; align 16; label "aligned"; hlt ] in
  check ci "aligned" 0x1010 (label_addr l "aligned");
  (* padding is NOPs *)
  check ci "pad byte" 0x90 (Char.code (Bytes.get l.image 5))

let test_asm_imm_patch_info () =
  let open Asm in
  let l =
    assemble ~base:0x3000 [ label "i"; mov_ri eax 0x11223344; hlt ]
  in
  let info = List.hd l.insns in
  check (Alcotest.option ci) "imm addr" (Some 0x3001) info.imm32_addr

let test_asm_mov_label () =
  let open Asm in
  let l =
    assemble ~base:0x1000 [ mov_rl eax "tgt"; hlt; label "tgt"; dd [ 42 ] ]
  in
  let fetch a = Char.code (Bytes.get l.image (a - l.base)) in
  let f = Decode.decode ~fetch 0x1000 in
  match f.Decode.insn with
  | Insn.Mov (Insn.S32, Insn.RM_I (Insn.R 0, v)) ->
      check ci "label value" (label_addr l "tgt") v
  | i -> Alcotest.failf "unexpected %s" (Insn.to_string i)

let asm_tests =
  [
    Alcotest.test_case "loop with labels" `Quick test_asm_loop;
    Alcotest.test_case "align" `Quick test_asm_align;
    Alcotest.test_case "imm32 patch metadata" `Quick test_asm_imm_patch_info;
    Alcotest.test_case "mov reg, label" `Quick test_asm_mov_label;
  ]

let suites =
  [
    ("x86.flags", flags_tests);
    ("x86.decode", decode_tests);
    ( "x86.roundtrip",
      Alcotest.test_case "opcode-table exemplars" `Quick
        test_roundtrip_exemplars
      :: List.map QCheck_alcotest.to_alcotest
           [ prop_roundtrip; prop_length_stable ] );
    ("x86.asm", asm_tests);
  ]
