(* End-to-end CMS tests: programs run under the full engine
   (interpret -> translate -> chain) must produce exactly the state the
   interpreter alone produces.  Includes the differential property test
   that randomized programs behave identically in interpreter-only mode
   and with aggressive translation under several hardware configs. *)

open X86

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* Config that translates eagerly so tests exercise translations, with
   every translation statically verified. *)
let hot_cfg =
  {
    Cms.Config.debug with
    Cms.Config.translate_threshold = 3;
  }

let run ?(cfg = hot_cfg) ?max_insns prog ~entry =
  Cms.run_listing ~cfg ?max_insns prog ~entry

(* ------------------------------------------------------------------ *)
(* Basic execution                                                     *)
(* ------------------------------------------------------------------ *)

let counted_loop n =
  let open Asm in
  assemble ~base:0x10000
    [
      label "start";
      mov_ri eax 0;
      mov_ri ecx n;
      label "loop";
      add_ri eax 3;
      dec_r ecx;
      jne "loop";
      hlt;
    ]

let test_loop_translated () =
  let prog = counted_loop 1000 in
  let t, stop = run prog ~entry:0x10000 in
  check cb "halted" true (stop = Cms.Engine.Halted);
  check ci "eax" 3000 (Cms.gpr t Regs.eax);
  check ci "ecx" 0 (Cms.gpr t Regs.ecx);
  (* the loop must actually have been translated and run natively *)
  check cb "translated insns dominate" true
    ((Cms.perf t).Vliw.Perf.x86_committed > 2000);
  check cb "made translations" true ((Cms.stats t).Cms.Stats.translations >= 1)

let test_interp_only_matches () =
  let prog = counted_loop 200 in
  let t1, _ = run ~cfg:Cms.interp_only_cfg prog ~entry:0x10000 in
  let t2, _ = run prog ~entry:0x10000 in
  check ci "same eax" (Cms.gpr t1 Regs.eax) (Cms.gpr t2 Regs.eax);
  check ci "no translations in interp mode" 0
    (Cms.stats t1).Cms.Stats.translations

let test_memory_program () =
  (* sum an array via base+index addressing *)
  let open Asm in
  let prog =
    assemble ~base:0x10000
      [
        mov_ri esi 0x20000;
        mov_ri ecx 64;
        mov_ri eax 0;
        mov_ri ebx 0;
        label "fill";
        mov_mr (mbi esi ebx 4) ebx;
        inc_r ebx;
        cmp_rr ebx ecx;
        jne "fill";
        mov_ri ebx 0;
        label "sum";
        add_rm eax (mbi esi ebx 4);
        inc_r ebx;
        cmp_rr ebx ecx;
        jne "sum";
        hlt;
      ]
  in
  let t, _ = run prog ~entry:0x10000 in
  check ci "sum 0..63" (63 * 64 / 2) (Cms.gpr t Regs.eax)

let test_call_ret () =
  let open Asm in
  let prog =
    assemble ~base:0x10000
      [
        mov_ri eax 0;
        mov_ri ecx 100;
        label "loop";
        call "addone";
        dec_r ecx;
        jne "loop";
        hlt;
        label "addone";
        add_ri eax 1;
        ret;
      ]
  in
  let t, _ = run prog ~entry:0x10000 in
  check ci "eax" 100 (Cms.gpr t Regs.eax)

let test_rep_movs () =
  let open Asm in
  let prog =
    assemble ~base:0x10000
      [
        (* fill source *)
        mov_ri edi 0x20000;
        mov_ri eax 0xabcd1234;
        mov_ri ecx 256;
        rep_stosd;
        (* copy to dest *)
        mov_ri esi 0x20000;
        mov_ri edi 0x30000;
        mov_ri ecx 256;
        rep_movsd;
        mov_rm ebx (m 0x303fc);
        hlt;
      ]
  in
  let t, _ = run prog ~entry:0x10000 in
  check ci "copied last word" 0xabcd1234 (Cms.gpr t Regs.ebx);
  check ci "mid word" 0xabcd1234 (Cms.read_mem t ~size:4 0x30200)

let test_uart_hello () =
  let open Asm in
  let prog =
    assemble ~base:0x10000
      [
        mov_rl esi "msg";
        label "loop";
        mov8_rm eax (mb esi); (* al = [esi] *)
        test_ri eax 0xff;
        je "done";
        mov_ri edx Machine.Platform.uart_base;
        I (Insn.Out (Insn.S8, Insn.PortDx));
        inc_r esi;
        jmp "loop";
        label "done";
        hlt;
        label "msg";
        raw "hello, cms!\x00";
      ]
  in
  let t, _ = run prog ~entry:0x10000 in
  check Alcotest.string "uart" "hello, cms!" (Cms.uart_output t)

(* test_ri on eax uses 32-bit test; mov8_rm loads into AL leaving upper
   bytes — make sure mask works: test al path *)

let basic_tests =
  [
    Alcotest.test_case "hot loop translated" `Quick test_loop_translated;
    Alcotest.test_case "interp matches hot" `Quick test_interp_only_matches;
    Alcotest.test_case "array sum" `Quick test_memory_program;
    Alcotest.test_case "call/ret" `Quick test_call_ret;
    Alcotest.test_case "rep movs/stos" `Quick test_rep_movs;
    Alcotest.test_case "uart output" `Quick test_uart_hello;
  ]

(* ------------------------------------------------------------------ *)
(* Synchronous translation at the hotness point                        *)
(* ------------------------------------------------------------------ *)

(* A region is translated on the dispatch path at the instant its entry
   crosses [translate_threshold], from the code bytes in memory at that
   instant — there is no other path that could install a translation
   earlier or from older bytes. *)

let sync_base = 0x1000

(* two 5-byte prologue moves, then the loop; [mov ebx, imm] heads the
   loop and its imm32 at [head+1 .. head+5) is the SMC target *)
let sync_head = sync_base + 10
let sync_threshold = 16

let sync_cfg =
  { Cms.Config.default with Cms.Config.translate_threshold = sync_threshold }

let sync_listing ~imm =
  Asm.(
    assemble ~base:sync_base
      [
        mov_ri eax 0;
        mov_ri ebp 200;
        label "l";
        mov_ri ebx imm;
        dec_r ebp;
        jne "l";
        hlt;
      ])

let sync_engine () =
  let c = Cms.create ~cfg:sync_cfg () in
  Cms.load c (sync_listing ~imm:0x11);
  Cms.boot c ~entry:sync_base;
  c

(* retired count at the loop head's [sync_threshold + 1]th arrival: the
   prologue plus [sync_threshold] interpreted 3-instruction iterations *)
let sync_hot_point = 2 + (3 * sync_threshold)

let run_to c n =
  match Cms.run ~max_insns:n c with
  | Cms.Engine.Insn_limit -> ()
  | Cms.Engine.Halted -> Alcotest.failf "loop halted before %d insns" n

let finish c =
  match Cms.run c with
  | Cms.Engine.Halted -> Cms.stats c
  | Cms.Engine.Insn_limit -> Alcotest.fail "loop did not halt"

let cached c entry = Cms.Tcache.lookup c.Cms.Engine.tcache entry <> None

let test_translated_at_hot_point () =
  let c = sync_engine () in
  run_to c sync_hot_point;
  check ci "nothing translated below the threshold" 0
    (Cms.stats c).Cms.Stats.translations;
  check cb "loop head not cached yet" false (cached c sync_head);
  run_to c (sync_hot_point + 1);
  check ci "one translation at the hotness point" 1
    (Cms.stats c).Cms.Stats.translations;
  check cb "loop head cached" true (cached c sync_head)

let test_translation_ships () =
  let c = sync_engine () in
  let s = finish c in
  check ci "loop semantics" 0x11 (Cms.gpr c Regs.ebx);
  check ci "one translation" 1 s.Cms.Stats.translations;
  check ci "no invalidation" 0 s.Cms.Stats.invalidations;
  (* every iteration after the hotness point retires from the tcache *)
  check cb "translated iterations dominate" true
    (s.Cms.Stats.x86_translated >= 3 * (200 - sync_threshold - 1))

let test_smc_before_hot_point () =
  let c = sync_engine () in
  run_to c (sync_hot_point - 3);
  (* patch the loop's mov immediate before the region is hot: the
     translation made at the hotness point must read the new bytes *)
  Machine.Mem.write (Cms.mem c) ~size:4 (sync_head + 1) 0x22;
  let s = finish c in
  check ci "post-SMC semantics" 0x22 (Cms.gpr c Regs.ebx);
  check ci "one translation" 1 s.Cms.Stats.translations;
  check cb "translated iterations dominate" true
    (s.Cms.Stats.x86_translated >= 3 * (200 - sync_threshold - 1))

let translate_tests =
  [
    Alcotest.test_case "translated at the hotness point" `Quick
      test_translated_at_hot_point;
    Alcotest.test_case "translation ships" `Quick test_translation_ships;
    Alcotest.test_case "SMC before the hotness point" `Quick
      test_smc_before_hot_point;
  ]

(* ------------------------------------------------------------------ *)
(* Precise exceptions                                                  *)
(* ------------------------------------------------------------------ *)

(* Set up an IDT at 0x1000 with handler table entries; handler for
   vector 0 (#DE) fixes the divisor and returns. *)
let divide_fault_prog =
  let open Asm in
  assemble ~base:0x10000
    [
      (* IDT: 256 vectors at 0x1000; point #DE (0) at handler *)
      mov_ri eax 0;
      mov_rl eax "de_handler";
      mov_mr (m 0x1000) eax;
      mov_mi (m 0x5000) 0x1000; (* pointer cell for lidt *)
      lidt (m 0x5000);
      (* main: count handler invocations in ebx; loop with div *)
      mov_ri ebx 0;
      mov_ri esi 100;
      label "loop";
      mov_ri eax 84;
      mov_ri edx 0;
      mov_ri ecx 0; (* divisor zero -> #DE *)
      I (Insn.Div (Insn.S32, Insn.R ecx));
      (* handler fixed ecx; result should be 84/2 = 42 *)
      dec_r esi;
      jne "loop";
      hlt;
      label "de_handler";
      inc_r ebx;
      mov_ri ecx 2; (* fix divisor *)
      iret;
    ]

let test_divide_fault () =
  let t, _ = run divide_fault_prog ~entry:0x10000 in
  check ci "handler ran 100x" 100 (Cms.gpr t Regs.ebx);
  check ci "final quotient" 42 (Cms.gpr t Regs.eax)

let test_page_fault_precise () =
  (* touch an unmapped page; the handler maps... we cannot map from
     guest code, so instead the handler records the fault and skips the
     faulting instruction by adjusting the saved EIP. *)
  let open Asm in
  let prog =
    assemble ~base:0x10000
      [
        mov_rl eax "pf_handler";
        mov_mr (m 0x1038) eax; (* vector 14 *)
        mov_mi (m 0x5000) 0x1000;
        lidt (m 0x5000);
        mov_ri ebx 0;
        mov_ri edi 0;
        label "loop";
        (* eax = sentinel; faulting load at a known-length insn *)
        mov_ri eax 0x1111;
        label "fault_insn";
        mov_rm eax (m 0x700000); (* unmapped -> #PF *)
        label "after";
        inc_r edi;
        cmp_ri edi 50;
        jne "loop";
        hlt;
        label "pf_handler";
        inc_r ebx;
        (* pop error code, rewrite return EIP to 'after' *)
        pop_r edx; (* error code *)
        pop_r edx; (* faulting eip *)
        push_l "after";
        iret;
      ]
  in
  let t, _ = run prog ~entry:0x10000 in
  check ci "handler count" 50 (Cms.gpr t Regs.ebx);
  (* eax untouched by the faulting load: precise state *)
  check ci "eax precise" 0x1111 (Cms.gpr t Regs.eax)

let exception_tests =
  [
    Alcotest.test_case "#DE handled via IDT" `Quick test_divide_fault;
    Alcotest.test_case "#PF precise + resume" `Quick test_page_fault_precise;
  ]

(* ------------------------------------------------------------------ *)
(* Interrupts                                                          *)
(* ------------------------------------------------------------------ *)

let test_timer_interrupt () =
  let open Asm in
  let prog =
    assemble ~base:0x10000
      [
        mov_rl eax "tick";
        mov_mr (m (0x1000 + (4 * (Machine.Irq.base_vector + 0)))) eax;
        mov_mi (m 0x5000) 0x1000;
        lidt (m 0x5000);
        (* program timer: period 5000 molecules *)
        mov_ri eax 5000;
        mov_ri edx Machine.Platform.timer_base;
        I (Insn.Out (Insn.S32, Insn.PortDx));
        mov_ri eax 0;
        mov_ri edx (Machine.Platform.timer_base + 1);
        I (Insn.Out (Insn.S32, Insn.PortDx));
        sti;
        mov_ri ebx 0;
        (* busy loop until 5 ticks observed *)
        label "spin";
        cmp_ri ebx 5;
        jne "spin";
        (* disarm the timer and mask interrupts before halting *)
        cli;
        mov_ri eax 0;
        mov_ri edx Machine.Platform.timer_base;
        I (Insn.Out (Insn.S32, Insn.PortDx));
        mov_ri edx (Machine.Platform.timer_base + 1);
        I (Insn.Out (Insn.S32, Insn.PortDx));
        hlt;
        label "tick";
        inc_r ebx;
        iret;
      ]
  in
  let t, stop = run ~max_insns:2_000_000 prog ~entry:0x10000 in
  check cb "halted (not insn limit)" true (stop = Cms.Engine.Halted);
  check ci "ticks" 5 (Cms.gpr t Regs.ebx);
  check cb "irqs delivered" true ((Cms.stats t).Cms.Stats.irq_delivered >= 5)

let interrupt_tests =
  [ Alcotest.test_case "timer irq wakes spin loop" `Quick test_timer_interrupt ]

(* ------------------------------------------------------------------ *)
(* Differential property test                                          *)
(* ------------------------------------------------------------------ *)

(* Generate random straight-line bodies over a restricted register set
   and a scratch data page, wrap them in a counted loop, and compare
   final state between interpreter-only and hot-translation configs. *)

let scratch = 0x20000

let gen_body =
  let open QCheck.Gen in
  let reg = oneofl [ Regs.eax; Regs.ebx; Regs.edx; Regs.esi; Regs.edi ] in
  let mem_addr = map (fun i -> scratch + (i * 4)) (int_range 0 63) in
  let imm = oneof [ int_range 0 0xff; int_range 0 0xffffff; return 0xdeadbeef ] in
  let insn =
    oneof
      [
        (let* r = reg and* i = imm in
         return (Asm.mov_ri r i));
        (let* a = reg and* b = reg in
         return (Asm.mov_rr a b));
        (let* r = reg and* a = mem_addr in
         return (Asm.mov_rm r (Asm.m a)));
        (let* r = reg and* a = mem_addr in
         return (Asm.mov_mr (Asm.m a) r));
        (let* a = mem_addr and* i = imm in
         return (Asm.mov_mi (Asm.m a) i));
        (let* op = oneofl Insn.[ Add; Sub; And; Or; Xor; Adc; Sbb; Cmp ]
         and* a = reg
         and* b = reg in
         return (Asm.arith_rr op a b));
        (let* op = oneofl Insn.[ Add; Sub; And; Or; Xor; Cmp ]
         and* a = reg
         and* i = imm in
         return (Asm.arith_ri op a i));
        (let* op = oneofl Insn.[ Add; Sub; Xor ] and* r = reg and* a = mem_addr in
         return (Asm.arith_rm op r (Asm.m a)));
        (let* op = oneofl Insn.[ Add; Sub; And; Or ] and* a = mem_addr and* r = reg in
         return (Asm.arith_mr op (Asm.m a) r));
        (let* r = reg in
         oneofl [ Asm.inc_r r; Asm.dec_r r; Asm.neg_r r; Asm.not_r r ]);
        (let* r = reg and* i = int_range 0 31 in
         oneofl
           [ Asm.shl_ri r i; Asm.shr_ri r i; Asm.sar_ri r i; Asm.rol_ri r i;
             Asm.ror_ri r i ]);
        (let* a = reg and* b = reg in
         return (Asm.imul_rr a b));
        (let* r = reg and* a = mem_addr in
         return (Asm.lea r (Asm.m a)));
        (let* a = reg and* b = reg in
         return (Asm.test_rr a b));
        (let* a = reg and* b = reg in
         return (Asm.xchg_rr a b));
        (let* cc = oneofl Cond.all and* r = oneofl [ 0; 1; 2; 3 ] in
         return (Asm.setcc cc r));
        (* 8-bit traffic *)
        (let* r8 = int_range 0 7 and* a = mem_addr in
         return (Asm.mov8_mr (Asm.m a) r8));
        (let* r8 = int_range 0 7 and* a = mem_addr in
         return (Asm.I (Insn.Mov (Insn.S8, Insn.R_RM (r8, Insn.M (Asm.m a))))));
        (let* r8 = int_range 0 7 and* i = int_range 0 255 in
         return (Asm.mov8_ri r8 i));
        (let* sign = bool and* r = reg and* a = mem_addr in
         return
           (Asm.I
              (Insn.Movx { sign; dst = r; src = Insn.M (Asm.m a) })));
        return Asm.cdq;
        return Asm.pushf;
        (let* r = reg in
         return (Asm.push_r r));
      ]
  in
  (* pair pushes with pops to keep the stack balanced: easier to just
     reserve a big stack and reset ESP each iteration *)
  list_size (int_range 5 40) insn

let build_prog body =
  let open Asm in
  assemble ~base:0x10000
    ([
       label "start";
       mov_mi (m 0x6000) 30; (* loop counter in memory *)
       label "loop";
       mov_ri esp 0x80000; (* reset stack each iteration *)
     ]
    @ body
    @ [
        I (Insn.Arith (Insn.Cmp, Insn.S32, Insn.RM_I (Insn.R Regs.eax, 0)));
        (* consume flags so they are live-out sometimes *)
        setcc Cond.LE 1; (* cl = flag *)
        dec_m (m 0x6000);
        jne "loop";
        hlt;
      ])

let state_digest t =
  let regs =
    List.map (fun r -> Cms.gpr t r)
      [ Regs.eax; Regs.ebx; Regs.ecx; Regs.edx; Regs.esi; Regs.edi ]
  in
  let flags = Cms.eflags t land X86.Flags.status_mask in
  let memsum = ref 0 in
  for i = 0 to 63 do
    memsum :=
      (!memsum * 31) + Cms.read_mem t ~size:4 (scratch + (4 * i))
      land 0xffffffff
  done;
  (regs, flags, !memsum)

let diff_configs =
  [
    ("hot", hot_cfg);
    ("no-reorder", { hot_cfg with Cms.Config.enable_reorder = false });
    ("no-alias", { hot_cfg with Cms.Config.enable_alias_hw = false });
    ("self-check", { hot_cfg with Cms.Config.force_self_check = true });
    ("no-chain", { hot_cfg with Cms.Config.enable_chaining = false });
    ("tiny-regions", { hot_cfg with Cms.Config.max_region_insns = 6 });
  ]

let fst3 (a, _, _) = a
let snd3 (_, b, _) = b
let trd3 (_, _, c) = c

let prop_differential =
  QCheck.Test.make ~count:60 ~name:"interp == translated (all configs)"
    (QCheck.make ~print:(fun body ->
         let l = build_prog body in
         String.concat "\n"
           (List.map (fun (i : Asm.insn_info) -> i.Asm.text) l.Asm.insns))
       gen_body)
    (fun body ->
      let prog = build_prog body in
      let reference, _ =
        Cms.run_listing ~cfg:Cms.interp_only_cfg
          ~max_insns:3_000_000 prog ~entry:0x10000
      in
      let ref_digest = state_digest reference in
      List.for_all
        (fun (name, cfg) ->
          let t, _ =
            Cms.run_listing ~cfg ~max_insns:3_000_000 prog ~entry:0x10000
          in
          let d = state_digest t in
          if d <> ref_digest then
            QCheck.Test.fail_reportf "config %s diverged:@.ref=%s@.got=%s" name
              (Fmt.str "%a" Fmt.(Dump.pair (Dump.list int) (Dump.pair int int))
                 (fst3 ref_digest, (snd3 ref_digest, trd3 ref_digest)))
              (Fmt.str "%a" Fmt.(Dump.pair (Dump.list int) (Dump.pair int int))
                 (fst3 d, (snd3 d, trd3 d)))
          else true)
        diff_configs)

let suites =
  [
    ("cms.basic", basic_tests);
    ("cms.translate", translate_tests);
    ("cms.exceptions", exception_tests);
    ("cms.interrupts", interrupt_tests);
    ("cms.differential", [ QCheck_alcotest.to_alcotest prop_differential ]);
  ]
