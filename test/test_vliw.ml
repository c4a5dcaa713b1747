(* Tests for the VLIW host: register shadowing and commit/rollback, the
   gated store buffer (forwarding, ordering, overflow), alias hardware,
   molecule constraints, the closure compiler's register range, and the
   closure executor including speculative MMIO faults. *)

open Vliw

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let mk_exec ?(sbuf_capacity = 64) ?(alias_slots = 8) () =
  let mem = Machine.Mem.create ~ram_size:(1 lsl 20) () in
  Machine.Mmu.map_identity mem.Machine.Mem.mmu ~virt:0 ~pages:256
    ~writable:true;
  Exec.create ~sbuf_capacity ~alias_slots mem

(* A tiny helper to build a one-exit code block from molecules. *)
let code ?(exits = 1) molecules =
  {
    Code.molecules = Array.of_list (List.map Array.of_list molecules);
    exits =
      Array.init exits (fun _ ->
          {
            Code.target = Code.Const 0;
            kind = Code.Enext;
            x86_retired = 0;
            chain = Code.Unchained;
          });
  }

(* Compile [c] on the closure executor and run it.  Every molecule
   under test must meet the issue constraints first ({!Molecule.check}),
   as the translation verifier requires on every install path. *)
let run ?(irq_pending = fun () -> false) e c =
  Array.iteri
    (fun i m ->
      match Molecule.check m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "molecule %d: %s" i e)
    c.Code.molecules;
  Closure.run ~irq_pending (Closure.compile_exn e c)

let run_ok e c =
  match run e c with
  | Exec.Exited i -> i
  | Exec.Faulted n -> Alcotest.failf "unexpected fault %s" (Nexn.to_string n)
  | Exec.Interrupted -> Alcotest.fail "unexpected interrupt"
  | Exec.Runaway -> Alcotest.fail "runaway"

let run_fault e c =
  match run e c with
  | Exec.Faulted n -> n
  | Exec.Exited _ -> Alcotest.fail "expected fault, got exit"
  | _ -> Alcotest.fail "expected fault"

(* ------------------------------------------------------------------ *)
(* Regfile                                                             *)
(* ------------------------------------------------------------------ *)

let test_shadow_rollback () =
  let r = Regfile.create () in
  Regfile.set_committed r 0 100;
  Regfile.set r 0 200;
  check ci "working" 200 (Regfile.get r 0);
  check ci "shadow" 100 (Regfile.get_committed r 0);
  Regfile.rollback r;
  check ci "restored" 100 (Regfile.get r 0);
  Regfile.set r 0 300;
  Regfile.commit r;
  check ci "committed" 300 (Regfile.get_committed r 0);
  check cb "consistent" true (Regfile.consistent r)

let test_temps_not_shadowed () =
  let r = Regfile.create () in
  Regfile.set r Abi.tmp_base 42;
  Regfile.rollback r;
  check ci "temp survives rollback" 42 (Regfile.get r Abi.tmp_base)

(* ------------------------------------------------------------------ *)
(* Store buffer                                                        *)
(* ------------------------------------------------------------------ *)

let test_sbuf_gating () =
  let sb = Storebuf.create () in
  let mem = Bytes.make 64 '\x00' in
  let mem_read addr size =
    match size with
    | 1 -> Char.code (Bytes.get mem addr)
    | 4 -> Int32.to_int (Bytes.get_int32_le mem addr) land 0xffffffff
    | _ -> assert false
  in
  let mem_write addr size v =
    match size with
    | 1 -> Bytes.set mem addr (Char.chr (v land 0xff))
    | 4 -> Bytes.set_int32_le mem addr (Int32.of_int v)
    | _ -> assert false
  in
  (match Storebuf.push sb ~paddr:8 ~size:4 ~value:0xcafebabe with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "push");
  (* memory unchanged until commit *)
  check ci "memory gated" 0 (mem_read 8 4);
  (* but loads see the buffered value *)
  check ci "forwarded" 0xcafebabe (Storebuf.read sb ~mem_read ~paddr:8 ~size:4);
  (* partial overlap: byte out of the buffered word *)
  check ci "forwarded byte" 0xfe (Storebuf.read sb ~mem_read ~paddr:10 ~size:1);
  Storebuf.commit sb ~mem_write;
  check ci "committed" 0xcafebabe (mem_read 8 4);
  check cb "empty" true (Storebuf.is_empty sb)

let test_sbuf_rollback_drops () =
  let sb = Storebuf.create () in
  ignore (Storebuf.push sb ~paddr:0 ~size:4 ~value:1);
  Storebuf.rollback sb;
  check cb "dropped" true (Storebuf.is_empty sb);
  check ci "stat" 1 sb.Storebuf.total_dropped

let test_sbuf_ordering () =
  let sb = Storebuf.create () in
  let order = ref [] in
  ignore (Storebuf.push sb ~paddr:0 ~size:1 ~value:1);
  ignore (Storebuf.push sb ~paddr:4 ~size:1 ~value:2);
  ignore (Storebuf.push sb ~paddr:0 ~size:1 ~value:3);
  Storebuf.commit sb ~mem_write:(fun p _ v -> order := (p, v) :: !order);
  check
    (Alcotest.list (Alcotest.pair ci ci))
    "program order" [ (0, 1); (4, 2); (0, 3) ] (List.rev !order)

let test_sbuf_newest_wins () =
  let sb = Storebuf.create () in
  ignore (Storebuf.push sb ~paddr:0 ~size:4 ~value:0x11111111);
  ignore (Storebuf.push sb ~paddr:0 ~size:1 ~value:0xff);
  let v = Storebuf.read sb ~mem_read:(fun _ _ -> 0) ~paddr:0 ~size:4 in
  check ci "youngest byte wins" 0x111111ff v

let test_sbuf_overflow () =
  let sb = Storebuf.create ~capacity:2 () in
  ignore (Storebuf.push sb ~paddr:0 ~size:1 ~value:0);
  ignore (Storebuf.push sb ~paddr:1 ~size:1 ~value:0);
  match Storebuf.push sb ~paddr:2 ~size:1 ~value:0 with
  | Error `Overflow -> check ci "stat" 1 sb.Storebuf.overflows
  | Ok () -> Alcotest.fail "expected overflow"

(* ------------------------------------------------------------------ *)
(* Alias hardware                                                      *)
(* ------------------------------------------------------------------ *)

let test_alias_overlap () =
  let a = Alias.create ~slots:4 () in
  Alias.arm a ~slot:1 ~paddr:0x100 ~len:4;
  check cb "disjoint ok" true (Alias.check a ~mask:0b0010 ~paddr:0x104 ~len:4 = -1);
  check cb "overlap" true (Alias.check a ~mask:0b0010 ~paddr:0x102 ~len:4 = 1);
  (* unchecked slot is invisible *)
  check cb "mask respected" true
    (Alias.check a ~mask:0b0001 ~paddr:0x102 ~len:4 = -1);
  Alias.clear a;
  check cb "cleared" true (Alias.check a ~mask:0b1111 ~paddr:0x100 ~len:4 = -1)

(* ------------------------------------------------------------------ *)
(* Molecule constraints                                                *)
(* ------------------------------------------------------------------ *)

let test_molecule_constraints () =
  let ld rd = Atom.Load { rd; base = 0; disp = 0; size = 4; spec = false; protect = None; check = 0 } in
  let alu rd = Atom.MovI { rd; imm = 0 } in
  check cb "ok 2 alu + mem + br" true
    (Molecule.check [| alu 20; alu 21; ld 22; Atom.Br { target = 0 } |] = Ok ());
  check cb "3 alu bad" true
    (Result.is_error (Molecule.check [| alu 20; alu 21; alu 22; ld 23 |]));
  check cb "2 mem bad" true (Result.is_error (Molecule.check [| ld 20; ld 21 |]));
  check cb "same def bad" true
    (Result.is_error (Molecule.check [| alu 20; alu 20 |]));
  check cb "5 atoms bad" true
    (Result.is_error
       (Molecule.check [| alu 20; alu 21; ld 22; Atom.Commit 0; Atom.Nop |]
        |> function Ok () -> Molecule.check [| alu 1; alu 2; alu 3; alu 4; alu 5 |] | e -> e))

(* ------------------------------------------------------------------ *)
(* Register range                                                      *)
(* ------------------------------------------------------------------ *)

(* The translation verifier's [regalloc-range] rule refuses a register
   outside the host register file before install (the [verify] suite
   checks it); the closure compiler, whose [Array.unsafe_get] that range
   makes safe, refuses one too. *)
let test_code_register_range () =
  let compiles c = Option.is_some (Closure.compile (mk_exec ()) c) in
  check cb "in range" true
    (compiles (code [ [ Atom.MovI { rd = 63; imm = 1 } ]; [ Atom.Exit 0 ] ]));
  check cb "closure refuses" false
    (compiles (code [ [ Atom.MovI { rd = 99; imm = 1 } ]; [ Atom.Exit 0 ] ]));
  check cb "closure refuses a negative register" false
    (compiles
       (code [ [ Atom.Alu { op = Atom.HAdd; rd = 20; a = -1; b = Atom.I 1 } ];
               [ Atom.Exit 0 ] ]))

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_parallel_semantics () =
  let e = mk_exec () in
  Regfile.set e.Exec.regs 20 1;
  Regfile.set e.Exec.regs 21 2;
  (* swap r20,r21 in one molecule: both reads see pre-molecule state *)
  let c =
    code
      [
        [ Atom.MovR { rd = 20; rs = 21 }; Atom.MovR { rd = 21; rs = 20 } ];
        [ Atom.Exit 0 ];
      ]
  in
  ignore (run_ok e c);
  check ci "r20" 2 (Regfile.get e.Exec.regs 20);
  check ci "r21" 1 (Regfile.get e.Exec.regs 21)

let test_engine_commit_rollback () =
  let e = mk_exec () in
  Regfile.set_committed e.Exec.regs 0 7;
  let c =
    code
      [
        [ Atom.MovI { rd = 0; imm = 99 };
          Atom.Store { rs = Atom.I 0x1234; base = 63; disp = 0x500; size = 4; spec = false; check = 0 } ];
        [ Atom.Exit 0 ];
      ]
  in
  (* note: base r63 is 0, so store goes to 0x500 *)
  ignore (run_ok e c);
  (* no commit executed: memory must not contain the store *)
  check ci "gated" 0 (Machine.Mem.read e.Exec.mem ~size:4 0x500);
  Exec.rollback e;
  check ci "r0 rolled back" 7 (Regfile.get e.Exec.regs 0);
  check cb "sbuf dropped" true (Storebuf.is_empty e.Exec.sbuf);
  (* now with a commit *)
  let c2 =
    code
      [
        [ Atom.MovI { rd = 0; imm = 99 };
          Atom.Store { rs = Atom.I 0x1234; base = 63; disp = 0x500; size = 4; spec = false; check = 0 } ];
        [ Atom.Commit 1 ];
        [ Atom.Exit 0 ];
      ]
  in
  ignore (run_ok e c2);
  check ci "committed store" 0x1234 (Machine.Mem.read e.Exec.mem ~size:4 0x500);
  check ci "committed reg" 99 (Regfile.get_committed e.Exec.regs 0)

let test_engine_forwarding () =
  let e = mk_exec () in
  let c =
    code
      [
        [ Atom.Store { rs = Atom.I 0xaa; base = 63; disp = 0x600; size = 4; spec = false; check = 0 } ];
        [ Atom.Load { rd = 20; base = 63; disp = 0x600; size = 4; spec = false; protect = None; check = 0 } ];
        [ Atom.Exit 0 ];
      ]
  in
  ignore (run_ok e c);
  check ci "forwarded" 0xaa (Regfile.get e.Exec.regs 20)

let test_engine_aluX () =
  let e = mk_exec () in
  Regfile.set e.Exec.regs Abi.eflags X86.Flags.initial;
  let c =
    code
      [
        [ Atom.AluX { op = Atom.XAdd; size = X86.Flags.S32; rd = Some 20;
                      a = Atom.I 0xffffffff; b = Atom.I 1; fr = Abi.eflags; fw = Abi.eflags } ];
        [ Atom.SetCond { rd = 21; cond = X86.Cond.B; fr = Abi.eflags } ];
        [ Atom.Exit 0 ];
      ]
  in
  ignore (run_ok e c);
  check ci "wrap" 0 (Regfile.get e.Exec.regs 20);
  check ci "carry via setcc" 1 (Regfile.get e.Exec.regs 21)

let test_engine_div_fault () =
  let e = mk_exec () in
  let c =
    code
      [
        [ Atom.DivX { signed = false; size = X86.Flags.S32; rd_q = 20; rd_r = 21;
                      hi = 22; lo = 23; divisor = Atom.I 0 } ];
        [ Atom.Exit 0 ];
      ]
  in
  match run_fault e c with
  | Nexn.X86_fault X86.Exn.DE -> ()
  | n -> Alcotest.failf "wrong fault %s" (Nexn.to_string n)

let test_engine_pf_fault () =
  let e = mk_exec () in
  let c =
    code
      [
        [ Atom.Load { rd = 20; base = 63; disp = 0x500000; size = 4; spec = false; protect = None; check = 0 } ];
        [ Atom.Exit 0 ];
      ]
  in
  (* 0x500000 is beyond the 256 mapped pages *)
  match run_fault e c with
  | Nexn.X86_fault (X86.Exn.PF { addr = 0x500000; write = false; _ }) -> ()
  | n -> Alcotest.failf "wrong fault %s" (Nexn.to_string n)

let test_engine_mmio_spec_fault () =
  let e = mk_exec () in
  let mem = e.Exec.mem in
  (* carve an MMIO window and map it *)
  Machine.Bus.add_mmio mem.Machine.Mem.bus
    { Machine.Bus.lo = 0x20000; hi = 0x21000;
      mread = (fun _ _ -> 0x5a); mwrite = (fun _ _ _ -> ()) };
  let spec_load spec =
    code
      [
        [ Atom.Load { rd = 20; base = 63; disp = 0x20010; size = 4; spec; protect = None; check = 0 } ];
        [ Atom.Exit 0 ];
      ]
  in
  (* any translated MMIO load faults, spec bit or not: a non-spec load
     still executes at issue and a later fault in the same region would
     roll back and replay it interpretively, reading the device twice
     (paper §3.4; found by differential fuzzing) *)
  (match run_fault e (spec_load false) with
  | Nexn.Mmio_spec 0x20010 -> ()
  | n -> Alcotest.failf "wrong fault %s" (Nexn.to_string n));
  (match run_fault e (spec_load true) with
  | Nexn.Mmio_spec 0x20010 -> ()
  | n -> Alcotest.failf "wrong fault %s" (Nexn.to_string n));
  check ci "counted" 2 e.Exec.perf.Perf.mmio_spec_faults

let test_engine_alias_fault () =
  let e = mk_exec () in
  (* load hoisted above a store to the same address: load arms slot 0,
     store checks slot 0 *)
  let c =
    code
      [
        [ Atom.Load { rd = 20; base = 63; disp = 0x700; size = 4; spec = true; protect = Some 0; check = 0 } ];
        [ Atom.Store { rs = Atom.I 1; base = 63; disp = 0x700; size = 4; spec = false; check = 0b1 } ];
        [ Atom.Exit 0 ];
      ]
  in
  (match run_fault e c with
  | Nexn.Alias_violation 0 -> ()
  | n -> Alcotest.failf "wrong fault %s" (Nexn.to_string n));
  (* disjoint addresses: no fault *)
  Exec.rollback e;
  let c2 =
    code
      [
        [ Atom.Load { rd = 20; base = 63; disp = 0x700; size = 4; spec = true; protect = Some 0; check = 0 } ];
        [ Atom.Store { rs = Atom.I 1; base = 63; disp = 0x704; size = 4; spec = false; check = 0b1 } ];
        [ Atom.Exit 0 ];
      ]
  in
  ignore (run_ok e c2)

let test_engine_smc_fault () =
  let e = mk_exec () in
  Machine.Mem.protect_page e.Exec.mem ~ppn:9;
  let c =
    code
      [
        [ Atom.Store { rs = Atom.I 1; base = 63; disp = 0x9000; size = 4; spec = false; check = 0 } ];
        [ Atom.Exit 0 ];
      ]
  in
  match run_fault e c with
  | Nexn.Smc (Machine.Mem.Page_level, 0x9000) -> ()
  | n -> Alcotest.failf "wrong fault %s" (Nexn.to_string n)

let test_engine_interrupt_sampling () =
  let e = mk_exec () in
  let n = ref 0 in
  (* pending after 3 molecules *)
  let irq_pending () =
    incr n;
    !n > 3
  in
  let c =
    code
      [
        [ Atom.MovI { rd = 20; imm = 0 } ];
        [ Atom.Br { target = 0 } ];
      ]
  in
  match run ~irq_pending e c with
  | Exec.Interrupted -> ()
  | _ -> Alcotest.fail "expected interrupt"

let test_engine_runaway () =
  let e = mk_exec () in
  e.Exec.max_molecules_per_run <- 100;
  let c = code [ [ Atom.Br { target = 0 } ] ] in
  match run e c with
  | Exec.Runaway -> ()
  | _ -> Alcotest.fail "expected runaway"

let test_engine_byte_field_atoms () =
  let e = mk_exec () in
  Regfile.set e.Exec.regs 20 0x11223344;
  Regfile.set e.Exec.regs 21 0xff;
  let c =
    code
      [
        [ Atom.ExtField { rd = 22; rs = 20; shift = 8; width = 8; sign = false };
          Atom.InsField { rd = 20; rs = 21; shift = 8; width = 8 } ];
        [ Atom.ExtField { rd = 23; rs = 20; shift = 24; width = 8; sign = true } ];
        [ Atom.Exit 0 ];
      ]
  in
  ignore (run_ok e c);
  check ci "extracted AH-style byte" 0x33 (Regfile.get e.Exec.regs 22);
  check ci "inserted byte" 0x1122ff44 (Regfile.get e.Exec.regs 20);
  check ci "sign extend" 0x11 (Regfile.get e.Exec.regs 23)

let suites =
  [
    ( "vliw.regfile",
      [
        Alcotest.test_case "shadow/rollback" `Quick test_shadow_rollback;
        Alcotest.test_case "temps unshadowed" `Quick test_temps_not_shadowed;
      ] );
    ( "vliw.storebuf",
      [
        Alcotest.test_case "gating + forwarding" `Quick test_sbuf_gating;
        Alcotest.test_case "rollback drops" `Quick test_sbuf_rollback_drops;
        Alcotest.test_case "commit order" `Quick test_sbuf_ordering;
        Alcotest.test_case "newest wins" `Quick test_sbuf_newest_wins;
        Alcotest.test_case "overflow" `Quick test_sbuf_overflow;
      ] );
    ( "vliw.alias",
      [ Alcotest.test_case "overlap detection" `Quick test_alias_overlap ] );
    ( "vliw.molecule",
      [ Alcotest.test_case "issue constraints" `Quick test_molecule_constraints ] );
    ( "vliw.code",
      [ Alcotest.test_case "register range" `Quick test_code_register_range ] );
    ( "vliw.exec",
      [
        Alcotest.test_case "parallel semantics" `Quick test_engine_parallel_semantics;
        Alcotest.test_case "commit/rollback" `Quick test_engine_commit_rollback;
        Alcotest.test_case "store-to-load fwd" `Quick test_engine_forwarding;
        Alcotest.test_case "x86-flavoured alu" `Quick test_engine_aluX;
        Alcotest.test_case "div fault" `Quick test_engine_div_fault;
        Alcotest.test_case "page fault" `Quick test_engine_pf_fault;
        Alcotest.test_case "mmio spec fault" `Quick test_engine_mmio_spec_fault;
        Alcotest.test_case "alias fault" `Quick test_engine_alias_fault;
        Alcotest.test_case "smc fault" `Quick test_engine_smc_fault;
        Alcotest.test_case "interrupt sampling" `Quick test_engine_interrupt_sampling;
        Alcotest.test_case "runaway guard" `Quick test_engine_runaway;
        Alcotest.test_case "ext/ins field" `Quick test_engine_byte_field_atoms;
      ] );
  ]
