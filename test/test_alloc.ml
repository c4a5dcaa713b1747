(* Allocation budget of the per-instruction paths.

   The interpreter is the fleet's solo mirror and the recovery path,
   so its per-instruction cost is the fleet's cost.  These tests pin
   its allocation with [Gc.minor_words]: a tuple- or closure-returning
   helper creeping back onto the interpret path or into a compiled
   molecule shows up here as words per instruction. *)

module Fleet = Cms_fleet.Fleet
module Suite = Workloads.Suite
module Journal = Cms_persist.Journal

(* An interpreter-only run of the RX-server kernel under seeded packet
   traffic, the fleet mirror's workload. *)
let test_interp_words_per_insn () =
  let spec = List.hd (Fleet.traffic_specs ~seed:1 ~machines:1) in
  let c = Suite.prepare ~cfg:Cms.interp_only_cfg spec.Fleet.s_workload in
  ignore (Journal.install_guest c spec.Fleet.s_events : Journal.injector);
  let w0 = Gc.minor_words () in
  let stop = Cms.run ~max_insns:spec.Fleet.s_workload.Suite.max_insns c in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "halted" true (stop = Cms.Engine.Halted);
  let insns = Cms.retired c in
  Alcotest.(check bool) "ran" true (insns > 100_000);
  Alcotest.(check int) "all interpreted" insns (Cms.stats c).Cms.Stats.x86_interp;
  let per_insn = words /. float_of_int insns in
  if per_insn > 2.0 then
    Alcotest.failf "%.2f minor words per interpreted instruction (budget 2)"
      per_insn

(* One molecule of x86-flavoured ALU atoms, closure-compiled: an
   independent pair (fused, evaluated in the apply phase) and a pair
   whose second atom reads the first's result and flags (staged through
   the evaluation phase). *)
let alux_block =
  let open Vliw in
  let fl = Abi.eflags in
  let x op rd a b fr fw = Atom.AluX { op; size = X86.Flags.S32; rd; a; b; fr; fw } in
  {
    Code.molecules =
      [|
        [|
          x Atom.XAdd (Some 20) (Atom.R 21) (Atom.I 7) Atom.no_flags fl;
          x Atom.XShl (Some 22) (Atom.R 22) (Atom.I 1) Atom.no_flags Atom.no_flags;
        |];
        [|
          x Atom.XAdc (Some 23) (Atom.R 20) (Atom.R 24) fl fl;
          x Atom.XCmp None (Atom.R 23) (Atom.I 3) Atom.no_flags 25;
        |];
      |];
    exits = [||];
  }

let test_closure_alux_no_alloc () =
  let mem = Machine.Mem.create ~ram_size:(1 lsl 20) () in
  let ex = Vliw.Exec.create ~sbuf_capacity:8 ~alias_slots:8 mem in
  let regs = ex.Vliw.Exec.regs in
  Vliw.Regfile.set regs Vliw.Abi.eflags X86.Flags.initial;
  Vliw.Regfile.set regs 21 0xfffffffa;
  Vliw.Regfile.set regs 24 0x12345678;
  match Vliw.Closure.compile ex alux_block with
  | None -> Alcotest.fail "AluX block did not closure-compile"
  | Some t ->
      let m0 = t.Vliw.Closure.mols.(0) and m1 = t.Vliw.Closure.mols.(1) in
      let runs = 100_000 in
      let w0 = Gc.minor_words () in
      for _ = 1 to runs do
        ignore (m0 () : int);
        ignore (m1 () : int)
      done;
      let words = Gc.minor_words () -. w0 in
      (* the molecules did run: 0xfffffffa + 7 carries out *)
      Alcotest.(check int) "add result" 1 (Vliw.Regfile.get regs 20);
      (* a few words of slack for the measurement itself *)
      if words > 16. then
        Alcotest.failf "%.0f minor words over %d molecule pairs" words runs

(* One pass through the translated memory path, closure-compiled: a
   plain load and a protected (alias-arming) speculative load, a
   checked speculative store and a plain byte store, then a commit that
   drains both stores to RAM. *)
let mem_block =
  let open Vliw in
  {
    Code.molecules =
      [|
        [|
          Atom.Load
            { rd = 20; base = 21; disp = 0; size = 4; spec = false;
              protect = None; check = 0 };
          Atom.Load
            { rd = 22; base = 21; disp = 0x40; size = 4; spec = true;
              protect = Some 0; check = 0 };
        |];
        [|
          Atom.Store
            { rs = Atom.R 20; base = 21; disp = 0x80; size = 4; spec = true;
              check = 0b1 };
          Atom.Store
            { rs = Atom.I 5; base = 21; disp = 0xc1; size = 1; spec = false;
              check = 0 };
        |];
        [| Atom.Commit 1 |];
      |];
    exits = [||];
  }

let test_closure_mem_no_alloc () =
  let mem = Machine.Mem.create ~ram_size:(1 lsl 20) () in
  Machine.Mmu.map_identity mem.Machine.Mem.mmu ~virt:0 ~pages:256
    ~writable:true;
  let ex = Vliw.Exec.create ~sbuf_capacity:8 ~alias_slots:8 mem in
  let regs = ex.Vliw.Exec.regs in
  Vliw.Regfile.set regs 21 0x4000;
  Machine.Mem.write mem ~size:4 0x4000 0x11223344;
  match Vliw.Closure.compile ex mem_block with
  | None -> Alcotest.fail "memory block did not closure-compile"
  | Some t ->
      let pass () =
        Array.iter (fun m -> ignore (m () : int)) t.Vliw.Closure.mols
      in
      pass ();
      let runs = 100_000 in
      let w0 = Gc.minor_words () in
      for _ = 1 to runs do
        pass ()
      done;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check int) "stored" 0x11223344
        (Machine.Mem.read mem ~size:4 0x4080);
      Alcotest.(check int) "byte stored" 5 (Machine.Mem.read mem ~size:1 0x40c1);
      Alcotest.(check int) "drained" 0 ex.Vliw.Exec.sbuf.Vliw.Storebuf.count;
      if words > 16. then
        Alcotest.failf "%.1f minor words per pass (budget 0)"
          (words /. float_of_int runs)

(* The bench hotpath loop in the production configuration: the
   translator, closures, chaining and the memory atoms all run.
   Translation allocates a fixed amount up front; over five million
   retired instructions that amortizes to about half a word. *)
let test_hotpath_words_per_insn () =
  let c = Cms.create ~cfg:Cms.Config.default () in
  Cms.load c (Workloads.Hotpath.listing ~iters:100_000);
  Cms.boot c ~entry:Workloads.Hotpath.entry;
  let w0 = Gc.minor_words () in
  let stop = Cms.run c in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "halted" true (stop = Cms.Engine.Halted);
  let insns = Cms.retired c in
  Alcotest.(check bool) "ran" true (insns > 5_000_000);
  Alcotest.(check bool) "mostly translated" true
    ((Cms.perf c).Vliw.Perf.x86_committed > insns / 2);
  let per_insn = words /. float_of_int insns in
  if per_insn > 2.0 then
    Alcotest.failf "%.2f minor words per retired instruction (budget 2)"
      per_insn

let suites =
  [
    ( "alloc",
      [
        Alcotest.test_case "interpreter <= 2 words/insn" `Quick
          test_interp_words_per_insn;
        Alcotest.test_case "closure AluX allocates nothing" `Quick
          test_closure_alux_no_alloc;
        Alcotest.test_case "closure load/store/commit allocates nothing"
          `Quick test_closure_mem_no_alloc;
        Alcotest.test_case "hotpath loop <= 2 words/insn" `Quick
          test_hotpath_words_per_insn;
      ] );
  ]
