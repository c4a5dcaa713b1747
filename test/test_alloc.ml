(* Allocation budget of the per-instruction paths and of checkpoints.

   The interpreter is the recovery path and the reference every
   translation is checked against.  These tests pin its allocation with
   [Gc.minor_words]: a tuple- or closure-returning helper creeping back
   onto the interpret path or into a compiled molecule shows up here as
   words per instruction.  A fleet machine also checkpoints every 20k
   instructions, so the major-heap garbage of one capture is pinned
   too, and so is what a whole fleet machine allocates on the major
   heap once it boots on recycled RAM. *)

module Fleet = Cms_fleet.Fleet
module Suite = Workloads.Suite
module Journal = Cms_persist.Journal

(* An interpreter-only run of the RX-server kernel under seeded packet
   traffic, the fleet's workload. *)
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

(* An eager capture of a running fleet machine.  The image itself is
   one string; the writer, the section payloads and the RAM pages must
   not each add another copy of it.  Each capture freezes into a fresh
   writer that starts at [Codec.image_capacity], so it does not regrow
   by doubling.  The first capture fills the page-table and frame-buffer
   encoding caches, so it is left out. *)
let test_capture_major_words () =
  let spec = List.hd (Fleet.traffic_specs ~seed:1 ~machines:4) in
  let c = Suite.prepare ~cfg:Fleet.engine_cfg spec.Fleet.s_workload in
  let inj = Journal.install_guest c spec.Fleet.s_events in
  (match Cms.run ~max_insns:100_000 c with
  | Cms.Engine.Insn_limit -> ()
  | Cms.Engine.Halted -> Alcotest.fail "fleet machine halted before 100k");
  let capture () = Cms_persist.Snapshot.capture ~label:"m0" ~injector:inj c in
  let image = capture () in
  let runs = 8 in
  let _, _, m0 = Gc.counters () in
  for _ = 1 to runs do
    ignore (capture () : string)
  done;
  let _, _, m1 = Gc.counters () in
  let per_capture = (m1 -. m0) /. float_of_int runs in
  let image_words = float_of_int (String.length image / (Sys.word_size / 8)) in
  if per_capture > 4. *. image_words then
    Alcotest.failf "%.0f major words per capture of a %.0f-word image (budget 4x)"
      per_capture image_words

(* Words allocated so far, minor and major heap alike.  The minor part
   is [Gc.minor_words], which counts the live minor heap exactly: the
   minor component of [Gc.counters] (OCaml 5.1) counts only an eighth
   of what was allocated since the last minor collection, so a window
   with no collection in it read an eighth of its words, and one with a
   collection read most of a minor heap. *)
let allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* A periodic checkpoint only freezes: it writes the sections into one
   of the checkpointer's two buffers and leaves the digests and the
   image copy to whoever reads it.  So it allocates a small fraction of
   the image, not another copy.  The first two freezes grow the buffers
   and fill the encoding caches, so they are left out. *)
let test_freeze_words () =
  let spec = List.hd (Fleet.traffic_specs ~seed:1 ~machines:4) in
  let c = Suite.prepare ~cfg:Fleet.engine_cfg spec.Fleet.s_workload in
  let inj = Journal.install_guest c spec.Fleet.s_events in
  (match Cms.run ~max_insns:100_000 c with
  | Cms.Engine.Insn_limit -> ()
  | Cms.Engine.Halted -> Alcotest.fail "fleet machine halted before 100k");
  let buffers =
    [| Cms_persist.Codec.writer (); Cms_persist.Codec.writer () |]
  in
  let freeze i =
    Cms_persist.Snapshot.freeze ~label:"m0" ~injector:inj
      ~into:buffers.(i land 1) c
  in
  ignore (freeze 0 : Cms_persist.Snapshot.frozen);
  let image = Cms_persist.Snapshot.seal (freeze 1) in
  let runs = 8 in
  let w0 = allocated () in
  for i = 0 to runs - 1 do
    ignore (freeze i : Cms_persist.Snapshot.frozen)
  done;
  let per_freeze = (allocated () -. w0) /. float_of_int runs in
  let image_words = float_of_int (String.length image / (Sys.word_size / 8)) in
  if per_freeze > image_words /. 4. then
    Alcotest.failf "%.0f words per freeze of a %.0f-word image (budget 1/4)"
      per_freeze image_words

(* A fleet machine boots on the RAM an earlier machine released, so it
   neither maps a fresh 16 MiB block nor takes that block's page faults
   again.  The first run fills the pool; on the second every machine,
   restarts included, reuses a block. *)
let test_fleet_machine_major_words () =
  let specs = Fleet.traffic_specs ~seed:1 ~machines:4 in
  let fcfg = { Fleet.default_config with Fleet.shards = 1 } in
  let run () =
    ignore (Fleet.run ~store:(Cms_persist.Tstore.create ()) fcfg specs
      : Fleet.totals)
  in
  run ();
  let _, _, m0 = Gc.counters () in
  run ();
  let _, _, m1 = Gc.counters () in
  let per_machine = (m1 -. m0) /. float_of_int (List.length specs) in
  if per_machine > 500_000. then
    Alcotest.failf "%.0f major words per fleet machine (budget 500k)"
      per_machine

(* The translator's allocation per lowered IR item, over every compile
   a default run of the coldstart programs makes (captured in
   [Test_translator]), compiled again under the default configuration.
   Words are the exact minor words plus what went straight to the major
   heap.  Size bins: under 40 items and 300 or more. *)
type bin = { mutable items : int; mutable words : float }

let translator_words =
  lazy
    (let small = { items = 0; words = 0. } and large = { items = 0; words = 0. } in
     let all = { items = 0; words = 0. } in
     List.iter
       (fun (i : Test_translator.input) ->
         let policy = i.Test_translator.policy and region = i.region in
         let n = List.length (Cms.Ir.items (Cms.Lower.lower ~policy region)) in
         let w0 = allocated () in
         (try
            ignore
              (Cms.Codegen.compile_presnapped ~cfg:Cms.Config.default ~policy
                 ~bytes:i.bytes region
                : Cms.Codegen.compiled)
          with Cms.Codegen.Too_big | Cms.Codegen.Verify_failed _ -> ());
         let words = allocated () -. w0 in
         List.iter
           (fun b ->
             b.items <- b.items + n;
             b.words <- b.words +. words)
           (all :: (if n < 40 then [ small ] else if n >= 300 then [ large ] else [])))
       (Lazy.force Test_translator.coldstart_inputs);
     let per b = b.words /. float_of_int (max 1 b.items) in
     (per all, per small, per large))

(* The scheduler and the optimizer at linear cost keep a compile near
   760 words per item; the quadratic ones took 1 620. *)
let test_translator_words_per_item () =
  let all, _, _ = Lazy.force translator_words in
  if all > 900. then
    Alcotest.failf "%.0f words per lowered IR item (budget 900)" all

(* A large region costs about what a small one does per item (0.9x);
   the quadratic passes made it 1.9x. *)
let test_translator_words_flat () =
  let _, small, large = Lazy.force translator_words in
  if large > 1.5 *. small then
    Alcotest.failf
      "%.0f words per item at 300+ items against %.0f under 40 (budget 1.5x)"
      large small

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
        Alcotest.test_case "fleet capture <= 4x image words" `Quick
          test_capture_major_words;
        Alcotest.test_case "fleet freeze <= 1/4 image words" `Quick
          test_freeze_words;
        Alcotest.test_case "fleet machine <= 0.5M major words" `Quick
          test_fleet_machine_major_words;
        Alcotest.test_case "translator <= 900 words/IR item" `Quick
          test_translator_words_per_item;
        Alcotest.test_case "translator 300+ items <= 1.5x words/item" `Quick
          test_translator_words_flat;
      ] );
  ]
