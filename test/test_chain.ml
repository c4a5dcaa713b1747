(* Closure-compiled molecules and direct block chaining.

   The steady-state execution tier ({!Cms.Config.closure_exec}) and
   the chained-transfer loop ({!Cms.Config.chain_exits}) both claim to
   be observationally invisible: same guest-visible state, same
   cost-model charges, same fault and SMC event counts, whether on or
   off.  The differential suite pins that claim over the whole
   workload corpus; the unit cases pin every unlink edge of the chain
   bookkeeping (eviction, SMC, chaos storms, AOT round-trips); the
   fuzz slice keeps the generated-program oracle honest with both
   features forced on. *)

module Suite = Workloads.Suite
module Tcache = Cms.Tcache
module Srng = Cms_fuzz.Srng
module Gen = Cms_fuzz.Gen
module Oracle = Cms_fuzz.Oracle

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let all_workloads () =
  Workloads.Progs_boot.all @ Workloads.Progs_spec.all
  @ Workloads.Progs_apps.all @ Workloads.Progs_quake.all
  @ [ Workloads.Progs_quake.blt_driver () ]
  @ Workloads.Progs_kernel.all

(* Everything guest-visible or cost-model-visible.  Only the new chain
   counters are normalized out: closure compilation and chain
   following are bookkept, but must change nothing else. *)
let digest (c : Cms.t) =
  let s = Cms.stats c in
  let s_norm =
    {
      s with
      Cms.Stats.closures_compiled = 0;
      chained_exits_taken = 0;
      chain_unlinks_evict = 0;
      chain_unlinks_demote = 0;
      chain_unlinks_smc = 0;
      chain_unlinks_aot = 0;
      chain_unlinks_chaos = 0;
    }
  in
  let m = Cms.mem c in
  let bus = m.Machine.Mem.bus in
  ( ( List.map (Cms.gpr c) X86.Regs.all,
      Cms.eip c,
      Cms.eflags c,
      Digest.bytes m.Machine.Mem.phys.Machine.Phys.data ),
    (s_norm, Cms.total_molecules c, Cms.retired c),
    ( m.Machine.Mem.smc_events,
      m.Machine.Mem.page_prot_faults,
      m.Machine.Mem.dma_smc_events,
      bus.Machine.Bus.mmio_reads,
      bus.Machine.Bus.mmio_writes,
      bus.Machine.Bus.port_ops ) )

let differential (w : Suite.t) () =
  let run cfg = Suite.run ~cfg w in
  let full =
    run
      {
        Cms.Config.default with
        Cms.Config.closure_exec = true;
        chain_exits = true;
      }
  in
  let no_closures =
    run { Cms.Config.default with Cms.Config.closure_exec = false }
  in
  let no_chain =
    run { Cms.Config.default with Cms.Config.chain_exits = false }
  in
  check cb (w.Suite.name ^ ": closures off identical") true
    (digest full = digest no_closures);
  check cb (w.Suite.name ^ ": chain off identical") true
    (digest full = digest no_chain);
  (* and the full VLIW perf counters agree too *)
  check cb (w.Suite.name ^ ": identical perf") true
    (Cms.perf full = Cms.perf no_closures && Cms.perf full = Cms.perf no_chain)

let differential_tests =
  List.map
    (fun w -> Alcotest.test_case w.Suite.name `Slow (differential w))
    (all_workloads ())

(* ------------------------------------------------------------------ *)
(* Chain bookkeeping (unit level, synthetic records)                   *)
(* ------------------------------------------------------------------ *)

let mk_region ~entry =
  {
    Cms.Region.entry;
    insns = [||];
    cont = None;
    src_ranges = [ (entry, entry + 8) ];
  }

let insert tc ~entry =
  Tcache.insert tc ~entry
    ~code:(Cms.Codegen.zero_insn_code ~entry)
    ~region:(mk_region ~entry)
    ~policy:(Cms.Policy.default Cms.Config.default)
    ~snapshot:None

let exit0 (tr : Tcache.trans) = tr.Tcache.code.Vliw.Code.exits.(0)

(* What the engine's patch path does: mark the exit chained and record
   the reverse link for eager teardown. *)
let chain a b =
  (exit0 a).Vliw.Code.chain <- Vliw.Code.Chained b.Tcache.id;
  Tcache.link ~src:a ~exit_idx:0 ~dst:b

let test_unlink_on_eviction () =
  let tc = Tcache.create ~capacity:8 in
  let a = insert tc ~entry:0x1000 and b = insert tc ~entry:0x2000 in
  chain a b;
  check ci "one chained exit" 1 (List.length (Tcache.chained_exits tc));
  (* the eviction path: drop [b] from the cache *)
  Tcache.invalidate tc b ~keep_in_group:false;
  check cb "a's exit unchained" true
    ((exit0 a).Vliw.Code.chain = Vliw.Code.Unchained);
  check ci "counted under eviction" 1 tc.Tcache.unlinks_evict;
  check ci "no chained exits left" 0 (List.length (Tcache.chained_exits tc));
  (* idempotent: the link is gone, a second death cannot recount it *)
  Tcache.drop tc b ~cause:Tcache.Uevict;
  check ci "counted once" 1 tc.Tcache.unlinks_evict

let test_unlink_on_smc () =
  let c = Cms.create () in
  let tc = c.Cms.Engine.tcache in
  let a = insert tc ~entry:0x1000 and b = insert tc ~entry:0x2000 in
  chain a b;
  (* the SMC path: a code write invalidates [b] through the Smc layer *)
  Cms.Smc.invalidate c.Cms.Engine.smc b ~keep_in_group:false;
  check cb "a's exit unchained" true
    ((exit0 a).Vliw.Code.chain = Vliw.Code.Unchained);
  check ci "counted under smc" 1 tc.Tcache.unlinks_smc;
  check ci "not counted under eviction" 0 tc.Tcache.unlinks_evict;
  Cms.Engine.sync_host_stats c;
  check ci "surfaced in stats" 1 (Cms.stats c).Cms.Stats.chain_unlinks_smc

let test_flush_unlinks_all () =
  let tc = Tcache.create ~capacity:8 in
  let a = insert tc ~entry:0x1000 and b = insert tc ~entry:0x2000 in
  chain a b;
  chain b a;
  check ci "two chained exits" 2 (List.length (Tcache.chained_exits tc));
  Tcache.flush tc;
  check ci "both counted under eviction" 2 tc.Tcache.unlinks_evict;
  check cb "exits reset" true
    ((exit0 a).Vliw.Code.chain = Vliw.Code.Unchained
    && (exit0 b).Vliw.Code.chain = Vliw.Code.Unchained)

let test_unlink_nth () =
  let tc = Tcache.create ~capacity:8 in
  check cb "empty cache: nothing to cut" false (Tcache.unlink_nth tc ~k:7);
  let a = insert tc ~entry:0x1000 and b = insert tc ~entry:0x2000 in
  chain a b;
  chain b a;
  (* canonical order is (id, exit): k = 1 names b's exit *)
  check cb "cut something" true (Tcache.unlink_nth tc ~k:1);
  check cb "b's exit cut" true
    ((exit0 b).Vliw.Code.chain = Vliw.Code.Unchained);
  check cb "a's exit intact" true
    ((exit0 a).Vliw.Code.chain = Vliw.Code.Chained b.Tcache.id);
  (* selection wraps modulo the live link count *)
  check cb "cut the survivor" true (Tcache.unlink_nth tc ~k:5);
  check cb "a's exit cut too" true
    ((exit0 a).Vliw.Code.chain = Vliw.Code.Unchained);
  check ci "both counted under chaos" 2 tc.Tcache.unlinks_chaos;
  check cb "nothing left to cut" false (Tcache.unlink_nth tc ~k:0)

let unit_tests =
  [
    Alcotest.test_case "unlink on eviction" `Quick test_unlink_on_eviction;
    Alcotest.test_case "unlink on smc" `Quick test_unlink_on_smc;
    Alcotest.test_case "flush unlinks all" `Quick test_flush_unlinks_all;
    Alcotest.test_case "unlink-storm selection" `Quick test_unlink_nth;
  ]

(* ------------------------------------------------------------------ *)
(* AOT round trip: chained exits ship as Unchained, re-chain locally   *)
(* ------------------------------------------------------------------ *)

let test_aot_chain_reset () =
  let w = List.hd Workloads.Progs_spec.all in
  let cfg = Cms.Config.default in
  let c = Suite.prepare ~cfg w in
  let img =
    (Cms_analysis.Aotgen.build ~label:w.Suite.name c ~entry:w.Suite.entry)
      .Cms_analysis.Aotgen.image
  in
  (* the real boot path: through the stable codec *)
  let img = Cms_persist.Aot.of_string (Cms_persist.Aot.to_string img) in
  ignore (Cms_persist.Aot.install c img : Cms_persist.Aot.install_report);
  check ci "no chained exits after install" 0
    (List.length (Tcache.chained_exits c.Cms.Engine.tcache));
  let c = Suite.run_prepared w c in
  let s = Cms.stats c in
  check cb "re-chained locally" true (s.Cms.Stats.chain_patches > 0);
  check cb "chained transfers taken" true (s.Cms.Stats.chained_exits_taken > 0)

(* The live counters move on an ordinary hot workload too. *)
let test_counters_move () =
  let c = Suite.run ~cfg:Cms.Config.default (List.hd Workloads.Progs_spec.all) in
  let s = Cms.stats c in
  check cb "closures compiled" true (s.Cms.Stats.closures_compiled > 0);
  check cb "chained exits taken" true (s.Cms.Stats.chained_exits_taken > 0)

let aot_tests =
  [
    Alcotest.test_case "aot round-trip resets chains" `Slow
      test_aot_chain_reset;
    Alcotest.test_case "counters move when hot" `Quick test_counters_move;
  ]

(* ------------------------------------------------------------------ *)
(* Fuzz slice with closures + chaining forced on in oracle B           *)
(* ------------------------------------------------------------------ *)

let test_fuzz_slice () =
  let rng = Srng.create 0xc4a1 in
  for index = 0 to 23 do
    let case = Gen.generate (Srng.split rng) ~seed:31 ~index in
    match Oracle.check (Oracle.render case) with
    | Oracle.Pass | Oracle.Hang -> ()
    | Oracle.Divergence d -> Alcotest.failf "case %d diverges: %s" index d
  done

(* The chaos differential (clean interpreter vs chaos-scrambled
   translator) with chained exits and closure execution on: forced
   faults, translator deaths, spoofed interrupts and unlink storms must
   all leave the architectural state equal to the interpreter's. *)
let test_chaos_chain_smoke () =
  let root = Srng.create 97 in
  for index = 0 to 14 do
    let rng = Srng.split root in
    let case = Gen.generate rng ~seed:97 ~index in
    let seed = Srng.int32 rng in
    match Oracle.check (Oracle.render ~chaos:seed case) with
    | Oracle.Pass | Oracle.Hang -> ()
    | Oracle.Divergence d -> Alcotest.failf "chaos x chain case %d: %s" index d
  done

let fuzz_tests =
  [
    Alcotest.test_case "24-case slice" `Slow test_fuzz_slice;
    Alcotest.test_case "chaos x chain (15 cases)" `Slow test_chaos_chain_smoke;
  ]

let suites =
  [
    ("chain.unit", unit_tests);
    ("chain.aot", aot_tests);
    ("chain.fuzz", fuzz_tests);
    ("chain.differential", differential_tests);
  ]
