(* Host fast-path invisibility tests.

   The three host-side caching layers (MMU software TLB, decoded-
   instruction cache, RAM fast path — {!Cms.Config.host_fast_paths})
   claim to be observationally invisible: same guest-visible state,
   same cost-model charges, same fault and SMC event counts, whether
   on or off.  The differential suite pins that claim over the whole
   workload corpus; the targeted cases pin each invalidation edge of
   the decoded-instruction cache. *)

module Suite = Workloads.Suite

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let all_workloads () =
  Workloads.Progs_boot.all @ Workloads.Progs_spec.all
  @ Workloads.Progs_apps.all @ Workloads.Progs_quake.all
  @ [ Workloads.Progs_quake.blt_driver () ]
  @ Workloads.Progs_kernel.all

(* Everything guest-visible or cost-model-visible, with the host-cache
   counters (which legitimately differ between modes) normalized out. *)
let digest (c : Cms.t) =
  let s = Cms.stats c in
  let s_norm =
    {
      s with
      Cms.Stats.tlb_hits = 0;
      tlb_misses = 0;
      dcache_hits = 0;
      dcache_misses = 0;
      dcache_invalidations = 0;
      ram_fast_reads = 0;
      ram_fast_writes = 0;
    }
  in
  let m = Cms.mem c in
  let bus = m.Machine.Mem.bus in
  ( ( List.map (Cms.gpr c) X86.Regs.all,
      Cms.eip c,
      Cms.eflags c,
      Digest.bytes m.Machine.Mem.phys.Machine.Phys.data ),
    ( s_norm,
      Cms.total_molecules c,
      Cms.retired c ),
    ( m.Machine.Mem.smc_events,
      m.Machine.Mem.page_prot_faults,
      m.Machine.Mem.dma_smc_events,
      bus.Machine.Bus.mmio_reads,
      bus.Machine.Bus.mmio_writes,
      bus.Machine.Bus.port_ops ) )

let differential (w : Suite.t) () =
  let run fast =
    Suite.run ~cfg:{ Cms.Config.default with Cms.Config.host_fast_paths = fast } w
  in
  let on = run true and off = run false in
  check cb (w.Suite.name ^ ": identical observables") true
    (digest on = digest off);
  (* and the full VLIW perf counters agree too *)
  check cb (w.Suite.name ^ ": identical perf") true (Cms.perf on = Cms.perf off)

let differential_tests =
  List.map
    (fun w -> Alcotest.test_case w.Suite.name `Slow (differential w))
    (all_workloads ())

(* ------------------------------------------------------------------ *)
(* Decoded-instruction cache: targeted invalidation                    *)
(* ------------------------------------------------------------------ *)

(* Pure interpretation, so the decode cache is the only code cache in
   play (no translations, no SMC page protection). *)
let interp_cfg = Cms.interp_only_cfg

(* `l: mov eax, imm32 ; jmp l` — the imm32 lives at 0x1001, so a write
   there is self-modifying code on an unprotected, interpreted page:
   exactly the case only the decode cache's own write snoop catches. *)
let smc_listing imm =
  X86.Asm.(assemble ~base:0x1000 [ label "l"; mov_ri X86.Regs.eax imm; jmp "l" ])

let boot_loop imm =
  let c = Cms.create ~cfg:interp_cfg () in
  Cms.load c (smc_listing imm);
  Cms.boot c ~entry:0x1000;
  ignore (Cms.run ~max_insns:6 c);
  check ci "warmed" 0xaa11 (Cms.gpr c X86.Regs.eax);
  check cb "cache populated" true
    (Cms.Interp.dcache_population c.Cms.Engine.interp > 0);
  c

let test_dcache_smc_write () =
  let c = boot_loop 0xaa11 in
  (* guest store rewrites the mov's immediate *)
  Machine.Mem.write (Cms.mem c) ~size:4 0x1001 0xbb22;
  ignore (Cms.run ~max_insns:16 c);
  check ci "sees new imm" 0xbb22 (Cms.gpr c X86.Regs.eax);
  check cb "invalidated" true
    ((Cms.stats c).Cms.Stats.dcache_invalidations >= 1)

let test_dcache_dma_write () =
  let c = boot_loop 0xaa11 in
  let patch = Bytes.create 4 in
  Bytes.set_int32_le patch 0 0xcc33l;
  Machine.Mem.dma_write (Cms.mem c) 0x1001 patch;
  ignore (Cms.run ~max_insns:16 c);
  check ci "sees dma imm" 0xcc33 (Cms.gpr c X86.Regs.eax);
  check cb "invalidated" true
    ((Cms.stats c).Cms.Stats.dcache_invalidations >= 1)

let test_dcache_tcache_flush () =
  let c = boot_loop 0xaa11 in
  let interp = c.Cms.Engine.interp in
  Cms.Tcache.flush c.Cms.Engine.tcache;
  check ci "cleared" 0 (Cms.Interp.dcache_population interp);
  (* and it refills transparently *)
  ignore (Cms.run ~max_insns:12 c);
  check ci "still correct" 0xaa11 (Cms.gpr c X86.Regs.eax);
  check cb "repopulated" true (Cms.Interp.dcache_population interp > 0)

let test_dcache_counters () =
  let c = boot_loop 0xaa11 in
  let s = Cms.stats c in
  check cb "hits counted" true (s.Cms.Stats.dcache_hits > 0);
  check cb "misses counted" true (s.Cms.Stats.dcache_misses > 0);
  (* off mode: no decode cache at all *)
  let c' = Cms.create ~cfg:{ interp_cfg with Cms.Config.host_fast_paths = false } () in
  Cms.load c' (smc_listing 0xaa11);
  Cms.boot c' ~entry:0x1000;
  ignore (Cms.run ~max_insns:6 c');
  let s' = Cms.stats c' in
  check ci "no hits off" 0 s'.Cms.Stats.dcache_hits;
  check ci "no misses off" 0 s'.Cms.Stats.dcache_misses;
  check ci "no population off" 0
    (Cms.Interp.dcache_population c'.Cms.Engine.interp)

let dcache_tests =
  [
    Alcotest.test_case "smc write invalidates" `Quick test_dcache_smc_write;
    Alcotest.test_case "dma write invalidates" `Quick test_dcache_dma_write;
    Alcotest.test_case "tcache flush clears" `Quick test_dcache_tcache_flush;
    Alcotest.test_case "hit/miss counters" `Quick test_dcache_counters;
  ]

let suites =
  [
    ("hotpath.dcache", dcache_tests);
    ("hotpath.differential", differential_tests);
  ]
