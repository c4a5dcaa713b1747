(* Tests for the machine substrate: MMU translation and faults, bus/MMIO
   dispatch, fine-grain protection cache, SMC write events, devices and
   DMA. *)

open Machine

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* MMU                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mmu_identity () =
  let m = Mmu.create () in
  Mmu.map_identity m ~virt:0 ~pages:16 ~writable:true;
  check ci "ident" 0x1234 (Mmu.translate m Mmu.Read 0x1234);
  check ci "page 15" 0xf123 (Mmu.translate m Mmu.Write 0xf123)

let test_mmu_remap () =
  let m = Mmu.create () in
  Mmu.map m ~virt:0x400000 ~phys:0x1000 ~writable:true;
  check ci "remap" 0x1abc (Mmu.translate m Mmu.Read 0x400abc)

let expect_pf ?(write = false) ?(present = false) f =
  match f () with
  | exception X86.Exn.Fault (X86.Exn.PF p) ->
      check cb "write bit" write p.write;
      check cb "present bit" present p.present
  | _ -> Alcotest.fail "expected #PF"

let test_mmu_not_present () =
  let m = Mmu.create () in
  expect_pf (fun () -> Mmu.translate m Mmu.Read 0x5000);
  Mmu.map m ~virt:0x5000 ~phys:0x5000 ~writable:true;
  Mmu.unmap m ~virt:0x5000;
  expect_pf (fun () -> Mmu.translate m Mmu.Read 0x5000)

let test_mmu_readonly () =
  let m = Mmu.create () in
  Mmu.map m ~virt:0x2000 ~phys:0x2000 ~writable:false;
  check ci "read ok" 0x2004 (Mmu.translate m Mmu.Read 0x2004);
  expect_pf ~write:true ~present:true (fun () ->
      Mmu.translate m Mmu.Write 0x2004)

let mmu_tests =
  [
    Alcotest.test_case "identity map" `Quick test_mmu_identity;
    Alcotest.test_case "remap" `Quick test_mmu_remap;
    Alcotest.test_case "not present faults" `Quick test_mmu_not_present;
    Alcotest.test_case "read-only faults writes" `Quick test_mmu_readonly;
  ]

(* ------------------------------------------------------------------ *)
(* Fine-grain cache                                                    *)
(* ------------------------------------------------------------------ *)

let test_fg_mask () =
  let m = Finegrain.mask_of_range ~paddr:0x1000 ~len:1 in
  check cb "chunk 0" true (Int64.logand m 1L <> 0L);
  let m = Finegrain.mask_of_range ~paddr:0x1040 ~len:4 in
  check cb "chunk 1" true (Int64.logand m 2L <> 0L);
  (* write spanning chunk boundary touches both *)
  let m = Finegrain.mask_of_range ~paddr:0x103e ~len:4 in
  check cb "both chunks" true (Int64.logand m 3L = 3L)

let test_fg_cache () =
  let fg = Finegrain.create ~capacity:2 () in
  check cb "miss first" true (Finegrain.check fg ~paddr:0x1000 ~len:4 = Finegrain.Miss);
  Finegrain.install fg ~ppn:1 ~mask:1L;
  (* chunk 0 protected *)
  check cb "hit protected" true
    (Finegrain.check fg ~paddr:0x1000 ~len:4 = Finegrain.Protected_chunk);
  check cb "hit clear" true
    (Finegrain.check fg ~paddr:0x1100 ~len:4 = Finegrain.Clear)

let test_fg_lru_evict () =
  let fg = Finegrain.create ~capacity:2 () in
  Finegrain.install fg ~ppn:1 ~mask:0L;
  Finegrain.install fg ~ppn:2 ~mask:0L;
  (* touch 1 so 2 becomes LRU *)
  ignore (Finegrain.check fg ~paddr:0x1000 ~len:1);
  Finegrain.install fg ~ppn:3 ~mask:0L;
  check cb "1 kept" true (Finegrain.check fg ~paddr:0x1000 ~len:1 = Finegrain.Clear);
  check cb "2 evicted" true (Finegrain.check fg ~paddr:0x2000 ~len:1 = Finegrain.Miss)

let fg_tests =
  [
    Alcotest.test_case "chunk masks" `Quick test_fg_mask;
    Alcotest.test_case "cache hit/miss" `Quick test_fg_cache;
    Alcotest.test_case "LRU eviction" `Quick test_fg_lru_evict;
  ]

(* ------------------------------------------------------------------ *)
(* Mem: SMC protection layering                                        *)
(* ------------------------------------------------------------------ *)

let mk_mem () =
  let m = Mem.create ~ram_size:(1 lsl 20) () in
  Mmu.map_identity m.Mem.mmu ~virt:0 ~pages:256 ~writable:true;
  m

let test_write_read_roundtrip () =
  let m = mk_mem () in
  Mem.write m ~size:4 0x1000 0xdeadbeef;
  check ci "read32" 0xdeadbeef (Mem.read m ~size:4 0x1000);
  check ci "read8" 0xad (Mem.read m ~size:1 0x1002);
  Mem.write m ~size:1 0x1001 0x55;
  check ci "byte patch" 0xdead55ef (Mem.read m ~size:4 0x1000)

let test_cross_page_access () =
  let m = mk_mem () in
  Mem.write m ~size:4 0xfff 0x11223344;
  check ci "crosses" 0x11223344 (Mem.read m ~size:4 0xfff);
  check ci "page0 byte" 0x44 (Mem.read m ~size:1 0xfff);
  check ci "page1 byte" 0x33 (Mem.read m ~size:1 0x1000)

let test_smc_page_event () =
  let m = mk_mem () in
  let hits = ref [] in
  m.Mem.on_smc <-
    (fun hit ~paddr ~len:_ ->
      hits := (hit, paddr) :: !hits;
      (* handler unprotects, like CMS after invalidating translations *)
      Mem.unprotect_page m ~ppn:(paddr lsr 12));
  Mem.protect_page m ~ppn:2;
  Mem.write m ~size:4 0x2010 42;
  check ci "one event" 1 (List.length !hits);
  (match !hits with
  | [ (Mem.Page_level, 0x2010) ] -> ()
  | _ -> Alcotest.fail "wrong event");
  check ci "write landed" 42 (Mem.read m ~size:4 0x2010);
  (* page now unprotected: no more events *)
  Mem.write m ~size:4 0x2014 43;
  check ci "still one event" 1 (List.length !hits)

let test_smc_fine_grain () =
  let m = mk_mem () in
  let events = ref [] in
  m.Mem.on_smc <-
    (fun hit ~paddr ~len:_ ->
      events := hit :: !events;
      match hit with
      | Mem.Fg_miss ->
          (* CMS refills the cache: chunk 0 holds code *)
          Finegrain.install m.Mem.fg ~ppn:(paddr lsr 12) ~mask:1L
      | Mem.Fg_chunk | Mem.Page_level ->
          Mem.unprotect_page m ~ppn:(paddr lsr 12));
  Mem.protect_page m ~ppn:3;
  Mem.set_fg_mode m ~ppn:3 true;
  (* data write to chunk 4: first a miss, then clear, no more events *)
  Mem.write m ~size:4 0x3100 7;
  check ci "miss only" 1 (List.length !events);
  Mem.write m ~size:4 0x3104 8;
  check ci "no new events" 1 (List.length !events);
  (* write into chunk 0 = protected code chunk *)
  Mem.write m ~size:4 0x3004 9;
  check cb "chunk event" true (List.hd !events = Mem.Fg_chunk)

let test_fg_disabled_falls_back () =
  let m = mk_mem () in
  m.Mem.fg_enabled <- false;
  let count = ref 0 in
  m.Mem.on_smc <-
    (fun hit ~paddr ~len:_ ->
      incr count;
      check cb "page level" true (hit = Mem.Page_level);
      Mem.unprotect_page m ~ppn:(paddr lsr 12));
  Mem.protect_page m ~ppn:4;
  Mem.set_fg_mode m ~ppn:4 true;
  (* ignored when hardware absent *)
  Mem.write m ~size:4 0x4100 1;
  check ci "faulted at page level" 1 !count

let mem_tests =
  [
    Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
    Alcotest.test_case "cross-page access" `Quick test_cross_page_access;
    Alcotest.test_case "page-level SMC event" `Quick test_smc_page_event;
    Alcotest.test_case "fine-grain filtering" `Quick test_smc_fine_grain;
    Alcotest.test_case "fg disabled falls back" `Quick test_fg_disabled_falls_back;
  ]

(* ------------------------------------------------------------------ *)
(* Platform devices                                                    *)
(* ------------------------------------------------------------------ *)

let test_uart () =
  let p = Platform.create () in
  let bus = p.Platform.mem.Mem.bus in
  Bus.port_write bus Platform.uart_base (Char.code 'h');
  Bus.port_write bus Platform.uart_base (Char.code 'i');
  check Alcotest.string "output" "hi" (Uart.output p.Platform.uart);
  Uart.feed_input p.Platform.uart [ 65 ];
  check ci "status ready" 0x21 (Bus.port_read bus (Platform.uart_base + 5));
  check ci "read input" 65 (Bus.port_read bus Platform.uart_base);
  check ci "fifo drained" 0 (Bus.port_read bus Platform.uart_base)

let test_timer_irq () =
  let p = Platform.create () in
  let bus = p.Platform.mem.Mem.bus in
  Bus.port_write bus Platform.timer_base 1000;
  Bus.port_write bus (Platform.timer_base + 1) 0;
  check cb "nothing yet" false (Irq.has_pending p.Platform.irq);
  Bus.tick bus 999;
  check cb "still nothing" false (Irq.has_pending p.Platform.irq);
  Bus.tick bus 2;
  check cb "fired" true (Irq.has_pending p.Platform.irq);
  (match Irq.ack p.Platform.irq with
  | Some v -> check ci "vector" (Irq.base_vector + Platform.timer_irq_line) v
  | None -> Alcotest.fail "no vector");
  check cb "latched once" false (Irq.has_pending p.Platform.irq)

let test_irq_mask () =
  let irq = Irq.create () in
  Irq.raise_line irq 3;
  Irq.set_mask irq (1 lsl 3);
  check cb "masked" false (Irq.has_pending irq);
  Irq.set_mask irq 0;
  check cb "unmasked shows" true (Irq.has_pending irq);
  (* priority: lowest line first *)
  Irq.raise_line irq 1;
  (match Irq.ack irq with
  | Some v -> check ci "line 1 first" (Irq.base_vector + 1) v
  | None -> Alcotest.fail "nothing pending")

let test_framebuf_mmio () =
  let p = Platform.create () in
  let m = p.Platform.mem in
  Mmu.map_identity m.Mem.mmu ~virt:Platform.fb_base ~pages:16 ~writable:true;
  check cb "is mmio" true (Bus.is_mmio m.Mem.bus Platform.fb_base);
  check cb "ram is not" false (Bus.is_mmio m.Mem.bus 0x1000);
  Mem.write m ~size:4 Platform.fb_base 0xabcd1234;
  check ci "fb readback" 0xabcd1234 (Mem.read m ~size:4 Platform.fb_base);
  check ci "fb write count" 1 p.Platform.fb.Framebuf.writes;
  (* frame port *)
  Bus.port_write m.Mem.bus Platform.frame_port 1;
  check ci "frames" 1 p.Platform.fb.Framebuf.frames

let test_disk_dma () =
  let image = Bytes.make 4096 'x' in
  Bytes.blit_string "hello-dma!" 0 image 512 10;
  let p = Platform.create ~disk_image:image ~disk_latency:100 () in
  let m = p.Platform.mem in
  Mmu.map_identity m.Mem.mmu ~virt:0 ~pages:256 ~writable:true;
  let bus = m.Mem.bus in
  Bus.port_write bus Platform.disk_base 1; (* sector 1 *)
  Bus.port_write bus (Platform.disk_base + 1) 0x8000; (* dest *)
  Bus.port_write bus (Platform.disk_base + 2) 1; (* one sector *)
  Bus.port_write bus (Platform.disk_base + 3) 1; (* start *)
  check ci "busy" 1 (Bus.port_read bus (Platform.disk_base + 3));
  Bus.tick bus 100;
  check ci "idle" 0 (Bus.port_read bus (Platform.disk_base + 3));
  check cb "irq" true (Irq.has_pending p.Platform.irq);
  check ci "data arrived" (Char.code 'h') (Mem.read m ~size:1 0x8000);
  check ci "data arrived 2" (Char.code '-') (Mem.read m ~size:1 0x8005)

let test_dma_smc_notify () =
  let image = Bytes.make 1024 'z' in
  let p = Platform.create ~disk_image:image ~disk_latency:10 () in
  let m = p.Platform.mem in
  Mmu.map_identity m.Mem.mmu ~virt:0 ~pages:256 ~writable:true;
  let notified = ref [] in
  m.Mem.on_dma_smc <-
    (fun ~ppn ->
      notified := ppn :: !notified;
      Mem.unprotect_page m ~ppn);
  Mem.protect_page m ~ppn:8;
  let bus = m.Mem.bus in
  Bus.port_write bus Platform.disk_base 0;
  Bus.port_write bus (Platform.disk_base + 1) 0x8000;
  Bus.port_write bus (Platform.disk_base + 2) 1;
  Bus.port_write bus (Platform.disk_base + 3) 1;
  Bus.tick bus 10;
  check (Alcotest.list ci) "ppn 8 notified" [ 8 ] !notified;
  check cb "unprotected" false (Mem.is_protected m ~ppn:8)

let device_tests =
  [
    Alcotest.test_case "uart" `Quick test_uart;
    Alcotest.test_case "timer irq" `Quick test_timer_irq;
    Alcotest.test_case "irq mask/priority" `Quick test_irq_mask;
    Alcotest.test_case "framebuffer mmio" `Quick test_framebuf_mmio;
    Alcotest.test_case "disk dma" `Quick test_disk_dma;
    Alcotest.test_case "dma smc notify" `Quick test_dma_smc_notify;
  ]

(* ------------------------------------------------------------------ *)
(* Host fast paths: software-TLB and RAM-fast-path invalidation.       *)
(* Every test here relies on the caches being ON (the default); the    *)
(* point is that stale entries must die on every remapping event.      *)
(* ------------------------------------------------------------------ *)

let test_tlb_remap_invalidates () =
  let m = Mmu.create () in
  Mmu.map m ~virt:0x4000 ~phys:0x1000 ~writable:true;
  (* fill the TLB for all three access kinds *)
  check ci "read 1" 0x1010 (Mmu.translate m Mmu.Read 0x4010);
  check ci "write 1" 0x1010 (Mmu.translate m Mmu.Write 0x4010);
  check ci "exec 1" 0x1010 (Mmu.translate m Mmu.Exec 0x4010);
  (* remap the same virtual page elsewhere: cached entries must die *)
  Mmu.map m ~virt:0x4000 ~phys:0x2000 ~writable:true;
  check ci "read 2" 0x2010 (Mmu.translate m Mmu.Read 0x4010);
  check ci "write 2" 0x2010 (Mmu.translate m Mmu.Write 0x4010);
  check ci "exec 2" 0x2010 (Mmu.translate m Mmu.Exec 0x4010);
  (* an identity map over a range that covers the page: one flush for
     the whole range must still kill the cached entries *)
  Mmu.map_identity m ~virt:0x3000 ~pages:2 ~writable:true;
  check ci "read 3" 0x4010 (Mmu.translate m Mmu.Read 0x4010);
  check ci "write 3" 0x4010 (Mmu.translate m Mmu.Write 0x4010);
  check ci "exec 3" 0x4010 (Mmu.translate m Mmu.Exec 0x4010)

let test_tlb_unmap_invalidates () =
  let m = Mmu.create () in
  Mmu.map m ~virt:0x4000 ~phys:0x1000 ~writable:true;
  check ci "hit" 0x1000 (Mmu.translate m Mmu.Read 0x4000);
  Mmu.unmap m ~virt:0x4000;
  expect_pf (fun () -> Mmu.translate m Mmu.Read 0x4000)

let test_tlb_set_writable_invalidates () =
  let m = Mmu.create () in
  Mmu.map m ~virt:0x4000 ~phys:0x1000 ~writable:true;
  check ci "write ok" 0x1000 (Mmu.translate m Mmu.Write 0x4000);
  Mmu.set_writable m ~virt:0x4000 false;
  (* the cached Write-way entry must not authorize this store *)
  expect_pf ~write:true ~present:true (fun () ->
      Mmu.translate m Mmu.Write 0x4000);
  check ci "read survives" 0x1000 (Mmu.translate m Mmu.Read 0x4000);
  Mmu.set_writable m ~virt:0x4000 true;
  check ci "write again" 0x1000 (Mmu.translate m Mmu.Write 0x4000)

let test_tlb_enable_toggle_invalidates () =
  let m = Mmu.create () in
  Mmu.map m ~virt:0x5000 ~phys:0x2000 ~writable:true;
  check ci "mapped" 0x2000 (Mmu.translate m Mmu.Read 0x5000);
  Mmu.set_enabled m false;
  (* disabled: virtual = physical; a stale TLB entry would say 0x2000 *)
  check ci "identity" 0x5000 (Mmu.translate m Mmu.Read 0x5000);
  Mmu.set_enabled m true;
  check ci "mapped again" 0x2000 (Mmu.translate m Mmu.Read 0x5000)

let test_tlb_counters_and_off_mode () =
  let m = Mmu.create () in
  Mmu.map m ~virt:0x4000 ~phys:0x1000 ~writable:true;
  ignore (Mmu.translate m Mmu.Read 0x4000);
  ignore (Mmu.translate m Mmu.Read 0x4004);
  check cb "counted a hit" true (m.Mmu.tlb_hits >= 1);
  check cb "counted a miss" true (m.Mmu.tlb_misses >= 1);
  (* with fast paths off, translation still works and counters stop *)
  m.Mmu.fast_paths <- false;
  Mmu.flush_tlb m;
  let h = m.Mmu.tlb_hits and mi = m.Mmu.tlb_misses in
  check ci "slow path" 0x1008 (Mmu.translate m Mmu.Read 0x4008);
  check ci "hits frozen" h m.Mmu.tlb_hits;
  check ci "misses frozen" mi m.Mmu.tlb_misses

let test_translate_opt_no_exceptions () =
  let m = Mmu.create () in
  check cb "unmapped" true (Mmu.translate_opt m Mmu.Read 0x9000 = None);
  Mmu.map m ~virt:0x9000 ~phys:0x3000 ~writable:false;
  check cb "mapped" true (Mmu.translate_opt m Mmu.Read 0x9abc = Some 0x3abc);
  check cb "ro write" true (Mmu.translate_opt m Mmu.Write 0x9abc = None)

(* The RAM fast path must defer to protection: page-level and
   fine-grain SMC events fire identically with the fast path on. *)
let fg_events_with mode =
  let m = mk_mem () in
  Mem.set_fast_paths m mode;
  let events = ref [] in
  m.Mem.on_smc <-
    (fun hit ~paddr ~len:_ ->
      events := hit :: !events;
      match hit with
      | Mem.Fg_miss -> Finegrain.install m.Mem.fg ~ppn:(paddr lsr 12) ~mask:1L
      | Mem.Fg_chunk | Mem.Page_level -> Mem.unprotect_page m ~ppn:(paddr lsr 12));
  Mem.protect_page m ~ppn:3;
  Mem.set_fg_mode m ~ppn:3 true;
  Mem.write m ~size:4 0x3100 7;
  Mem.write m ~size:4 0x3104 8;
  Mem.write m ~size:4 0x3004 9;
  List.rev !events

let test_fast_path_keeps_fg_events () =
  let fast = fg_events_with true and slow = fg_events_with false in
  check cb "Fg_miss then Fg_chunk" true (fast = [ Mem.Fg_miss; Mem.Fg_chunk ]);
  check cb "same either mode" true (fast = slow)

(* MMIO never takes the RAM fast path: device read/write counters must
   advance identically in both modes (the framebuffer at 0xa0000). *)
let test_fast_path_mmio_exact () =
  let counts mode =
    let plat = Platform.create ~ram_size:(2 * 1024 * 1024) () in
    let m = plat.Platform.mem in
    Mem.set_fast_paths m mode;
    Mmu.map_identity m.Mem.mmu ~virt:0 ~pages:512 ~writable:true;
    Mem.write m ~size:1 0xa0000 0x12;
    ignore (Mem.read m ~size:1 0xa0000);
    Mem.write m ~size:4 0x8000 1;
    ignore (Mem.read m ~size:4 0x8000);
    (m.Mem.bus.Bus.mmio_reads, m.Mem.bus.Bus.mmio_writes)
  in
  check cb "mmio counted both modes" true (counts true = counts false);
  check cb "exactly one read+write" true (counts true = (1, 1))

let hotpath_tests =
  [
    Alcotest.test_case "tlb: remap invalidates" `Quick
      test_tlb_remap_invalidates;
    Alcotest.test_case "tlb: unmap invalidates" `Quick
      test_tlb_unmap_invalidates;
    Alcotest.test_case "tlb: set_writable invalidates" `Quick
      test_tlb_set_writable_invalidates;
    Alcotest.test_case "tlb: enable toggle invalidates" `Quick
      test_tlb_enable_toggle_invalidates;
    Alcotest.test_case "tlb: counters + off mode" `Quick
      test_tlb_counters_and_off_mode;
    Alcotest.test_case "translate_opt: no exceptions" `Quick
      test_translate_opt_no_exceptions;
    Alcotest.test_case "fast path keeps fg events" `Quick
      test_fast_path_keeps_fg_events;
    Alcotest.test_case "fast path keeps mmio exact" `Quick
      test_fast_path_mmio_exact;
  ]

let suites =
  [
    ("machine.mmu", mmu_tests);
    ("machine.finegrain", fg_tests);
    ("machine.mem", mem_tests);
    ("machine.devices", device_tests);
    ("machine.hotpath", hotpath_tests);
  ]
