(* Pinned encodings of every persisted record: a Config, a Policy, a
   Perf, an AOT header, a translation-store blob and each section of a
   snapshot, each built with field values chosen so that swapping two
   neighbouring fields of one type moves a byte (distinct integers,
   alternating booleans), plus the whole images of compress's warm AOT
   build and of a store warmed by one fleet machine.  A restored
   snapshot must also encode back to the image it came from, so a
   decoder that drops a value it read fails here even where the
   encoding itself did not move. *)

module P = Cms_persist
module Suite = Workloads.Suite
module Fleet = Cms_fleet.Fleet

let check = Alcotest.check
let md5 s = Digest.to_hex (Digest.string s)
let pin what expect s = check Alcotest.string what expect (md5 s)

(* Every integer differs from the default and from its neighbours, and
   the booleans alternate. *)
let cfg =
  {
    Cms.Config.enable_reorder = true;
    enable_alias_hw = false;
    enable_fine_grain = true;
    enable_chaining = false;
    enable_self_reval = true;
    enable_self_check = false;
    enable_stylized = true;
    enable_groups = false;
    force_self_check = true;
    translate_threshold = 31;
    max_region_insns = 47;
    unroll_limit = 3;
    alias_slots = 6;
    sbuf_capacity = 40;
    tcache_capacity = 900;
    adapt_capacity = 500;
    lookup_cost = 19;
    host_fast_paths = false;
  }

let policy =
  {
    Cms.Policy.no_reorder = true;
    no_alias = false;
    max_insns = 37;
    unroll = 5;
    self_check = true;
    self_reval = false;
    interp_only = true;
    interp_insns = Cms.Policy.ISet.of_list [ 0x1009; 0x1003 ];
    stylized_imms = Cms.Policy.ISet.of_list [ 0x2011 ];
  }

(* The policy's encoding, by its digest in a store key. *)
let test_policy () =
  let key = P.Tstore.key ~entry:0 ~bytes:Bytes.empty ~policy in
  check Alcotest.string "policy" "b22186ed70508804613e8fcd591c167d"
    (List.nth (String.split_on_char ':' key) 2)

(* ------------------------------------------------------------------ *)
(* Snapshot sections                                                   *)
(* ------------------------------------------------------------------ *)

(* A fresh machine under [cfg] with every persisted field set by hand. *)
let machine () =
  let disk_image = Bytes.init 3000 (fun i -> Char.chr (i * 7 land 0xff)) in
  let c = Cms.create ~cfg ~ram_size:(64 * 4096) ~disk_image () in
  let plat = Cms.platform c in
  let mem = Cms.mem c in
  let cpu = Cms.cpu c in
  let regs = Cms.Cpu.regs cpu in
  Array.iteri
    (fun i _ ->
      regs.Vliw.Regfile.working.(i) <- 1000 + i;
      regs.Vliw.Regfile.shadow.(i) <- 1000 + i)
    regs.Vliw.Regfile.working;
  regs.Vliw.Regfile.commits <- 21;
  regs.Vliw.Regfile.rollbacks <- 22;
  cpu.Cms.Cpu.halted <- true;
  cpu.Cms.Cpu.iflag <- false;
  cpu.Cms.Cpu.idt_base <- 0x7c00;
  let mmu = mem.Machine.Mem.mmu in
  Machine.Mmu.map mmu ~virt:0x1000 ~phys:0x5000 ~writable:true;
  Machine.Mmu.map mmu ~virt:0x2000 ~phys:0x9000 ~writable:false;
  Machine.Mmu.map mmu ~virt:0x3000 ~phys:0xd000 ~writable:true;
  Machine.Mmu.unmap mmu ~virt:0x3000;
  mmu.Machine.Mmu.enabled <- false;
  Machine.Phys.blit_string mem.Machine.Mem.phys ~addr:0x5010 "ram bytes";
  Machine.Phys.blit_string mem.Machine.Mem.phys ~addr:0x9ff0 "more ram";
  mem.Machine.Mem.page_prot_faults <- 25;
  mem.Machine.Mem.smc_events <- 26;
  mem.Machine.Mem.dma_smc_events <- 27;
  let t = plat.Machine.Platform.timer in
  t.Machine.Timer.period <- 31;
  t.Machine.Timer.count <- 32;
  t.Machine.Timer.fired <- 33;
  let irq = plat.Machine.Platform.irq in
  irq.Machine.Irq.pending <- 0x12;
  irq.Machine.Irq.mask <- 0x34;
  irq.Machine.Irq.raised_total <- 35;
  irq.Machine.Irq.delivered_total <- 36;
  irq.Machine.Irq.deferred_total <- 37;
  let u = plat.Machine.Platform.uart in
  Buffer.add_string u.Machine.Uart.out_buf "uart out";
  Machine.Uart.feed_input u [ 1; 2; 3 ];
  u.Machine.Uart.data_reads <- 38;
  u.Machine.Uart.data_writes <- 39;
  let d = plat.Machine.Platform.disk in
  d.Machine.Disk.sector <- 41;
  d.Machine.Disk.dest <- 42;
  d.Machine.Disk.count <- 43;
  d.Machine.Disk.busy <- 44;
  d.Machine.Disk.transfers <- 45;
  let n = plat.Machine.Platform.nic in
  n.Machine.Nic.ctrl <- 5;
  n.Machine.Nic.rx_base <- 0x6100;
  n.Machine.Nic.rx_count <- 6;
  n.Machine.Nic.rx_head <- 1;
  n.Machine.Nic.tx_base <- 0x7100;
  n.Machine.Nic.tx_count <- 7;
  n.Machine.Nic.tx_head <- 2;
  n.Machine.Nic.tx_pending <- true;
  n.Machine.Nic.mitigation <- 46;
  n.Machine.Nic.isr <- 3;
  n.Machine.Nic.busy <- 47;
  n.Machine.Nic.coalesce_acc <- 48;
  Machine.Nic.queue_frame n "first";
  Machine.Nic.queue_frame n "second";
  n.Machine.Nic.rx_frames <- 49;
  n.Machine.Nic.tx_frames <- 50;
  n.Machine.Nic.rx_dropped <- 51;
  n.Machine.Nic.irqs_raised <- 52;
  n.Machine.Nic.irqs_coalesced <- 53;
  let fb = plat.Machine.Platform.fb in
  Bytes.blit_string "pixels" 0 fb.Machine.Framebuf.mem 0x123 6;
  fb.Machine.Framebuf.writes <- 54;
  fb.Machine.Framebuf.reads <- 55;
  fb.Machine.Framebuf.frames <- 56;
  let bus = mem.Machine.Mem.bus in
  bus.Machine.Bus.mmio_reads <- 57;
  bus.Machine.Bus.mmio_writes <- 58;
  bus.Machine.Bus.port_ops <- 59;
  let stats = Cms.stats c in
  List.iteri
    (fun i k -> k.Cms.Stats.set stats (100 + i))
    Cms.Stats.counters;
  let p = Cms.perf c in
  p.Vliw.Perf.molecules <- 60;
  p.Vliw.Perf.atoms <- 61;
  p.Vliw.Perf.nops <- 62;
  p.Vliw.Perf.loads <- 63;
  p.Vliw.Perf.stores <- 64;
  p.Vliw.Perf.commits <- 65;
  p.Vliw.Perf.x86_committed <- 66;
  p.Vliw.Perf.rollbacks <- 67;
  p.Vliw.Perf.exits_taken <- 68;
  p.Vliw.Perf.x86_fault_atoms <- 69;
  p.Vliw.Perf.alias_faults <- 70;
  p.Vliw.Perf.mmio_spec_faults <- 71;
  p.Vliw.Perf.smc_faults <- 72;
  p.Vliw.Perf.sbuf_overflows <- 73;
  p.Vliw.Perf.interrupts_taken <- 74;
  let a = c.Cms.Engine.adapt in
  a.Cms.Adapt.clock <- 75;
  Hashtbl.replace a.Cms.Adapt.tbl 0x4000
    { Cms.Adapt.pol = policy; touch = 77; escalations = 78; failures = 79 };
  Hashtbl.replace a.Cms.Adapt.tbl 0x3000
    {
      Cms.Adapt.pol = Cms.Policy.default cfg;
      touch = 80;
      escalations = 81;
      failures = 82;
    };
  c

let injector =
  { P.Journal.irq_next = 86; sync_taken = 87; n_irq = 0; n_sync = 0 }

let sections img =
  P.Codec.read_container ~kind:P.Snapshot.kind ~version:P.Snapshot.version img

let section_pins =
  [
    ("META", "63c87af90ff93217f87d28232fd4e129");
    ("CONF", "1a54d722b33af44b63efaa37f30f96f7");
    ("CPUS", "6cbdfc6e71e3f9ca2c546abf4185e7d7");
    ("MMUS", "467efb98cc8bcbe43fc60172cc2bf74a");
    ("PMEM", "1b069f6ccaa93f96a10729b50806b240");
    ("TIMR", "8a23fa560916b3dd3229b9415f95eeda");
    ("IRQC", "48a13dbeeaa9cb136170b4c7b9b998a6");
    ("UART", "8f13967ff7e7f3b36e010a6de55927c2");
    ("DISK", "4a92028f911d50a67873763906686d0e");
    ("NICC", "3a47b7e56c54e3f274833488e705da3d");
    ("FBUF", "d0a6f6cf0d9dc19efbeff36cb9b513c6");
    ("BUSC", "3db20f3086cb16544a19d59d73d5a49e");
    ("STAT", "574fe2b8a821eed0be3fdd4c0e850e3d");
    ("PERF", "7c5814adaad117bd70447cfd631f720b");
    ("ADPT", "6efad234668e75684bc0eedc9d4e7b7d");
  ]

let test_snapshot_sections () =
  let img = P.Snapshot.capture ~label:"pins" ~injector (machine ()) in
  let secs = sections img in
  check
    Alcotest.(list string)
    "section order" (List.map fst section_pins) (List.map fst secs);
  List.iter (fun (tag, expect) -> pin tag expect (List.assoc tag secs))
    section_pins

(* Restore, then capture again: the same sections, but for the resume
   the restore counts in STAT. *)
let test_snapshot_roundtrip () =
  let img = P.Snapshot.capture ~label:"pins" ~injector (machine ()) in
  let c, meta = P.Snapshot.restore img in
  check Alcotest.string "label" "pins" meta.P.Snapshot.label;
  check Alcotest.int "irq cursor" 86 meta.P.Snapshot.irq_cursor;
  check Alcotest.int "sync cursor" 87 meta.P.Snapshot.sync_cursor;
  let stats = Cms.stats c in
  stats.Cms.Stats.resumes <- stats.Cms.Stats.resumes - 1;
  check Alcotest.string "image after restore" (md5 img)
    (md5 (P.Snapshot.capture ~label:"pins" ~injector c))

(* ------------------------------------------------------------------ *)
(* AOT header and store blobs                                          *)
(* ------------------------------------------------------------------ *)

let meta =
  {
    P.Aot.label = "pinned";
    entry = 0x1000;
    leaders = 12;
    insn_count = 340;
    bytes_static = 5600;
    bytes_deferred = 78;
    deferred = [ (0x1200, "indirect"); (0x1300, "self-modifying") ];
    demoted_verify = 9;
    demoted_select = 10;
    blind_stores = 11;
    truncated = true;
  }

let test_aot_meta () =
  let img =
    P.Aot.to_string
      { P.Aot.meta; cfg; pages = []; store = P.Tstore.create () }
  in
  let secs = P.Codec.read_container ~kind:P.Aot.kind ~version:P.Aot.version img in
  pin "META" "7dc98b6c432ee9f5306ed785488dfc92" (P.Codec.section secs "META");
  pin "CONF" "1a54d722b33af44b63efaa37f30f96f7" (P.Codec.section secs "CONF")

(* A store warmed by the first machine of the fleet's seed-1 traffic. *)
let fleet_store () =
  let spec = List.hd (Fleet.traffic_specs ~seed:1 ~machines:1) in
  let store = P.Tstore.create () in
  ignore (Fleet.run_machine ~store Fleet.campaign_config spec : Fleet.report);
  store

let test_store_image () =
  let store = fleet_store () in
  pin "fleet store image" "9359707cb211006d835f5d1dc17af77b" (P.Tstore.to_string store);
  (* a compiled translation with every other field set by hand *)
  let k, e = List.hd (P.Tstore.bindings store) in
  let t = P.Tstore.decode ~entry:(P.Tstore.key_entry k) e in
  let t =
    {
      t with
      P.Tstore.tentry = 0x1234;
      policy;
      cont = Some 0x4321;
      src_ranges = [ (0x1234, 0x1240); (0x2000, 0x2003) ];
      insns =
        [
          {
            P.Tstore.addr = 0x1234;
            len = 3;
            follow = Cms.Region.FTarget;
            loops = true;
            imm32_addr = Some 0x1235;
          };
          {
            P.Tstore.addr = 0x1237;
            len = 5;
            follow = Cms.Region.FNext;
            loops = false;
            imm32_addr = None;
          };
          {
            P.Tstore.addr = 0x2000;
            len = 2;
            follow = Cms.Region.FEnd;
            loops = true;
            imm32_addr = Some 0x2001;
          };
        ];
      snapshot = Bytes.of_string "source bytes, fifteen";
      unprotected = true;
    }
  in
  pin "tran blob" "600e055b6d363152b971e30e25227903" (P.Tstore.blob t)

let test_aot_image () =
  let w = Option.get (Workloads.Catalog.find "026.compress (Linux)") in
  let img =
    Cms_analysis.Aotgen.warm_image (P.Trial.of_suite w) ~cfg:Cms.Config.default
      ~label:w.Suite.name ~entry:w.Suite.entry
  in
  pin "compress warm AOT image" "cc2a78c27a307d7cf7c57086b72a27a6" (P.Aot.to_string img)

let suites =
  [
    ( "persist formats pinned",
      [
        Alcotest.test_case "policy" `Quick test_policy;
        Alcotest.test_case "snapshot sections" `Quick test_snapshot_sections;
        Alcotest.test_case "snapshot restore round trip" `Quick
          test_snapshot_roundtrip;
        Alcotest.test_case "aot header" `Quick test_aot_meta;
        Alcotest.test_case "store image and blob" `Quick test_store_image;
        Alcotest.test_case "compress warm aot image" `Quick test_aot_image;
      ] );
  ]
