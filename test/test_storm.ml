(* Interrupt-storm robustness: NIC device-model units (descriptor
   protocol, ring wrap, bounded-backlog backpressure, interrupt
   mitigation, snapshot round trip), determinism of the RX-server
   kernel under injected packet events, and a short seeded slice of
   the full storm campaign (packet storms with channel faults, IRQ
   floods, DMA bursts over translated code; speculation probe armed;
   record-replay through the serialized journal). *)

module Bus = Machine.Bus
module Nic = Machine.Nic
module Platform = Machine.Platform
module Journal = Cms_persist.Journal
module Snapshot = Cms_persist.Snapshot
module Storm = Cms_robust.Storm
module Progs_kernel = Workloads.Progs_kernel
module Suite = Workloads.Suite

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* A platform gives the NIC its wired DMA callbacks and MMIO window;
   registers are driven through the bus like guest MMIO would. *)
let mk () =
  let p = Platform.create () in
  let bus = p.Platform.mem.Machine.Mem.bus in
  (p.Platform.nic, bus)

let reg bus off = Bus.read bus (Platform.nic_base + off) 4
let regw bus off v = Bus.write bus (Platform.nic_base + off) 4 v

(* Arm an [n]-slot RX ring at [ring], buffers at [bufs], each [cap]
   bytes. *)
let arm_ring bus ~ring ~bufs ~n ~cap =
  for i = 0 to n - 1 do
    Bus.write bus (ring + (8 * i)) 4 (bufs + (cap * i));
    Bus.write bus (ring + (8 * i) + 4) 4 cap
  done;
  regw bus Nic.r_rx_base ring;
  regw bus Nic.r_rx_count n;
  regw bus Nic.r_ctrl 1

let test_ring_wrap () =
  let nic, bus = mk () in
  arm_ring bus ~ring:0x6100 ~bufs:0x6400 ~n:3 ~cap:64;
  check cb "armed ring accepts" true (Nic.can_accept nic);
  check cb "inject 1" true (Nic.rx_inject nic "aa");
  check cb "inject 2" true (Nic.rx_inject nic "bbbb");
  check cb "inject 3" true (Nic.rx_inject nic (String.make 100 'c'));
  (* head wrapped to slot 0, which is still done: ring full *)
  check cb "full ring rejects" false (Nic.can_accept nic);
  check cb "inject 4 drops" false (Nic.rx_inject nic "dd");
  check ci "drop counted" 1 (reg bus Nic.r_rx_dropped);
  check ci "frames delivered" 3 (reg bus Nic.r_rx_frames);
  (* descriptor protocol: status = done | length, truncated to cap *)
  check ci "slot0 status" (Nic.rx_done lor 2) (Bus.read bus 0x6104 4);
  check ci "slot1 status" (Nic.rx_done lor 4) (Bus.read bus 0x610c 4);
  check ci "slot2 truncated" (Nic.rx_done lor 64) (Bus.read bus 0x6114 4);
  check ci "slot1 payload" (Char.code 'b') (Bus.read bus (0x6400 + 64) 1);
  (* re-arm slot 0: the wrapped head accepts again *)
  Bus.write bus 0x6104 4 64;
  check cb "re-armed accepts" true (Nic.can_accept nic);
  check cb "inject after wrap" true (Nic.rx_inject nic "ee")

let test_backlog_backpressure () =
  let nic, bus = mk () in
  arm_ring bus ~ring:0x6100 ~bufs:0x6400 ~n:2 ~cap:64;
  (* overfill the bounded backlog: capacity 32, the rest are counted
     drops at enqueue — never unbounded growth *)
  for i = 0 to 39 do
    Nic.queue_frame nic (Fmt.str "frame-%d" i)
  done;
  check ci "backlog capped" 32 (reg bus Nic.r_backlog);
  check ci "enqueue drops" 8 (reg bus Nic.r_rx_dropped);
  check ci "status: backlog pending" 1 (reg bus Nic.r_status);
  (* the first tick starts a work unit: busy bit joins the status *)
  Bus.tick bus 1;
  check ci "status: backlog + busy" 3 (reg bus Nic.r_status);
  (* drain: one work unit per latency period; 2 frames land in the
     ring, the remaining 30 hit a full ring and are counted drops *)
  let guard = ref 0 in
  while Nic.active nic && !guard < 200 do
    Bus.tick bus 400;
    incr guard
  done;
  check cb "backlog quiesced" false (Nic.active nic);
  check ci "ring frames" 2 (reg bus Nic.r_rx_frames);
  check ci "drain drops" (8 + 30) (reg bus Nic.r_rx_dropped)

let test_mitigation () =
  let nic, bus = mk () in
  arm_ring bus ~ring:0x6100 ~bufs:0x6400 ~n:8 ~cap:64;
  regw bus Nic.r_mitigation 4;
  for _ = 1 to 8 do
    ignore (Nic.rx_inject nic "x" : bool)
  done;
  check ci "raised once per 4 frames" 2 nic.Nic.irqs_raised;
  check ci "coalesced" 6 nic.Nic.irqs_coalesced;
  (* ISR is read-to-clear *)
  check ci "isr rx" Nic.isr_rx (reg bus Nic.r_isr);
  check ci "isr cleared" 0 (reg bus Nic.r_isr)

(* A whole machine whose NIC has an armed ring, a mitigation setting
   and a queued backlog: capture, restore, capture again.  The images
   are equal but for the resume the restore counts, and the restored
   NIC reports its backlog and accepts a frame. *)
let test_snapshot_roundtrip () =
  let c = Cms.create () in
  let nic = (Cms.platform c).Platform.nic in
  let bus = (Cms.mem c).Machine.Mem.bus in
  arm_ring bus ~ring:0x6100 ~bufs:0x6400 ~n:3 ~cap:64;
  regw bus Nic.r_mitigation 2;
  ignore (Nic.rx_inject nic "hello" : bool);
  Nic.queue_frame nic "queued";
  let image = Snapshot.capture c in
  let c, _ = Snapshot.restore image in
  let stats = Cms.stats c in
  stats.Cms.Stats.resumes <- stats.Cms.Stats.resumes - 1;
  check cb "image after restore" true (Snapshot.capture c = image);
  let bus = (Cms.mem c).Machine.Mem.bus in
  check ci "mitigation restored" 2 (reg bus Nic.r_mitigation);
  check ci "backlog restored" 1 (reg bus Nic.r_backlog);
  check cb "accepts a frame" true
    (Nic.rx_inject (Cms.platform c).Platform.nic "again")

(* ------------------------------------------------------------------ *)
(* RX-server kernel determinism                                        *)
(* ------------------------------------------------------------------ *)

(* Fixed frames (including an oversize one that the device truncates)
   at fixed retired-clock instants: interpreter-only and the full
   translator must agree on the checksum (EAX) and the syscall count
   (EBX), and both must match the generator's mirror. *)
let test_rx_kernel_determinism () =
  let frames = [ "a"; String.make 80 'z'; "hello storm"; "\x00\xff\x7f" ] in
  let w = Progs_kernel.kernel_rx frames in
  let ats = [ 5_000; 9_000; 40_000; 120_000 ] in
  let events =
    List.map2 (fun at data -> Journal.Pkt { at; data }) ats frames
  in
  let run cfg =
    let c = Suite.prepare ~cfg w in
    ignore (Journal.install_guest c events : Journal.injector);
    let c = Suite.run_prepared w c in
    (Cms.gpr c X86.Regs.eax, Cms.gpr c X86.Regs.ebx, Cms.stats c)
  in
  let eax_i, ebx_i, _ = run Cms.interp_only_cfg in
  let eax_t, ebx_t, s = run Cms.Config.default in
  let want_eax, want_ebx = Progs_kernel.rx_expected frames in
  check ci "interp eax" want_eax eax_i;
  check ci "translate eax" want_eax eax_t;
  check ci "interp ebx" want_ebx ebx_i;
  check ci "translate ebx" want_ebx ebx_t;
  check ci "all frames delivered" (List.length frames)
    s.Cms.Stats.nic_rx_frames;
  check ci "no gated drops" 0 s.Cms.Stats.nic_rx_dropped

(* ------------------------------------------------------------------ *)
(* Campaign slice                                                      *)
(* ------------------------------------------------------------------ *)

let test_campaign_slice () =
  let t = Storm.campaign ~seed:11 ~cases:6 () in
  List.iter
    (fun (i, e) -> Alcotest.failf "storm case %d: %s" i e)
    (List.rev t.Storm.failures);
  check ci "all passed" t.Storm.cases t.Storm.passed;
  check ci "no speculation violations" 0 t.Storm.spec_violations;
  check cb "packets injected" true (t.Storm.frames_injected > 0);
  check cb "irq floods injected" true (t.Storm.irqs_injected > 0);
  check cb "events fired" true (t.Storm.stats.Cms.Stats.journal_events > 0);
  check ci "no gated drops" 0 t.Storm.stats.Cms.Stats.nic_rx_dropped

let suites =
  [
    ( "storm.nic",
      [
        Alcotest.test_case "ring wrap and descriptor protocol" `Quick
          test_ring_wrap;
        Alcotest.test_case "bounded backlog backpressure" `Quick
          test_backlog_backpressure;
        Alcotest.test_case "interrupt mitigation" `Quick test_mitigation;
        Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
      ] );
    ( "storm.kernel",
      [
        Alcotest.test_case "rx kernel determinism" `Slow
          test_rx_kernel_determinism;
      ] );
    ( "storm.campaign",
      [ Alcotest.test_case "seeded slice" `Slow test_campaign_slice ] );
  ]
