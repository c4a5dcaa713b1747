(** Standard platform wiring: a PC-flavoured machine for the workloads.

    Port map (all well-known PC-ish addresses):
    - 0x3f8..0x3ff  UART (data/status)
    - 0x0040..0x0042 interval timer (period lo/hi, fired count)
    - 0x0021        PIC mask register
    - 0x01f0..0x01f3 DMA disk (sector, dest, count, start/status)
    - 0x03c0        frame counter ("vsync") port

    MMIO map:
    - 0xA0000..0xAFFFF frame buffer (the VGA hole — shadows RAM)
    - 0xB0000..0xB00FF NIC register window (RX/TX descriptor rings) *)

let uart_base = 0x3f8
let timer_base = 0x40
let pic_mask_port = 0x21
let disk_base = 0x1f0
let frame_port = 0x3c0
let fb_base = 0xa0000
let fb_size = 0x10000
let nic_base = 0xb0000
let nic_size = 0x100
let timer_irq_line = 0
let disk_irq_line = 5
let nic_irq_line = 9

(** Free imm8-addressable port reserved for test/fuzz harnesses.  An
    [out] to it is an interpreter-only instruction, so it marks an exact
    architectural point in every execution configuration — harnesses
    attach a handler here to trigger synchronous injected events (DMA
    writes, protection flips). *)
let fuzz_port = 0xf1

type t = {
  mem : Mem.t;
  irq : Irq.t;
  uart : Uart.t;
  timer : Timer.t;
  fb : Framebuf.t;
  disk : Disk.t;
  nic : Nic.t;
}

let create ?(ram_size = 16 * 1024 * 1024)
    ?(disk_image = Bytes.make (256 * 1024) '\x00') ?(disk_latency = 20_000)
    ?(nic_latency = 400) () =
  let mem = Mem.create ~ram_size () in
  let irq = Irq.create () in
  let uart = Uart.create () in
  let timer = Timer.create irq ~line:timer_irq_line in
  let fb = Framebuf.create ~base:fb_base ~size:fb_size in
  let disk =
    Disk.create ~image:disk_image ~irq ~line:disk_irq_line
      ~latency:disk_latency
  in
  let nic = Nic.create ~irq ~line:nic_irq_line ~latency:nic_latency () in
  Uart.attach uart mem.Mem.bus ~base:uart_base;
  Timer.attach timer mem.Mem.bus ~base:timer_base;
  Framebuf.attach fb mem.Mem.bus ~frame_port;
  Disk.attach disk mem.Mem.bus ~base:disk_base;
  Disk.set_dma_write disk (Mem.dma_write mem);
  Nic.attach nic mem.Mem.bus ~base:nic_base ~size:nic_size;
  Nic.set_dma nic ~write:(Mem.dma_write mem)
    ~read32:(fun a -> Phys.read32 mem.Mem.bus.Bus.phys a)
    ~read8:(fun a -> Phys.read8 mem.Mem.bus.Bus.phys a);
  Bus.add_port mem.Mem.bus pic_mask_port
    {
      Bus.pread = (fun _ -> irq.Irq.mask);
      pwrite = (fun _ v -> Irq.set_mask irq v);
    };
  { mem; irq; uart; timer; fb; disk; nic }

(** Identity-map the first [mib] MiB as writable guest memory, plus the
    frame-buffer window.  Most workloads start from this then adjust. *)
let map_low_memory t ~mib =
  Mmu.map_identity t.mem.Mem.mmu ~virt:0 ~pages:(mib * 256) ~writable:true
