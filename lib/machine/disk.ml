(** DMA block device.

    A workload programs source sector, destination physical address and
    sector count through ports, then starts the transfer.  After a fixed
    latency (in molecules) the device copies data into RAM *behind the
    CPU's back* and latches its IRQ line.  DMA writes bypass the MMU but
    not CMS's translated-page protection: the injected [dma_write]
    callback routes every stored byte through the memory system so that
    DMA into a protected page invalidates the page's translations
    (paper §3.6.1: "DMA writes to a protected page invalidate all
    translations for the page"). *)

let sector_size = 512

type t = {
  mutable image : Bytes.t;  (** set at creation, or by a snapshot restore *)
  irq : Irq.t;
  line : int;
  mutable latency : int;  (** molecules from start to completion *)
  mutable sector : int;
  mutable dest : int;
  mutable count : int;  (** sectors *)
  mutable busy : int;  (** molecules remaining; 0 = idle *)
  mutable transfers : int;
  mutable dma_write : int -> Bytes.t -> unit;  (** paddr -> data *)
  mutable image_chunks : int list option;
      (** snapshot cache: offsets of the image's non-zero chunks, found
          by the first capture.  The device never writes its image, so
          the list stays valid until a restore replaces the image and
          drops it. *)
}

let create ~image ~irq ~line ~latency =
  {
    image;
    irq;
    line;
    latency;
    sector = 0;
    dest = 0;
    count = 0;
    busy = 0;
    transfers = 0;
    dma_write = (fun _ _ -> invalid_arg "Disk: dma_write not wired");
    image_chunks = None;
  }

let set_dma_write t f = t.dma_write <- f

let start t =
  if t.busy = 0 && t.count > 0 then t.busy <- t.latency

let complete t =
  let len = t.count * sector_size in
  let off = t.sector * sector_size in
  let len = min len (Bytes.length t.image - off) in
  if len > 0 then t.dma_write t.dest (Bytes.sub t.image off len);
  t.transfers <- t.transfers + 1;
  Irq.raise_line t.irq t.line

let tick t molecules =
  if t.busy > 0 then begin
    t.busy <- t.busy - molecules;
    if t.busy <= 0 then begin
      t.busy <- 0;
      complete t
    end
  end

(* Ports: +0 sector, +1 dest paddr, +2 count, +3 start/status
   (write = start, read = busy flag). *)
let attach t bus ~base =
  let h =
    {
      Bus.pread =
        (fun port ->
          if port = base + 3 then if t.busy > 0 then 1 else 0 else 0);
      pwrite =
        (fun port v ->
          match port - base with
          | 0 -> t.sector <- v
          | 1 -> t.dest <- v
          | 2 -> t.count <- v
          | 3 -> start t
          | _ -> ());
    }
  in
  for o = 0 to 3 do
    Bus.add_port bus (base + o) h
  done;
  Bus.add_ticker bus (tick t)
