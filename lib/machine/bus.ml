(** Physical address-space and I/O-port dispatch.

    The bus routes physical accesses either to RAM or to a device MMIO
    window (device windows shadow RAM, like the VGA hole on a PC).
    Port-mapped I/O has its own 16-bit space.  Devices that need to make
    progress in "time" register a ticker that is advanced by executed
    molecules — the simulator's clock, consistent with the paper's
    molecule-count measurement basis. *)

type mmio_handler = {
  lo : int;
  hi : int;  (** exclusive *)
  mread : int -> int -> int;  (** paddr -> size_bytes -> value *)
  mwrite : int -> int -> int -> unit;  (** paddr -> size_bytes -> value *)
}

type port_handler = {
  pread : int -> int;  (** port -> value *)
  pwrite : int -> int -> unit;  (** port -> value *)
}

type t = {
  phys : Phys.t;
  mutable mmio : mmio_handler list;
  ports : (int, port_handler) Hashtbl.t;
  mutable tickers : (int -> unit) list;
  mutable mmio_reads : int;
  mutable mmio_writes : int;
  mutable port_ops : int;
  mutable generation : int;
      (** bumped whenever the MMIO topology changes; {!Mem} watches it
          to keep its RAM-fast-path page table coherent *)
}

let create phys =
  {
    phys;
    mmio = [];
    ports = Hashtbl.create 16;
    tickers = [];
    mmio_reads = 0;
    mmio_writes = 0;
    port_ops = 0;
    generation = 0;
  }

let add_mmio t h =
  t.mmio <- h :: t.mmio;
  t.generation <- t.generation + 1

let add_port t port h = Hashtbl.replace t.ports port h

let add_ticker t f = t.tickers <- f :: t.tickers

(* Direct list walks: both run on every bus access, and a
   [List.find_opt] predicate would be a fresh closure each time. *)
let rec find_in paddr = function
  | [] -> None
  | h :: rest -> if paddr >= h.lo && paddr < h.hi then Some h else find_in paddr rest

let rec mmio_in paddr = function
  | [] -> false
  | h :: rest -> (paddr >= h.lo && paddr < h.hi) || mmio_in paddr rest

let find_mmio t paddr = find_in paddr t.mmio

(** Is this physical address in I/O space?  The hardware uses this to
    fault speculative (reordered) memory atoms, paper §3.4. *)
let is_mmio t paddr = mmio_in paddr t.mmio

let read t paddr size =
  match find_mmio t paddr with
  | Some h ->
      t.mmio_reads <- t.mmio_reads + 1;
      h.mread paddr size
  | None -> (
      match size with
      | 1 -> Phys.read8 t.phys paddr
      | 4 -> Phys.read32 t.phys paddr
      | _ -> invalid_arg "Bus.read size")

let write t paddr size v =
  match find_mmio t paddr with
  | Some h ->
      t.mmio_writes <- t.mmio_writes + 1;
      h.mwrite paddr size v
  | None -> (
      match size with
      | 1 -> Phys.write8 t.phys paddr v
      | 4 -> Phys.write32 t.phys paddr v
      | _ -> invalid_arg "Bus.write size")

let port_read t port =
  t.port_ops <- t.port_ops + 1;
  match Hashtbl.find_opt t.ports port with
  | Some h -> h.pread port
  | None -> 0xffffffff (* open bus *)

let port_write t port v =
  t.port_ops <- t.port_ops + 1;
  match Hashtbl.find_opt t.ports port with
  | Some h -> h.pwrite port v
  | None -> ()

let rec tick_all molecules = function
  | [] -> ()
  | f :: rest ->
      f molecules;
      tick_all molecules rest

(** Advance device time by [molecules] executed host molecules.  Runs
    on every dispatch, so it walks the list directly rather than
    building a [List.iter] closure. *)
let tick t molecules = tick_all molecules t.tickers
