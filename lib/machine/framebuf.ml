(** Memory-mapped frame buffer (the "VGA hole").

    Backed by private storage and exposed as an MMIO window, so every
    access goes over the device path: a *speculatively reordered* memory
    atom that touches it triggers the native MMIO-speculation exception
    (paper §3.4), while in-order accesses proceed.  A frame port lets
    workloads signal end-of-frame; the Quake-style experiment measures
    frames per million molecules from it. *)

type t = {
  base : int;
  size : int;
  mem : Bytes.t;
  mutable writes : int;
  mutable reads : int;
  mutable frames : int;
  mutable chunks : (int * int list) option;
      (** snapshot cache: offsets of [mem]'s non-zero chunks, found when
          [writes] was [fst].  Every store bumps [writes], so the list
          is current while the two agree; a snapshot restore drops it. *)
}

let create ~base ~size =
  {
    base;
    size;
    mem = Bytes.make size '\x00';
    writes = 0;
    reads = 0;
    frames = 0;
    chunks = None;
  }

let mmio_handler t =
  {
    Bus.lo = t.base;
    hi = t.base + t.size;
    mread =
      (fun paddr size ->
        t.reads <- t.reads + 1;
        let off = paddr - t.base in
        match size with
        | 1 -> Char.code (Bytes.get t.mem off)
        | 4 ->
            if off + 4 <= t.size then
              Int32.to_int (Bytes.get_int32_le t.mem off) land 0xffffffff
            else 0
        | _ -> 0);
    mwrite =
      (fun paddr size v ->
        t.writes <- t.writes + 1;
        let off = paddr - t.base in
        match size with
        | 1 -> Bytes.set t.mem off (Char.chr (v land 0xff))
        | 4 ->
            if off + 4 <= t.size then Bytes.set_int32_le t.mem off (Int32.of_int v)
        | _ -> ());
  }

(** Checksum of the frame-buffer contents, for workload validation. *)
let checksum t =
  let acc = ref 0 in
  Bytes.iter (fun c -> acc := ((!acc * 31) + Char.code c) land 0xffffffff) t.mem;
  !acc

let attach t bus ~frame_port =
  Bus.add_mmio bus (mmio_handler t);
  Bus.add_port bus frame_port
    {
      Bus.pread = (fun _ -> t.frames);
      pwrite = (fun _ _ -> t.frames <- t.frames + 1);
    }
