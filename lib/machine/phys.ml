(** Flat physical RAM.

    Little-endian byte-addressed storage.  All multi-byte accessors mask
    their results/arguments to the access width; addresses are plain ints
    (the machine is well under 2^62 bytes).

    RAM also records which {!Mmu.page_size} pages have ever been written.
    RAM is created zeroed and every store goes through {!write8},
    {!write32} or a [blit_*] here, so the invariant is: a page not
    {!written} is all zero.  Snapshot capture relies on it to skip
    untouched pages without reading them.  Writing a flag costs one byte
    store per guest write; clearing one is never needed. *)

type t = {
  data : Bytes.t;
  size : int;
  written : Bytes.t;  (** per-page: ['\001'] once any byte was stored *)
}

let create size =
  {
    data = Bytes.make size '\x00';
    size;
    written =
      Bytes.make ((size + Mmu.page_size - 1) lsr Mmu.page_shift) '\x00';
  }

let in_range t addr len = addr >= 0 && addr + len <= t.size

(** Has any byte of page [ppn] ever been stored?  [false] means the page
    is all zero. *)
let written t ppn = Bytes.get t.written ppn <> '\x00'

let mark t addr = Bytes.unsafe_set t.written (addr lsr Mmu.page_shift) '\001'

let mark_range t addr len =
  if len > 0 then
    for ppn = addr lsr Mmu.page_shift to (addr + len - 1) lsr Mmu.page_shift do
      Bytes.unsafe_set t.written ppn '\001'
    done

let read8 t addr = Char.code (Bytes.unsafe_get t.data addr)

let write8 t addr v =
  Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xff));
  mark t addr

let read32 t addr =
  if addr + 4 <= t.size then
    (* fast path *)
    Int32.to_int (Bytes.get_int32_le t.data addr) land 0xffffffff
  else invalid_arg "Phys.read32: out of range"

let write32 t addr v =
  if addr + 4 <= t.size then begin
    Bytes.set_int32_le t.data addr (Int32.of_int v);
    (* an unaligned word may straddle two pages *)
    mark t addr;
    mark t (addr + 3)
  end
  else invalid_arg "Phys.write32: out of range"

(** Copy a byte string into RAM (used to load program images). *)
let blit_string t ~addr s =
  Bytes.blit_string s 0 t.data addr (String.length s);
  mark_range t addr (String.length s)

let blit_bytes t ~addr b =
  Bytes.blit b 0 t.data addr (Bytes.length b);
  mark_range t addr (Bytes.length b)

(** Read [len] raw bytes (used for translation-time source snapshots). *)
let read_bytes t ~addr ~len = Bytes.sub t.data addr len
