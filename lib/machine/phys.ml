(** Flat physical RAM.

    Little-endian byte-addressed storage.  All multi-byte accessors mask
    their results/arguments to the access width; addresses are plain ints
    (the machine is well under 2^62 bytes).

    RAM also records which {!Mmu.page_size} pages have ever been written.
    RAM is created zeroed and every store goes through {!write8},
    {!write32} or a [blit_*] here, so the invariant is: a page not
    {!written} is all zero.  Snapshot capture relies on it to skip
    untouched pages without reading them, and {!release} relies on it to
    hand a finished machine's RAM to the next one after zeroing only the
    flagged pages.  Writing a flag costs one byte store per guest write;
    only {!release} ever clears one. *)

type t = {
  data : Bytes.t;
  size : int;
  written : Bytes.t;  (** per-page: ['\001'] once any byte was stored *)
}

(* Released RAM, ready for the next {!create} of its size: every block
   here is all zero with no page flagged.  Process-wide, so a fleet
   shard's next machine (or its restore) takes the block the previous
   one left, and bounded, so a process that stops releasing holds at
   most [pool_cap] blocks. *)
let pool : t list Atomic.t = Atomic.make []
let pool_cap = Domain.recommended_domain_count ()

let rec take size =
  let l = Atomic.get pool in
  match List.find_opt (fun t -> t.size = size) l with
  | None -> None
  | Some t ->
      if Atomic.compare_and_set pool l (List.filter (( != ) t) l) then Some t
      else take size

let create size =
  match take size with
  | Some t -> t
  | None ->
      {
        data = Bytes.make size '\x00';
        size;
        written =
          Bytes.make ((size + Mmu.page_size - 1) lsr Mmu.page_shift) '\x00';
      }

(** Give [t] back for reuse by a later {!create} of the same size.
    Zeroes the flagged pages and clears their flags: an unflagged page
    is already zero, so the work is one flag test per page plus a fill
    per written page, not a fresh [size] bytes.  Then pools the block
    unless the pool is full.  The caller hands over ownership: nothing
    may read or write [t] afterwards, since the next machine's RAM may
    be this very block. *)
let release t =
  for ppn = 0 to Bytes.length t.written - 1 do
    if Bytes.unsafe_get t.written ppn <> '\x00' then begin
      let lo = ppn lsl Mmu.page_shift in
      Bytes.fill t.data lo (min Mmu.page_size (t.size - lo)) '\x00';
      Bytes.unsafe_set t.written ppn '\x00'
    end
  done;
  let rec push () =
    let l = Atomic.get pool in
    if List.length l < pool_cap then
      if not (Atomic.compare_and_set pool l (t :: l)) then push ()
  in
  push ()

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
