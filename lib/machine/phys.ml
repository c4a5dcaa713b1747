(** Flat physical RAM.

    Little-endian byte-addressed storage.  All multi-byte accessors mask
    their results/arguments to the access width; addresses are plain ints
    (the machine is well under 2^62 bytes).

    The bytes live outside the OCaml heap, in an anonymous mapping made
    by [phys_stubs.c]: demand-zero pages, so a page the guest never
    writes costs no resident memory, and the GC, which never scans
    guest RAM, does not count it as heap either.  The mapping is
    unmapped when its block is collected.  An access is one range check
    and one load or store into the flat mapping: there is no per-page
    test.  Every access here checks its range, since past the mapping
    nothing would.

    RAM also records which {!Mmu.page_size} pages have ever been written.
    RAM is created zeroed and every store goes through {!write8},
    {!write32} or a [blit_*] here, so the invariant is: a page not
    {!written} is all zero (and, unless a released block last used it,
    not even resident).  Snapshot capture relies on it to skip
    untouched pages without reading them, and {!release} relies on it to
    hand a finished machine's RAM to the next one after zeroing only the
    flagged pages.  Writing a flag costs one byte store per guest write;
    only {!release} ever clears one. *)

type ram = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  data : ram;
  size : int;
  written : Bytes.t;  (** per-page: ['\001'] once any byte was stored *)
}

external alloc : int -> ram = "cms_phys_alloc"
external md5 : ram -> string = "cms_phys_md5"

external blit_to_bytes : ram -> int -> Bytes.t -> int -> int -> unit
  = "cms_phys_blit_to_bytes"
[@@noalloc]

external blit_from_string : string -> int -> ram -> int -> int -> unit
  = "cms_phys_blit_from_string"
[@@noalloc]

external zero : ram -> int -> int -> unit = "cms_phys_zero" [@@noalloc]
external is_zero : ram -> int -> int -> bool = "cms_phys_is_zero" [@@noalloc]
external get32 : ram -> int -> int32 = "%caml_bigstring_get32u"
external set32 : ram -> int -> int32 -> unit = "%caml_bigstring_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"

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
        data = alloc size;
        size;
        written =
          Bytes.make ((size + Mmu.page_size - 1) lsr Mmu.page_shift) '\x00';
      }

let page_len t ppn = min Mmu.page_size (t.size - (ppn lsl Mmu.page_shift))

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
      zero t.data (ppn lsl Mmu.page_shift) (page_len t ppn);
      Bytes.unsafe_set t.written ppn '\x00'
    end
  done;
  let rec push () =
    let l = Atomic.get pool in
    if List.length l < pool_cap then
      if not (Atomic.compare_and_set pool l (t :: l)) then push ()
  in
  push ()

let check t name addr len =
  if addr < 0 || len < 0 || addr + len > t.size then
    invalid_arg ("Phys." ^ name ^ ": out of range")

(** Has any byte of page [ppn] ever been stored?  [false] means the page
    is all zero. *)
let written t ppn = Bytes.get t.written ppn <> '\x00'

let mark t addr = Bytes.unsafe_set t.written (addr lsr Mmu.page_shift) '\001'

let mark_range t addr len =
  if len > 0 then
    for ppn = addr lsr Mmu.page_shift to (addr + len - 1) lsr Mmu.page_shift do
      Bytes.unsafe_set t.written ppn '\001'
    done

let read8 t addr =
  if addr >= 0 && addr < t.size then
    Char.code (Bigarray.Array1.unsafe_get t.data addr)
  else invalid_arg "Phys.read8: out of range"

let write8 t addr v =
  if addr >= 0 && addr < t.size then begin
    Bigarray.Array1.unsafe_set t.data addr (Char.unsafe_chr (v land 0xff));
    mark t addr
  end
  else invalid_arg "Phys.write8: out of range"

let read32 t addr =
  if addr >= 0 && addr + 4 <= t.size then
    let v = get32 t.data addr in
    Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xffffffff
  else invalid_arg "Phys.read32: out of range"

let write32 t addr v =
  if addr >= 0 && addr + 4 <= t.size then begin
    let v = Int32.of_int v in
    set32 t.data addr (if Sys.big_endian then swap32 v else v);
    (* an unaligned word may straddle two pages *)
    mark t addr;
    mark t (addr + 3)
  end
  else invalid_arg "Phys.write32: out of range"

(** Copy a byte string into RAM (used to load program images). *)
let blit_string t ~addr s =
  let len = String.length s in
  check t "blit" addr len;
  blit_from_string s 0 t.data addr len;
  mark_range t addr len

let blit_bytes t ~addr b = blit_string t ~addr (Bytes.unsafe_to_string b)

(** Copy [len] bytes at [addr] into [dst] at [pos]. *)
let read_into t ~addr dst ~pos ~len =
  check t "read_into" addr len;
  if pos < 0 || pos > Bytes.length dst - len then
    invalid_arg "Phys.read_into: destination out of range";
  blit_to_bytes t.data addr dst pos len

(** Read [len] raw bytes (used for translation-time source snapshots). *)
let read_bytes t ~addr ~len =
  check t "read_bytes" addr len;
  let b = Bytes.create len in
  blit_to_bytes t.data addr b 0 len;
  b

(** A copy of the whole of RAM. *)
let to_bytes t = read_bytes t ~addr:0 ~len:t.size

(** Byte offsets of the pages that hold a non-zero byte, in order.  Only
    {!written} pages are read. *)
let live_pages t =
  let offs = ref [] in
  for ppn = Bytes.length t.written - 1 downto 0 do
    let off = ppn lsl Mmu.page_shift in
    if written t ppn && not (is_zero t.data off (page_len t ppn)) then
      offs := off :: !offs
  done;
  !offs

(** MD5 of RAM with the [mask] byte ranges ([lo, hi), exclusive) read as
    zero: the digest [Digest.bytes] gives of such a copy.  RAM is not
    copied: the masked bytes are saved, zeroed in place and put back
    once the digest is taken, even if it raises.  These stores skip the
    written flags, so [t] is left exactly as it was.  A range outside
    RAM raises [Invalid_argument] before anything is touched. *)
let digest ?(mask = []) t =
  List.iter (fun (lo, hi) -> check t "digest" lo (hi - lo)) mask;
  match mask with
  | [] -> md5 t.data
  | _ ->
      (* every range saved before any is zeroed, so overlapping ranges
         put back the original bytes *)
      let saved =
        List.map (fun (lo, hi) -> read_bytes t ~addr:lo ~len:(hi - lo)) mask
      in
      Fun.protect
        ~finally:(fun () ->
          List.iter2
            (fun (lo, _) s ->
              blit_from_string (Bytes.unsafe_to_string s) 0 t.data lo
                (Bytes.length s))
            mask saved)
        (fun () ->
          List.iter (fun (lo, hi) -> zero t.data lo (hi - lo)) mask;
          md5 t.data)
