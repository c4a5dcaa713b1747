(** Stable binary encoding for persist images.

    Three layers:

    - {b primitives}: fixed-width little-endian scalars, length-prefixed
      strings, lists, and a zero-run-elided sparse encoding for big
      mostly-zero byte arrays (guest RAM).  Everything is
      format-defined, byte for byte — no [Marshal], so images and
      digests survive compiler upgrades and are diffable across
      machines.
    - {b record tables}: a record's layout is one list of {!field}s,
      each pairing a put with a take, and {!w_fields} and {!r_fields}
      walk that one list, so a record's encoder and decoder cannot
      disagree.  To change a record's format, add the field to its
      table.
    - {b container}: a tagged image [magic · kind · version · sections ·
      trailer].  Every section carries an MD5 digest of its payload, and
      the trailer digests the whole body, so corruption is both detected
      and *located*: load failures raise {!Corrupt} with the section tag
      and byte position at fault.  {!w_sections} and {!r_sections} write
      and read a container's sections as one table each.

    Readers are strict: every length is bounds-checked before use, every
    section must verify, and trailing garbage is rejected.  A truncated,
    bit-flipped or wrong-kind image never produces a half-restored
    machine — it produces a diagnostic. *)

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

(* One growable byte array.  Scalars are stored in place; a length
   written before its payload is known can be back-patched with
   {!patch_int}. *)
type w = { mutable buf : Bytes.t; mutable len : int }

let writer ?(capacity = 256) () = { buf = Bytes.create capacity; len = 0 }

(* A writer meant for a whole image starts this big, so a fleet
   machine's snapshot (about 54 kB) is written without growing. *)
let image_capacity = 65536

let contents w = Bytes.sub_string w.buf 0 w.len

(** MD5 of everything written so far, read in place. *)
let digest w = Digest.subbytes w.buf 0 w.len

let grow w n =
  let cap = ref (max 64 (Bytes.length w.buf)) in
  while !cap < w.len + n do
    cap := 2 * !cap
  done;
  let buf = Bytes.create !cap in
  Bytes.blit w.buf 0 buf 0 w.len;
  w.buf <- buf

let[@inline] reserve w n = if w.len + n > Bytes.length w.buf then grow w n

(* [n] bytes left as they are, for a later in-place fill. *)
let skip w n =
  reserve w n;
  w.len <- w.len + n

let w_int64 w v =
  reserve w 8;
  Bytes.set_int64_le w.buf w.len v;
  w.len <- w.len + 8

let w_int w v = w_int64 w (Int64.of_int v)

(** Overwrite the integer {!w_int} stored at byte [pos]. *)
let patch_int w pos v = Bytes.set_int64_le w.buf pos (Int64.of_int v)

let w_bool w v =
  reserve w 1;
  Bytes.unsafe_set w.buf w.len (if v then '\001' else '\000');
  w.len <- w.len + 1

(* Raw bytes, no length prefix. *)
let w_raw_sub w src off n =
  reserve w n;
  Bytes.blit src off w.buf w.len n;
  w.len <- w.len + n

let w_raw w s = w_raw_sub w (Bytes.unsafe_of_string s) 0 (String.length s)

let w_string w s =
  w_int w (String.length s);
  w_raw w s

let w_bytes b by = w_string b (Bytes.unsafe_to_string by)

let w_list b f l =
  w_int b (List.length l);
  List.iter (f b) l

let w_int_array b a =
  w_int b (Array.length a);
  Array.iter (w_int b) a

let w_opt b f = function
  | None -> w_bool b false
  | Some v ->
      w_bool b true;
      f b v

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type r = { data : string; mutable pos : int; ctx : string }

let reader ?(ctx = "image") data = { data; pos = 0; ctx }

let need r n =
  if n < 0 || r.pos + n > String.length r.data then
    corrupt "%s: truncated at byte %d (need %d more bytes, have %d)" r.ctx
      r.pos n
      (String.length r.data - r.pos)

let r_fixed r n =
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let r_int r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let r_int64 r =
  need r 8;
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let r_bool r =
  need r 1;
  let c = r.data.[r.pos] in
  r.pos <- r.pos + 1;
  match c with
  | '\000' -> false
  | '\001' -> true
  | c -> corrupt "%s: invalid boolean byte %#x at byte %d" r.ctx (Char.code c) (r.pos - 1)

let r_string r =
  let n = r_int r in
  if n < 0 then corrupt "%s: negative string length %d at byte %d" r.ctx n (r.pos - 8);
  r_fixed r n

let r_bytes r = Bytes.of_string (r_string r)

let r_list r f =
  let n = r_int r in
  if n < 0 then corrupt "%s: negative list length %d at byte %d" r.ctx n (r.pos - 8);
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f r :: acc) in
  go n []

let r_int_array r =
  let n = r_int r in
  if n < 0 then corrupt "%s: negative array length %d at byte %d" r.ctx n (r.pos - 8);
  (* element order matters; build via an explicit loop *)
  let a = Array.make (max n 1) 0 in
  for i = 0 to n - 1 do
    a.(i) <- r_int r
  done;
  if n = 0 then [||] else a

let r_opt r f = if r_bool r then Some (f r) else None

(** The reader must be exactly exhausted; catches encoder/decoder skew
    and images with appended garbage. *)
let r_end r =
  if r.pos <> String.length r.data then
    corrupt "%s: %d trailing bytes after byte %d" r.ctx
      (String.length r.data - r.pos)
      r.pos

(* ------------------------------------------------------------------ *)
(* Record tables                                                       *)
(* ------------------------------------------------------------------ *)

(** How one value is written and read back. *)
type 'v codec = { write : w -> 'v -> unit; read : r -> 'v }

let int = { write = w_int; read = r_int }
let bool = { write = w_bool; read = r_bool }
let string = { write = w_string; read = r_string }
let bytes = { write = w_bytes; read = r_bytes }
let list c = { write = (fun w l -> w_list w c.write l); read = (fun r -> r_list r c.read) }
let opt c = { write = (fun w v -> w_opt w c.write v); read = (fun r -> r_opt r c.read) }

let pair a b =
  {
    write = (fun w (x, y) -> a.write w x; b.write w y);
    read = (fun r -> let x = a.read r in (x, b.read r));
  }

(** One field of a record ['a]: [put] writes it out of a value, [take]
    reads it into one and returns the value — a mutable record assigned
    in place, an immutable one copied with the field updated. *)
type 'a field = { put : w -> 'a -> unit; take : r -> 'a -> 'a }

(** A field of an immutable record: [set] returns the record updated. *)
let field c get set =
  { put = (fun w v -> c.write w (get v)); take = (fun r v -> set v (c.read r)) }

(** A field of a mutable record: [set] assigns it. *)
let mut c get set =
  {
    put = (fun w v -> c.write w (get v));
    take = (fun r v -> set v (c.read r); v);
  }

(** Write [v] as the table [fields] lays it out.  The walk itself
    allocates nothing, so a checkpoint's freeze costs what its fields
    write. *)
let rec w_fields fields w v =
  match fields with
  | [] -> ()
  | f :: tl ->
      f.put w v;
      w_fields tl w v

(** Read the fields of [fields] into [v], in table order. *)
let rec r_fields fields r v =
  match fields with [] -> v | f :: tl -> r_fields tl r (f.take r v)

(** The record laid out by [fields], read into [init ()]. *)
let record fields init =
  { write = w_fields fields; read = (fun r -> r_fields fields r (init ())) }

(** [v] alone, encoded. *)
let encode c v =
  let w = writer () in
  c.write w v;
  contents w

(** The value [c] reads from all of [s]. *)
let decode ?ctx c s =
  let r = reader ?ctx s in
  let v = c.read r in
  r_end r;
  v

(** The fields of [part v], a mutable record inside [v], as one field
    of [v]. *)
let part proj fields =
  {
    put = (fun w v -> w_fields fields w (proj v));
    take = (fun r v -> ignore (r_fields fields r (proj v)); v);
  }

(* ------------------------------------------------------------------ *)
(* Sparse byte arrays                                                  *)
(* ------------------------------------------------------------------ *)

(* Guest RAM is mostly zero: encode as total length + the non-zero
   [sparse_chunk]-sized runs, each as (offset, bytes).  A 16 MiB image
   with a few hundred KiB live collapses to the live part. *)
let sparse_chunk = 4096

(* Is [data.[off, off+len)] all zero?  Eight bytes per test, then the
   unaligned tail byte by byte. *)
let is_zero data off len =
  let words = off + (len land lnot 7) and stop = off + len in
  let rec word i =
    i >= words || (Int64.equal (Bytes.get_int64_ne data i) 0L && word (i + 8))
  in
  let rec byte i =
    i >= stop || (Bytes.unsafe_get data i = '\000' && byte (i + 1))
  in
  word off && byte words

(** Offsets of the chunks of [data] that hold a non-zero byte. *)
let sparse_chunks data =
  let total = Bytes.length data in
  let nchunks = (total + sparse_chunk - 1) / sparse_chunk in
  let offs = ref [] in
  for k = nchunks - 1 downto 0 do
    let off = k * sparse_chunk in
    if not (is_zero data off (min sparse_chunk (total - off))) then
      offs := off :: !offs
  done;
  !offs

(** Encode a sparse image of [total] bytes given the offsets of its
    non-zero chunks.  [copy off buf pos len] copies the chunk at [off]
    straight into the writer's buffer [buf] at [pos]. *)
let w_sparse_with w ~total offs copy =
  w_int w total;
  w_int w (List.length offs);
  List.iter
    (fun off ->
      let len = min sparse_chunk (total - off) in
      w_int w off;
      w_int w len;
      reserve w len;
      copy off w.buf w.len len;
      w.len <- w.len + len)
    offs

(** Encode [data] given the offsets of its non-zero chunks, as
    {!sparse_chunks} finds them. *)
let w_sparse_chunks w data offs =
  w_sparse_with w ~total:(Bytes.length data) offs (fun off buf pos len ->
      Bytes.blit data off buf pos len)

(** Encode [data] sparsely. *)
let w_sparse w data = w_sparse_chunks w data (sparse_chunks data)

(** Decode a sparse image into a destination of the caller's choosing:
    [alloc total] makes a zeroed destination of [total] bytes, and
    [blit dst off s] stores each non-zero chunk, after its bounds check.
    Returns the destination. *)
let r_sparse_into r ~alloc ~blit =
  let total = r_int r in
  if total < 0 then corrupt "%s: negative sparse image size %d" r.ctx total;
  let dst = alloc total in
  let n = r_int r in
  if n < 0 then corrupt "%s: negative sparse chunk count %d" r.ctx n;
  for _ = 1 to n do
    let off = r_int r in
    let s = r_string r in
    if off < 0 || off + String.length s > total then
      corrupt "%s: sparse chunk [%d, +%d) outside image of %d bytes" r.ctx off
        (String.length s) total;
    blit dst off s
  done;
  dst

let r_sparse r =
  r_sparse_into r
    ~alloc:(fun total -> Bytes.make total '\000')
    ~blit:(fun data off s -> Bytes.blit_string s 0 data off (String.length s))

(* ------------------------------------------------------------------ *)
(* Container                                                           *)
(* ------------------------------------------------------------------ *)

let magic = "CMSPERSIST\n"
let trailer_tag = "ENDS"
let digest_size = 16

(** Write a container image of [kind] (a 4-character tag, e.g.
    ["SNAP"]) at [version] into [w], which is emptied first, and leave
    every digest slot unfilled: a {e frozen} image, which {!seal} turns
    into the image.  [emit section] writes the sections in image order:
    each [section tag fill] call streams one payload with [fill]; its
    length is filled in after it.  A frozen image already has its final
    length, [w.len]. *)
let freeze_container w ~kind ~version emit =
  assert (String.length kind = 4);
  w.len <- 0;
  w_raw w magic;
  w_raw w kind;
  w_int w version;
  let count_at = w.len in
  w_int w 0;
  let count = ref 0 in
  let section tag fill =
    assert (String.length tag = 4);
    w_raw w tag;
    let len_at = w.len in
    w_int w 0;
    let start = w.len in
    fill w;
    patch_int w len_at (w.len - start);
    skip w digest_size;
    incr count
  in
  emit section;
  patch_int w count_at !count;
  w_raw w trailer_tag;
  skip w digest_size

(** The image frozen in [w]: fill in each section's digest, then the
    trailer's over the whole body, and copy the bytes out.  These are
    the only bytes a frozen image leaves unwritten, so the result does
    not depend on when it is sealed, and sealing again gives the same
    image. *)
let seal w =
  let b = w.buf in
  let header = String.length magic + 4 + 8 in
  let nsec = Int64.to_int (Bytes.get_int64_le b header) in
  let pos = ref (header + 8) in
  for _ = 1 to nsec do
    let len = Int64.to_int (Bytes.get_int64_le b (!pos + 4)) in
    let start = !pos + 12 in
    Bytes.blit_string (Digest.subbytes b start len) 0 b (start + len)
      digest_size;
    pos := start + len + digest_size
  done;
  assert (Bytes.sub_string b !pos 4 = trailer_tag);
  assert (!pos + 4 + digest_size = w.len);
  Bytes.blit_string (Digest.subbytes b 0 !pos) 0 b (!pos + 4) digest_size;
  contents w

(** Assemble a container image: {!freeze_container} into a fresh
    writer, then {!seal}. *)
let container ~kind ~version emit =
  let w = writer ~capacity:image_capacity () in
  freeze_container w ~kind ~version emit;
  seal w

(** {!container} from ready-made [(tag, payload)] sections. *)
let write_container ~kind ~version (sections : (string * string) list) =
  container ~kind ~version (fun section ->
      List.iter
        (fun (tag, payload) -> section tag (fun w -> w_raw w payload))
        sections)

(** Parse and fully verify a container; returns the sections in image
    order.  Raises {!Corrupt} with a precise diagnostic on any defect:
    bad magic, wrong kind, unsupported version, truncation, a section
    whose payload fails its digest, a missing or failing trailer, or
    trailing garbage. *)
let read_container ~kind ~version data =
  let mlen = String.length magic in
  if String.length data < mlen || String.sub data 0 mlen <> magic then
    corrupt "not a CMS persist image (bad or missing magic)";
  let r = reader ~ctx:"container" data in
  r.pos <- mlen;
  let k = r_fixed r 4 in
  if k <> kind then
    corrupt "wrong image kind %S (expected %S)" k kind;
  let v = r_int r in
  if v <> version then
    corrupt "unsupported %s format version %d (this build reads version %d)"
      kind v version;
  let nsec = r_int r in
  if nsec < 0 || nsec > 0xffff then
    corrupt "implausible section count %d" nsec;
  let sections = ref [] in
  for _ = 1 to nsec do
    let tag = r_fixed r 4 in
    let len = r_int r in
    if len < 0 then corrupt "section %S: negative length %d" tag len;
    if r.pos + len + 16 > String.length data then
      corrupt "section %S: truncated (%d-byte payload at byte %d, image is %d bytes)"
        tag len r.pos (String.length data);
    let payload = r_fixed r len in
    let digest = r_fixed r 16 in
    if Digest.string payload <> digest then
      corrupt "section %S: payload digest mismatch (corrupted bytes)" tag;
    sections := (tag, payload) :: !sections
  done;
  let body_end = r.pos in
  (match r_fixed r 4 with
  | t when t = trailer_tag -> ()
  | t -> corrupt "missing trailer (found %S where %S expected)" t trailer_tag);
  let whole = r_fixed r 16 in
  if Digest.string (String.sub data 0 body_end) <> whole then
    corrupt "whole-image digest mismatch (image corrupted)";
  r_end r;
  List.rev !sections

(** Find a required section. *)
let section sections tag =
  match List.assoc_opt tag sections with
  | Some payload -> payload
  | None -> corrupt "missing required section %S" tag

(** Write [v] as the [(tag, fields)] tables [tables] lay it out, one
    section each, through a container's [section] (see
    {!freeze_container}). *)
let w_sections tables section v =
  List.iter (fun (tag, fields) -> section tag (fun w -> w_fields fields w v)) tables

(** Read [tables] into [v] out of the verified container [sections]:
    each section through its table, and whole. *)
let r_sections ~ctx tables sections v =
  List.fold_left
    (fun v (tag, fields) ->
      decode ~ctx:(ctx ^ " section " ^ tag) (record fields (fun () -> v))
        (section sections tag))
    v tables

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

(** Atomic file write: the bytes land in [path ^ ".tmp"] first and only
    a complete, closed write is renamed over [path], so a reader (or a
    writer killed mid-way) sees the old file or the new one, never a
    torn one.  On failure the temp file is removed and the exception
    re-raised; [path] is untouched. *)
let write_file path data =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc data;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
