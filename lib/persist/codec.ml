(** Stable binary encoding for persist images.

    Two layers:

    - {b primitives}: fixed-width little-endian scalars, length-prefixed
      strings, lists, and a zero-run-elided sparse encoding for big
      mostly-zero byte arrays (guest RAM).  Everything is
      format-defined, byte for byte — no [Marshal], so images and
      digests survive compiler upgrades and are diffable across
      machines.
    - {b container}: a tagged image [magic · kind · version · sections ·
      trailer].  Every section carries an MD5 digest of its payload, and
      the trailer digests the whole body, so corruption is both detected
      and *located*: load failures raise {!Corrupt} with the section tag
      and byte position at fault.

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

let writer () = { buf = Bytes.create 256; len = 0 }
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

(** Offsets of the chunks of [data] that hold a non-zero byte.  [live k]
    says whether chunk [k] (bytes [k * sparse_chunk] on) may be
    non-zero; a chunk it rules out is taken as zero without being read.
    The default reads every chunk.  The result is the same either way as
    long as [live] never rules out a non-zero chunk. *)
let sparse_chunks ?(live = fun _ -> true) data =
  let total = Bytes.length data in
  let rec go k acc =
    let off = k * sparse_chunk in
    if off >= total then List.rev acc
    else
      let len = min sparse_chunk (total - off) in
      go (k + 1)
        (if live k && not (is_zero data off len) then off :: acc else acc)
  in
  go 0 []

(** Encode [data] given the offsets of its non-zero chunks, as
    {!sparse_chunks} finds them.  Chunks are copied straight from
    [data]. *)
let w_sparse_chunks w data offs =
  let total = Bytes.length data in
  w_int w total;
  w_int w (List.length offs);
  List.iter
    (fun off ->
      let len = min sparse_chunk (total - off) in
      w_int w off;
      w_int w len;
      w_raw_sub w data off len)
    offs

let w_sparse ?live w data = w_sparse_chunks w data (sparse_chunks ?live data)

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

(* Each domain keeps one writer for building containers, so a periodic
   checkpoint reuses its bytes instead of allocating fresh ones.  The
   slot is empty while a build holds it: a nested build gets a fresh
   writer.  A writer grown past [keep_max] is not kept. *)
let scratch = Domain.DLS.new_key (fun () -> ref None)
let keep_max = 4 lsl 20

(** Assemble a container image of [kind] (a 4-character tag, e.g.
    ["SNAP"]) at [version].  [emit section] writes the sections in image
    order: each [section tag fill] call streams one payload with [fill];
    its length and digest are filled in after it. *)
let container ~kind ~version emit =
  assert (String.length kind = 4);
  let slot = Domain.DLS.get scratch in
  let w =
    match !slot with
    | Some w ->
        slot := None;
        w.len <- 0;
        w
    | None -> { buf = Bytes.create 65536; len = 0 }
  in
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
    w_raw w (Digest.subbytes w.buf start (w.len - start));
    incr count
  in
  emit section;
  patch_int w count_at !count;
  let body = digest w in
  w_raw w trailer_tag;
  w_raw w body;
  let image = contents w in
  if Bytes.length w.buf <= keep_max then slot := Some w;
  image

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
