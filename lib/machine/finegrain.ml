(** Fine-grain write-protection hardware (paper §3.6.1).

    The key insight from the paper: sub-page protection granularity is
    only needed for a few pages at a time, so the hardware keeps a small
    cache of per-page chunk masks and a software handler refills it on
    misses.  We model exactly that: a [capacity]-entry LRU cache mapping
    a physical page number to a 64-bit mask of protected 64-byte chunks.

    The authoritative masks live in CMS software ([Cms.Smc]); this module
    is only the hardware cache.  The CMS write path consults {!check}:

    - [Miss]: page has no cached entry; software must fault, look up the
      mask, and {!install} it (cheap fault).
    - [Protected_chunk]: the write overlaps a chunk that holds translated
      code bytes; CMS must treat it as a real SMC event.
    - [Clear]: the write only touches unprotected chunks; it proceeds
      with no fault at all — this is where the big Table 1 win comes
      from. *)

let chunk_shift = 6 (* 64-byte chunks *)
let chunks_per_page = Mmu.page_size lsr chunk_shift (* 64 *)

type result = Miss | Protected_chunk | Clear

type t = {
  capacity : int;
  entries : (int, int64) Hashtbl.t;  (** ppn -> chunk mask *)
  mutable lru : int list;  (** most recent first *)
  mutable misses : int;
  mutable hits_protected : int;
  mutable hits_clear : int;
  mutable installs : int;
}

let default_capacity = 8  (** entries of every machine's cache *)

let create ?(capacity = default_capacity) () =
  {
    capacity;
    entries = Hashtbl.create 16;
    lru = [];
    misses = 0;
    hits_protected = 0;
    hits_clear = 0;
    installs = 0;
  }

(** Mask with bits set for every chunk overlapped by [paddr, paddr+len). *)
let mask_of_range ~paddr ~len =
  let first = (paddr land Mmu.page_mask) lsr chunk_shift in
  let last = ((paddr + len - 1) land Mmu.page_mask) lsr chunk_shift in
  let m = ref 0L in
  for c = first to min last (chunks_per_page - 1) do
    m := Int64.logor !m (Int64.shift_left 1L c)
  done;
  !m

let touch t ppn = t.lru <- ppn :: List.filter (fun p -> p <> ppn) t.lru

let check t ~paddr ~len =
  let ppn = paddr lsr Mmu.page_shift in
  match Hashtbl.find_opt t.entries ppn with
  | None ->
      t.misses <- t.misses + 1;
      Miss
  | Some mask ->
      touch t ppn;
      if Int64.logand mask (mask_of_range ~paddr ~len) <> 0L then begin
        t.hits_protected <- t.hits_protected + 1;
        Protected_chunk
      end
      else begin
        t.hits_clear <- t.hits_clear + 1;
        Clear
      end

(** Software refill after a miss; evicts the LRU entry when full. *)
let install t ~ppn ~mask =
  t.installs <- t.installs + 1;
  if (not (Hashtbl.mem t.entries ppn)) && Hashtbl.length t.entries >= t.capacity
  then begin
    match List.rev t.lru with
    | victim :: _ ->
        Hashtbl.remove t.entries victim;
        t.lru <- List.filter (fun p -> p <> victim) t.lru
    | [] -> ()
  end;
  Hashtbl.replace t.entries ppn mask;
  touch t ppn

(** Drop the cached entry for a page (e.g. when its mask changes). *)
let invalidate t ~ppn =
  Hashtbl.remove t.entries ppn;
  t.lru <- List.filter (fun p -> p <> ppn) t.lru
