(** The gated store buffer (paper §3.1, patent [27]).

    Translated stores are held here and released to the memory system in
    program order only at commit; a rollback simply drops them.  Loads
    executed while stores are buffered must observe them, so the read
    path overlays buffered bytes on top of memory (store-to-load
    forwarding, byte-accurate for partial overlaps).

    The buffer is finite: overflow raises a native fault that makes CMS
    retranslate with shorter regions — a real constraint on translation
    size.

    Layout: three flat int arrays (physical address, size, value) filled
    oldest first, so a push is three array stores, commit drains slots
    [0, count) in place and rollback just resets [count].  Nothing on
    the push/read/commit path allocates. *)

type t = {
  capacity : int;
  paddrs : int array;
  sizes : int array;
  values : int array;
  mutable count : int;  (** live entries, slots [0, count), oldest first *)
  mutable total_buffered : int;
  mutable total_committed : int;
  mutable total_dropped : int;
  mutable overflows : int;
}

let create ?(capacity = 64) () =
  {
    capacity;
    paddrs = Array.make capacity 0;
    sizes = Array.make capacity 0;
    values = Array.make capacity 0;
    count = 0;
    total_buffered = 0;
    total_committed = 0;
    total_dropped = 0;
    overflows = 0;
  }

let is_empty t = t.count = 0

(** Buffer a store; [Error `Overflow] if the buffer is full. *)
let push t ~paddr ~size ~value =
  let n = t.count in
  if n >= t.capacity then begin
    t.overflows <- t.overflows + 1;
    Error `Overflow
  end
  else begin
    Array.unsafe_set t.paddrs n paddr;
    Array.unsafe_set t.sizes n size;
    Array.unsafe_set t.values n value;
    t.count <- n + 1;
    t.total_buffered <- t.total_buffered + 1;
    Ok ()
  end

(* Does any entry in slots [i, count) overlap [lo, hi)? *)
let rec overlap_from t lo hi i =
  i < t.count
  && ((let p = Array.unsafe_get t.paddrs i in
       lo < p + Array.unsafe_get t.sizes i && p < hi)
     || overlap_from t lo hi (i + 1))

(** Does any buffered store cover a byte of [paddr, paddr + size)? *)
let overlaps t ~paddr ~size = overlap_from t paddr (paddr + size) 0

(* The byte at [addr] from the youngest entry at or below slot [i] that
   covers it, or -1. *)
let rec forwarded_byte t addr i =
  if i < 0 then -1
  else
    let p = Array.unsafe_get t.paddrs i in
    if addr >= p && addr < p + Array.unsafe_get t.sizes i then
      (Array.unsafe_get t.values i lsr (8 * (addr - p))) land 0xff
    else forwarded_byte t addr (i - 1)

(** Read [size] bytes at [paddr] when {!overlaps} holds: each byte from
    the youngest covering buffered store, or from [mem_read] otherwise. *)
let read_overlapped t ~mem_read ~paddr ~size =
  let v = ref 0 in
  for i = 0 to size - 1 do
    let b = forwarded_byte t (paddr + i) (t.count - 1) in
    let b = if b >= 0 then b else mem_read (paddr + i) 1 in
    v := !v lor (b lsl (8 * i))
  done;
  !v

(** Read [size] bytes at [paddr], taking each byte from the youngest
    covering buffered store, or from [mem_read] otherwise. *)
let read t ~mem_read ~paddr ~size =
  (* Only assemble bytewise when some byte really forwards from a
     buffered store: splitting a load that doesn't overlap the buffer
     would turn one bus access into [size] — visibly different on I/O
     space, where a device register must see a single full-width read
     (found by differential fuzzing: an MMIO load executing while an
     unrelated store sat in the buffer counted 4 device reads where the
     interpreter counted 1). *)
  if overlaps t ~paddr ~size then read_overlapped t ~mem_read ~paddr ~size
  else mem_read paddr size

(** Release all buffered stores to memory in program (FIFO) order. *)
let commit t ~mem_write =
  let n = t.count in
  if n > 0 then begin
    for i = 0 to n - 1 do
      mem_write (Array.unsafe_get t.paddrs i) (Array.unsafe_get t.sizes i)
        (Array.unsafe_get t.values i)
    done;
    t.total_committed <- t.total_committed + n;
    t.count <- 0
  end

(** Drop everything (rollback). *)
let rollback t =
  t.total_dropped <- t.total_dropped + t.count;
  t.count <- 0
