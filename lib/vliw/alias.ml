(** The alias hardware (paper §3.5).

    A small set of slots, each protecting a physical byte range.  The
    translator explicitly arms a slot from a reordered load and marks
    the stores it was hoisted above with a check mask; the hardware
    compares every checked access against the armed ranges and faults on
    overlap.  Much simpler than a memory conflict buffer or the IA-64
    ALAT: the translator, not the hardware, decides what to track —
    exactly the paper's point.

    Layout: slot [i] protects [\[lo.(i), hi.(i))]; a disarmed slot holds
    the empty range [\[max_int, min_int)], which no access overlaps.
    Arming is two int stores and a check allocates nothing. *)

type t = {
  lo : int array;
  hi : int array;
  mutable any_armed : bool;
      (** at least one slot armed since the last clear; [clear] runs at
          every commit/rollback boundary (once per interpreted
          instruction), so the nothing-armed case must be a no-op *)
  mutable violations : int;
  mutable checks : int;
  mutable arms : int;
}

let create ?(slots = 8) () =
  {
    lo = Array.make slots max_int;
    hi = Array.make slots min_int;
    any_armed = false;
    violations = 0;
    checks = 0;
    arms = 0;
  }

let arm t ~slot ~paddr ~len =
  t.arms <- t.arms + 1;
  t.any_armed <- true;
  t.lo.(slot) <- paddr;
  t.hi.(slot) <- paddr + len

(* First slot at or above [i] in [mask] whose range overlaps [lo, hi),
   or -1; stops at the mask's last bit. *)
let rec first_hit t mask lo hi i =
  if i >= Array.length t.lo || mask lsr i = 0 then -1
  else if
    mask land (1 lsl i) <> 0
    && lo < Array.unsafe_get t.hi i
    && Array.unsafe_get t.lo i < hi
  then i
  else first_hit t mask lo hi (i + 1)

(** Check a range against every slot in [mask]; returns the first
    overlapping slot, or -1 when none overlaps. *)
let check t ~mask ~paddr ~len =
  t.checks <- t.checks + 1;
  let i = first_hit t mask paddr (paddr + len) 0 in
  if i >= 0 then t.violations <- t.violations + 1;
  i

(** Disarm everything; done at commit and rollback boundaries (alias
    protection never outlives a translation window). *)
let clear t =
  if t.any_armed then begin
    Array.fill t.lo 0 (Array.length t.lo) max_int;
    Array.fill t.hi 0 (Array.length t.hi) min_int;
    t.any_armed <- false
  end
