(** Execution profiling gathered by the interpreter (paper §2: the
    interpreter collects "data on execution frequency, branch
    directions, and memory-mapped I/O operations"). *)

type branch_bias = { mutable taken : int; mutable not_taken : int }

(* [counter] and [bump_counter] run once per interpreted instruction; a small
   direct-mapped memo over the counts hashtable keeps the interpreter
   hot loop off the hashing path.  The memo caches the [int ref]
   stored in the table, so hits observe exactly the table's counts. *)
let memo_slots = 256
let memo_mask = memo_slots - 1

type t = {
  exec_counts : (int, int ref) Hashtbl.t;  (** per-EIP execution counts *)
  memo_eip : int array;  (** -1 = empty *)
  memo_ref : int ref array;
  branches : (int, branch_bias) Hashtbl.t;  (** per-branch direction data *)
  bmemo_eip : int array;  (** same memo scheme over [branches] *)
  bmemo_bias : branch_bias array;
  mmio_insns : (int, unit) Hashtbl.t;
      (** instructions observed touching memory-mapped I/O *)
}

let dummy_bias_ () = { taken = min_int; not_taken = min_int }

let create () =
  {
    exec_counts = Hashtbl.create 1024;
    memo_eip = Array.make memo_slots (-1);
    memo_ref = Array.make memo_slots (ref 0);
    branches = Hashtbl.create 256;
    bmemo_eip = Array.make memo_slots (-1);
    bmemo_bias = Array.make memo_slots (dummy_bias_ ());
    mmio_insns = Hashtbl.create 64;
  }

(* Stand-in counter for an EIP that has never been counted: reads as
   0, and [bump_counter] replaces it rather than writing it. *)
let absent = ref 0

(** [eip]'s counter, through the memo; {!absent} when [eip] has no
    count yet.  The dispatcher reads the count off it, then hands it
    back to {!bump_counter} when it interprets, so an interpreted
    instruction costs one profile lookup. *)
let counter t eip =
  let slot = eip land memo_mask in
  if Array.unsafe_get t.memo_eip slot = eip then Array.unsafe_get t.memo_ref slot
  else
    match Hashtbl.find_opt t.exec_counts eip with
    | Some r ->
        t.memo_eip.(slot) <- eip;
        t.memo_ref.(slot) <- r;
        r
    | None -> absent

(** Count one interpreted execution of the instruction at [eip], whose
    counter [c] was fetched by {!counter} with no profile change since. *)
let bump_counter t eip c =
  if c == absent then begin
    let r = ref 1 in
    Hashtbl.add t.exec_counts eip r;
    let slot = eip land memo_mask in
    t.memo_eip.(slot) <- eip;
    t.memo_ref.(slot) <- r
  end
  else incr c

(** Count one interpreted execution of the instruction at [eip]. *)
let bump t eip = bump_counter t eip (counter t eip)

(** Forget the count (after translating, so invalidation restarts the
    threshold climb). *)
let reset_count t eip =
  let slot = eip land memo_mask in
  if t.memo_eip.(slot) = eip then t.memo_eip.(slot) <- -1;
  Hashtbl.remove t.exec_counts eip

let note_branch t eip ~taken =
  let slot = eip land memo_mask in
  let b =
    if Array.unsafe_get t.bmemo_eip slot = eip then
      Array.unsafe_get t.bmemo_bias slot
    else begin
      let b =
        match Hashtbl.find_opt t.branches eip with
        | Some b -> b
        | None ->
            let b = { taken = 0; not_taken = 0 } in
            Hashtbl.add t.branches eip b;
            b
      in
      t.bmemo_eip.(slot) <- eip;
      t.bmemo_bias.(slot) <- b;
      b
    end
  in
  if taken then b.taken <- b.taken + 1 else b.not_taken <- b.not_taken + 1

(** Predicted direction for the conditional branch at [eip]; [None]
    when there is no clear bias. *)
let bias t eip =
  match Hashtbl.find_opt t.branches eip with
  | None -> None
  | Some { taken; not_taken } ->
      if taken >= 3 * (not_taken + 1) then Some true
      else if not_taken >= 3 * (taken + 1) then Some false
      else None

let note_mmio t eip = Hashtbl.replace t.mmio_insns eip ()
let is_mmio_insn t eip = Hashtbl.mem t.mmio_insns eip
