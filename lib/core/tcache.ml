(** The translation cache.

    Holds translation records indexed by x86 entry address, by id (for
    chain resolution), and by physical page (for SMC invalidation).
    Translation groups (paper §3.6.5) keep superseded translations of
    the same region so that multi-version self-modifying code (the
    Windows/9X BLT driver pattern) can reactivate an old translation by
    snapshot match instead of retranslating.

    Under capacity pressure the cache degrades gracefully: records are
    stamped with a generation that advances as insertions accumulate and
    is refreshed on every dispatch hit, and the cache evicts the coldest
    generations first — hot entries and their groups survive.  The
    all-or-nothing full flush (what the seed did, and the simplest of
    the garbage collection policies real systems use) is retained as the
    last resort when every held record is current-generation. *)

(** Why a chained exit was torn down — the accounting axes of the
    unlink counters (and of {!Stats}). *)
type unlink_cause =
  | Uevict  (** generational eviction, capacity flush, or replacement *)
  | Udemote  (** demotion-ladder invalidation *)
  | Usmc  (** SMC/DMA invalidation *)
  | Uaot  (** the dying translation was an AOT entry (any trigger) *)
  | Uchaos  (** chaos-layer unlink storm *)

(** Closure-compilation state of a translation
    ({!Config.closure_exec}).  Compiled lazily at first dispatch —
    which is also what re-arms AOT-installed translations locally
    after their copy-on-validate install. *)
type comp =
  | Not_compiled
  | Compiled of Vliw.Closure.t
  | Uncompilable
      (** the closure compiler refused (register index outside the
          working array); {!Vliw.Exec.run} handles it, identically *)

type trans = {
  id : int;
  entry : int;
  code : Vliw.Code.t;
  region : Region.t;
  policy : Policy.t;
  snapshot : Bytes.t option;
      (** concatenated source bytes (in [region.src_ranges] order) at
          translation time; present for self-checking / revalidating /
          grouped translations *)
  mutable valid : bool;
  mutable gen : int;  (** generation stamp; refreshed on dispatch hits *)
  mutable execs : int;
  (* adaptive-retranslation counters (per fault class) *)
  mutable spec_faults : int;
  mutable genuine_faults : int;
  mutable smc_false : int;  (** protection faults with unchanged code *)
  mutable reval_armed : bool;
      (** self-revalidation prologue currently enabled: verify source
          bytes, re-protect, then run (§3.6.2) *)
  unprotected : bool;
      (** self-checking translation guarded by the alias hardware; its
          pages need no write protection (§3.6.3) *)
  aot : bool;
      (** minted by the static ahead-of-time pass and installed from a
          translation image at boot; invalidation and eviction treat it
          exactly like a dynamic translation, only the accounting
          differs *)
  mutable compiled : comp;
  mutable in_links : (trans * int) list;
      (** reverse chain index: predecessors whose exit [(src, i)] is
          patched [Chained] to this record.  Best-effort bookkeeping —
          every chained transfer revalidates the successor, so
          correctness never rests on this list; it exists so
          invalidation can tear links down eagerly and count why. *)
  self : trans option;
      (** [Some] of this record, built once at insert: {!lookup} and
          {!by_id} run on every dispatch and chained exit, and hand it
          out instead of allocating a fresh option each time *)
}

type t = {
  by_entry : (int, trans) Hashtbl.t;
  by_id : (int, trans) Hashtbl.t;
      (** every record the cache still holds: valid translations plus
          parked group members.  [count] mirrors its size. *)
  by_page : (int, trans list ref) Hashtbl.t;
  groups : (int, trans list ref) Hashtbl.t;
  mutable next_id : int;
  capacity : int;
  mutable count : int;  (** held records: valid + parked-in-group *)
  mutable hwm : int;  (** high-water mark of [count] over the run *)
  mutable cur_gen : int;
  mutable inserts : int;  (** insertions since the last generation turn *)
  gen_step : int;  (** insertions per generation turn *)
  mutable flushes : int;
  mutable evictions : int;  (** generational eviction rounds *)
  mutable evicted : int;  (** records discarded by eviction *)
  (* chained-exit unlink counters, by cause (mirrored into {!Stats}) *)
  mutable unlinks_evict : int;
  mutable unlinks_demote : int;
  mutable unlinks_smc : int;
  mutable unlinks_aot : int;
  mutable unlinks_chaos : int;
  mutable on_flush : unit -> unit;
      (** fired on every full flush; the engine hooks it so dependent
          host caches (the interpreter's decoded-instruction cache)
          die with the translations *)
  mutable on_evict : trans -> unit;
      (** fired once per record discarded by generational eviction; the
          engine hooks it to release the record's SMC page protection *)
}

let create ~capacity =
  {
    by_entry = Hashtbl.create 512;
    by_id = Hashtbl.create 512;
    by_page = Hashtbl.create 128;
    groups = Hashtbl.create 64;
    next_id = 0;
    capacity;
    count = 0;
    hwm = 0;
    cur_gen = 0;
    inserts = 0;
    gen_step = max 1 (capacity / 8);
    flushes = 0;
    evictions = 0;
    evicted = 0;
    unlinks_evict = 0;
    unlinks_demote = 0;
    unlinks_smc = 0;
    unlinks_aot = 0;
    unlinks_chaos = 0;
    on_flush = (fun () -> ());
    on_evict = (fun _ -> ());
  }

(* [mem] then [find]: a hit costs a second hash of an int key, but
   neither allocates an option nor raises on a miss. *)
let find_valid tbl key =
  if Hashtbl.mem tbl key then
    let tr = Hashtbl.find tbl key in
    if tr.valid then tr.self else None
  else None

let lookup t entry =
  (* checked once per dispatch; skip the hash while nothing is cached
     (the interpreter-warmup phase) *)
  if Hashtbl.length t.by_entry = 0 then None
  else
    match find_valid t.by_entry entry with
    | Some tr as found ->
        tr.gen <- t.cur_gen;
        found
    | None -> None

let by_id t id = find_valid t.by_id id

(* ------------------------------------------------------------------ *)
(* Chained-exit link bookkeeping                                       *)
(* ------------------------------------------------------------------ *)

let count_unlink t = function
  | Uevict -> t.unlinks_evict <- t.unlinks_evict + 1
  | Udemote -> t.unlinks_demote <- t.unlinks_demote + 1
  | Usmc -> t.unlinks_smc <- t.unlinks_smc + 1
  | Uaot -> t.unlinks_aot <- t.unlinks_aot + 1
  | Uchaos -> t.unlinks_chaos <- t.unlinks_chaos + 1

(** Record that [src]'s exit [exit_idx] is now [Chained] to [dst], so
    [dst]'s death can tear the link down eagerly. *)
let link ~src ~exit_idx ~dst =
  if
    not
      (List.exists
         (fun (s, i) -> s.id = src.id && i = exit_idx)
         dst.in_links)
  then dst.in_links <- (src, exit_idx) :: dst.in_links

(* A dying AOT record counts its unlinks under the AOT axis whatever
   the trigger was — the axis answers "how much chaining did the
   static tier's churn cost us". *)
let cause_for tr cause = if tr.aot then Uaot else cause

(* Detach every predecessor exit still chained to [tr].  Parked and
   already-dead predecessors are unlinked too: their exits would fail
   the by-id revalidation at next dispatch anyway, so this changes no
   costs, only reclaims the bookkeeping. *)
let unlink_incoming t tr ~cause =
  let cause = cause_for tr cause in
  List.iter
    (fun (src, i) ->
      let e = src.code.Vliw.Code.exits.(i) in
      match e.Vliw.Code.chain with
      | Vliw.Code.Chained id when id = tr.id ->
          e.Vliw.Code.chain <- Vliw.Code.Unchained;
          count_unlink t cause
      | _ -> ())
    tr.in_links;
  tr.in_links <- []

let pages_of_ranges ranges =
  List.concat_map
    (fun (lo, hi) ->
      let first = lo lsr Machine.Mmu.page_shift
      and last = (hi - 1) lsr Machine.Mmu.page_shift in
      List.init (last - first + 1) (fun i -> first + i))
    ranges
  |> List.sort_uniq compare

let pages_of tr = pages_of_ranges tr.region.Region.src_ranges

(** Translations whose source bytes live on physical page [ppn].
    (Source ranges are linear addresses; the workloads map code
    identity, which this exploits — documented limitation.) *)
let on_page t ~ppn =
  match Hashtbl.find_opt t.by_page ppn with
  | Some l -> List.filter (fun tr -> tr.valid) !l
  | None -> []

let flush t =
  (* every link dies with the cache; count the outgoing chained exits
     of every held record (each live link is counted exactly once, on
     the exit that held it) *)
  Hashtbl.iter
    (fun _ tr ->
      Array.iter
        (fun (e : Vliw.Code.exit) ->
          match e.Vliw.Code.chain with
          | Vliw.Code.Chained _ ->
              e.Vliw.Code.chain <- Vliw.Code.Unchained;
              count_unlink t (cause_for tr Uevict)
          | _ -> ())
        tr.code.Vliw.Code.exits;
      tr.in_links <- [])
    t.by_id;
  Hashtbl.iter (fun _ tr -> tr.valid <- false) t.by_id;
  Hashtbl.reset t.by_entry;
  Hashtbl.reset t.by_id;
  Hashtbl.reset t.by_page;
  Hashtbl.reset t.groups;
  t.count <- 0;
  t.flushes <- t.flushes + 1;
  t.on_flush ()

(* Drop a record from every index.  [tr.valid] may be either state
   (eviction takes valid and parked records alike). *)
let drop t tr ~cause =
  unlink_incoming t tr ~cause;
  tr.valid <- false;
  (match Hashtbl.find_opt t.by_entry tr.entry with
  | Some cur when cur.id = tr.id -> Hashtbl.remove t.by_entry tr.entry
  | _ -> ());
  Hashtbl.remove t.by_id tr.id;
  List.iter
    (fun ppn ->
      match Hashtbl.find_opt t.by_page ppn with
      | Some l ->
          l := List.filter (fun x -> x.id <> tr.id) !l;
          if !l = [] then Hashtbl.remove t.by_page ppn
      | None -> ())
    (pages_of tr);
  (match Hashtbl.find_opt t.groups tr.entry with
  | Some l ->
      l := List.filter (fun x -> x.id <> tr.id) !l;
      if !l = [] then Hashtbl.remove t.groups tr.entry
  | None -> ());
  t.count <- t.count - 1

let oldest_generation t =
  Hashtbl.fold
    (fun _ tr acc ->
      match acc with
      | None -> Some tr.gen
      | Some g -> Some (min g tr.gen))
    t.by_id None

(** Evict every record stamped with generation [g] (current entries and
    parked group members alike).  Returns the number discarded; fires
    [on_evict] for each so the engine can release page protection. *)
let evict_generation t g =
  let victims =
    Hashtbl.fold (fun _ tr acc -> if tr.gen = g then tr :: acc else acc)
      t.by_id []
  in
  List.iter
    (fun tr ->
      drop t tr ~cause:Uevict;
      t.on_evict tr)
    victims;
  let n = List.length victims in
  if n > 0 then begin
    t.evictions <- t.evictions + 1;
    t.evicted <- t.evicted + n
  end;
  n

(** One graceful-degradation step: evict the coldest generation still
    held.  Also the chaos layer's "surprise eviction" entry point. *)
let evict_coldest t =
  match oldest_generation t with
  | None -> 0
  | Some g -> evict_generation t g

(* Make room for an insertion: evict coldest generations down to a
   low-water target; full flush only when everything left is
   current-generation (nothing is colder than the work in flight). *)
let ensure_room t =
  if t.count >= t.capacity then begin
    (* the low-water target must sit strictly below capacity, or a
       degenerate capacity (1) would never evict and the cache would
       grow without bound *)
    let target = min (t.capacity - 1) (max 1 (t.capacity * 3 / 4)) in
    let rec loop () =
      if t.count > target then
        match oldest_generation t with
        | Some g when g < t.cur_gen ->
            ignore (evict_generation t g);
            loop ()
        | _ -> if t.count >= t.capacity then flush t
    in
    loop ()
  end

(** Invalidate a translation.  With [keep_in_group] it is parked in the
    entry's translation group for possible reactivation (and keeps
    counting toward capacity until evicted); otherwise the record is
    dropped entirely.  [cause] labels the unlink accounting for any
    predecessor exits chained to it (parked records unlink too: until
    reactivated they are not dispatchable, and reactivation re-chains
    through the normal patch path at identical cost). *)
let invalidate ?(cause = Uevict) t tr ~keep_in_group =
  if tr.valid then begin
    unlink_incoming t tr ~cause;
    tr.valid <- false;
    (match Hashtbl.find_opt t.by_entry tr.entry with
    | Some cur when cur.id = tr.id -> Hashtbl.remove t.by_entry tr.entry
    | _ -> ());
    if keep_in_group then begin
      match Hashtbl.find_opt t.groups tr.entry with
      | Some l -> l := tr :: !l
      | None -> Hashtbl.add t.groups tr.entry (ref [ tr ])
    end
    else drop t tr ~cause
  end

(** Insert a new translation; returns it.  Replaces any current
    translation for the same entry (the old one is parked in the
    group). *)
let insert ?(unprotected = false) ?(aot = false) t ~entry ~code ~region ~policy
    ~snapshot =
  ensure_room t;
  (match Hashtbl.find_opt t.by_entry entry with
  | Some cur when cur.valid -> invalidate t cur ~keep_in_group:true
  | _ -> ());
  let rec tr =
    {
      id = t.next_id;
      entry;
      code;
      region;
      policy;
      snapshot;
      valid = true;
      gen = t.cur_gen;
      execs = 0;
      spec_faults = 0;
      genuine_faults = 0;
      smc_false = 0;
      reval_armed = false;
      unprotected;
      aot;
      compiled = Not_compiled;
      in_links = [];
      self = Some tr;
    }
  in
  t.next_id <- t.next_id + 1;
  t.count <- t.count + 1;
  if t.count > t.hwm then t.hwm <- t.count;
  t.inserts <- t.inserts + 1;
  if t.inserts >= t.gen_step then begin
    t.inserts <- 0;
    t.cur_gen <- t.cur_gen + 1
  end;
  Hashtbl.replace t.by_entry entry tr;
  Hashtbl.replace t.by_id tr.id tr;
  List.iter
    (fun ppn ->
      match Hashtbl.find_opt t.by_page ppn with
      | Some l -> l := tr :: !l
      | None -> Hashtbl.add t.by_page ppn (ref [ tr ]))
    (pages_of_ranges region.Region.src_ranges);
  tr

(** Search the entry's translation group for a parked translation whose
    snapshot matches the current source bytes; reactivate on match. *)
let group_match t ~entry ~current_bytes =
  match Hashtbl.find_opt t.groups entry with
  | None -> None
  | Some l -> (
      match
        List.find_opt
          (fun tr -> tr.snapshot = Some current_bytes)
          !l
      with
      | Some tr ->
          l := List.filter (fun x -> x.id <> tr.id) !l;
          (match Hashtbl.find_opt t.by_entry entry with
          | Some cur when cur.valid -> invalidate t cur ~keep_in_group:true
          | _ -> ());
          tr.valid <- true;
          tr.gen <- t.cur_gen;
          Hashtbl.replace t.by_entry entry tr;
          Hashtbl.replace t.by_id tr.id tr;
          Some tr
      | None -> None)

let group_size t ~entry =
  match Hashtbl.find_opt t.groups entry with
  | Some l -> List.length !l
  | None -> 0

(** Every live chained exit, as [(source, exit index)], in a canonical
    order (by translation id, then exit index) — the deterministic
    substrate for the chaos layer's unlink storms and their journal
    replay. *)
let chained_exits t =
  Hashtbl.fold
    (fun _ tr acc ->
      if tr.valid then begin
        let exits = tr.code.Vliw.Code.exits in
        let acc = ref acc in
        Array.iteri
          (fun i (e : Vliw.Code.exit) ->
            match e.Vliw.Code.chain with
            | Vliw.Code.Chained _ -> acc := (tr, i) :: !acc
            | _ -> ())
          exits;
        !acc
      end
      else acc)
    t.by_id []
  |> List.sort (fun ((a : trans), i) ((b : trans), j) ->
         compare (a.id, i) (b.id, j))

(** Chaos entry point: forcibly unlink one live chained exit, selected
    deterministically by [k] over the canonical {!chained_exits} order.
    Returns [true] when a link existed to cut. *)
let unlink_nth t ~k =
  match chained_exits t with
  | [] -> false
  | l ->
      let tr, i = List.nth l (k mod List.length l) in
      tr.code.Vliw.Code.exits.(i).Vliw.Code.chain <- Vliw.Code.Unchained;
      count_unlink t Uchaos;
      true
