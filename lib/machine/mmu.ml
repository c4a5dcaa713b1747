(** Paging MMU for the guest's linear address space.

    A single-level software page table maps 4 KiB virtual pages to
    physical pages with present/writable attributes.  Translation
    failures raise the guest-visible [X86.Exn.Fault (PF _)] — precisely
    the fault the CMS interpreter must reproduce at the right
    instruction boundary.

    Hot-path layer: a direct-mapped software TLB, one way per access
    kind, caches successful translations so that the per-byte fetch and
    per-operand paths of the interpreter cost an array probe instead of
    a [Hashtbl] lookup.  The TLB is observationally invisible: it caches
    only translations the page table would produce right now, and every
    operation that could change that — {!map}, {!unmap},
    {!set_writable}, {!set_enabled} — flushes it.  Disable it wholesale
    with [fast_paths <- false] (the {!Config.host_fast_paths} knob). *)

let page_shift = 12
let page_size = 1 lsl page_shift
let page_mask = page_size - 1

type entry = { mutable ppn : int; mutable present : bool; mutable writable : bool }

(* TLB geometry: direct-mapped, [tlb_slots] entries per access kind. *)
let tlb_bits = 8
let tlb_slots = 1 lsl tlb_bits
let tlb_index_mask = tlb_slots - 1

type t = {
  table : (int, entry) Hashtbl.t;  (** vpn -> entry *)
  mutable enabled : bool;
      (** when disabled, virtual = physical (boot-time identity) *)
  mutable fast_paths : bool;  (** consult/fill the software TLB *)
  tlb_tag : int array;
      (** vpn per slot, -1 = invalid; slots [0,n) Read, [n,2n) Write,
          [2n,3n) Exec *)
  tlb_base : int array;  (** physical page base per slot *)
  mutable tlb_hits : int;
  mutable tlb_misses : int;
}

type access = Read | Write | Exec

let access_way = function Read -> 0 | Write -> 1 | Exec -> 2

let create () =
  {
    table = Hashtbl.create 256;
    enabled = true;
    fast_paths = true;
    tlb_tag = Array.make (3 * tlb_slots) (-1);
    tlb_base = Array.make (3 * tlb_slots) 0;
    tlb_hits = 0;
    tlb_misses = 0;
  }

(** Drop every cached translation.  Correctness depends on this running
    whenever the page table (or the enable bit) changes. *)
let flush_tlb t = Array.fill t.tlb_tag 0 (3 * tlb_slots) (-1)

(* Page-table update alone; every caller flushes the TLB. *)
let set_entry t ~vpn ~ppn ~writable =
  match Hashtbl.find_opt t.table vpn with
  | Some e ->
      e.ppn <- ppn;
      e.present <- true;
      e.writable <- writable
  | None -> Hashtbl.add t.table vpn { ppn; present = true; writable }

let map t ~virt ~phys ~writable =
  flush_tlb t;
  set_entry t ~vpn:(virt lsr page_shift) ~ppn:(phys lsr page_shift) ~writable

(** Identity-map [pages] pages starting at [virt], with one TLB flush
    for the whole range. *)
let map_identity t ~virt ~pages ~writable =
  flush_tlb t;
  for i = 0 to pages - 1 do
    let vpn = (virt lsr page_shift) + i in
    set_entry t ~vpn ~ppn:vpn ~writable
  done

let unmap t ~virt =
  flush_tlb t;
  match Hashtbl.find_opt t.table (virt lsr page_shift) with
  | Some e -> e.present <- false
  | None -> ()

let set_writable t ~virt w =
  flush_tlb t;
  match Hashtbl.find_opt t.table (virt lsr page_shift) with
  | Some e -> e.writable <- w
  | None -> ()

(** Toggle paging.  Flushes the TLB: entries cached while enabled must
    not survive a disable/re-enable cycle during which the table may
    have been rebuilt. *)
let set_enabled t on =
  flush_tlb t;
  t.enabled <- on

(* Snapshot support: enumerate the page table in deterministic (vpn)
   order, and rebuild it from such a dump.  Restoring flushes the TLB —
   the rebuilt table is a wholesale change. *)
let dump_entries t =
  Hashtbl.fold
    (fun vpn e acc -> (vpn, e.ppn, e.present, e.writable) :: acc)
    t.table []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)

let restore_entries t entries =
  Hashtbl.reset t.table;
  List.iter
    (fun (vpn, ppn, present, writable) ->
      Hashtbl.replace t.table vpn { ppn; present; writable })
    entries;
  flush_tlb t

let fault addr access present =
  raise
    (X86.Exn.Fault
       (X86.Exn.PF { addr; write = (access = Write); present }))

(* Slow path: walk the page table, fill the TLB on success. *)
let translate_slow t access vaddr vpn =
  match Hashtbl.find_opt t.table vpn with
  | None -> fault vaddr access false
  | Some e ->
      if not e.present then fault vaddr access false
      else if access = Write && not e.writable then fault vaddr access true
      else begin
        let base = e.ppn lsl page_shift in
        if t.fast_paths then begin
          let slot = (access_way access * tlb_slots) + (vpn land tlb_index_mask) in
          Array.unsafe_set t.tlb_tag slot vpn;
          Array.unsafe_set t.tlb_base slot base
        end;
        base lor (vaddr land page_mask)
      end

(** Translate a linear address; raises #PF on miss or write-protection. *)
let translate t access vaddr =
  let vaddr = vaddr land 0xffffffff in
  if not t.enabled then vaddr
  else begin
    let vpn = vaddr lsr page_shift in
    if t.fast_paths then begin
      let slot = (access_way access * tlb_slots) + (vpn land tlb_index_mask) in
      if Array.unsafe_get t.tlb_tag slot = vpn then begin
        t.tlb_hits <- t.tlb_hits + 1;
        Array.unsafe_get t.tlb_base slot lor (vaddr land page_mask)
      end
      else begin
        t.tlb_misses <- t.tlb_misses + 1;
        translate_slow t access vaddr vpn
      end
    end
    else translate_slow t access vaddr vpn
  end

(** Translation that reports failure rather than raising; used by the
    translator to probe whether speculation assumptions can be checked.
    Probes the page table directly — the miss path is common in the
    translator's scan loop, so it must not allocate and catch an
    exception per probe. *)
let translate_opt t access vaddr =
  let vaddr = vaddr land 0xffffffff in
  if not t.enabled then Some vaddr
  else
    match Hashtbl.find_opt t.table (vaddr lsr page_shift) with
    | None -> None
    | Some e ->
        if not e.present then None
        else if access = Write && not e.writable then None
        else Some ((e.ppn lsl page_shift) lor (vaddr land page_mask))
