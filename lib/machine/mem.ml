(** The guest memory system: MMU + bus + CMS translated-page protection.

    Every guest-visible access funnels through here, from both the
    interpreter and committed translation stores, so self-modifying-code
    detection sees all writes regardless of execution mode.

    Protection is layered (paper §3.6):

    - a physical page can be [protected] because translations were made
      from code on it; a store that hits a protected page raises an
      *SMC event* toward CMS (it is not a guest-visible fault);
    - a protected page may additionally be in *fine-grain mode*: the
      {!Finegrain} hardware cache then filters writes by 64-byte chunk,
      so stores to pure-data chunks proceed without any fault.

    The guest's own #PF (not-present / read-only page) is raised from
    {!Mmu.translate} before protection is even consulted.

    Hot-path layer: ordinary-RAM accesses — physical pages that are in
    RAM, not shadowed by an MMIO window, and not under CMS protection —
    bypass {!Bus} dispatch and hit {!Phys} directly.  A per-page state
    table classifies every physical page; {!protect_page} /
    {!unprotect_page} keep it coherent with the SMC machinery (so every
    store that protection must see still takes the slow path), and a
    {!Bus} generation counter triggers a rebuild if the MMIO topology
    changes.  The fast path is skipped while a one-shot [write_pass] is
    armed so the SMC handler's authorization is always consumed by
    {!check_store}.  Translated memory atoms use the same table
    ({!ram_page}, {!check_store}, {!commit_write}).  All of it is gated
    on [fast_paths] ({!Config.host_fast_paths}).

    Decode-cache snoop: pages whose bytes are held decoded by the
    interpreter's instruction cache are flagged in [code_pages]; every
    write path (ordered guest writes, committed translation stores via
    {!commit_write}, DMA, image loads) reports landing writes so the
    cache entry dies before stale bytes could execute. *)

type smc_hit =
  | Page_level  (** page-granular protection fault *)
  | Fg_miss  (** fine-grain cache miss; software refill needed *)
  | Fg_chunk  (** write overlaps a protected chunk *)

exception Smc_stuck of int
(** raised if an SMC handler fails to make progress (internal bug guard) *)

(* Per-page fast-path classification. *)
let ps_slow = '\000' (* MMIO-shadowed, partial, or outside RAM *)
let ps_fast = '\001' (* plain RAM: eligible for the fast path *)
let ps_protected = '\002' (* RAM under CMS protection: slow, but cacheable code *)

type t = {
  phys : Phys.t;
  mmu : Mmu.t;
  bus : Bus.t;
  fg : Finegrain.t;
  mutable fg_enabled : bool;  (** fine-grain hardware present (Table 1 knob) *)
  protected_pages : (int, unit) Hashtbl.t;  (** ppn set *)
  fg_pages : (int, unit) Hashtbl.t;  (** ppn set: pages in fine-grain mode *)
  mutable on_smc : smc_hit -> paddr:int -> len:int -> unit;
      (** CMS handler invoked on an SMC event from the ordered write
          path; must update protection state so the write can retry *)
  mutable on_dma_smc : ppn:int -> unit;
      (** CMS handler for DMA touching a protected page *)
  mutable write_pass : bool;
      (** one-shot: the SMC handler performs/authorizes the pending
          write itself; the next protection check is waved through *)
  mutable page_prot_faults : int;  (** page-level SMC faults taken *)
  mutable smc_events : int;  (** all SMC events (any granularity) *)
  mutable dma_smc_events : int;
  (* --- host fast paths --- *)
  mutable fast_paths : bool;
  page_state : Bytes.t;  (** per-ppn classification (ps_* above) *)
  mutable bus_gen_seen : int;  (** MMIO topology generation reflected *)
  code_pages : Bytes.t;  (** per-ppn: decoded-instruction cache holds bytes *)
  mutable on_code_write : ppn:int -> unit;
      (** decode-cache invalidation callback for a write landing on a
          flagged page (the flag is cleared before the call) *)
  mutable fast_reads : int;
  mutable fast_writes : int;
}

let ppn_of paddr = paddr lsr Mmu.page_shift

let create ?(ram_size = 16 * 1024 * 1024) () =
  let phys = Phys.create ram_size in
  let npages = ram_size lsr Mmu.page_shift in
  {
    phys;
    mmu = Mmu.create ();
    bus = Bus.create phys;
    fg = Finegrain.create ();
    fg_enabled = true;
    protected_pages = Hashtbl.create 64;
    fg_pages = Hashtbl.create 16;
    on_smc = (fun _ ~paddr:_ ~len:_ -> ());
    on_dma_smc = (fun ~ppn:_ -> ());
    write_pass = false;
    page_prot_faults = 0;
    smc_events = 0;
    dma_smc_events = 0;
    fast_paths = true;
    page_state = Bytes.make npages ps_fast;
    bus_gen_seen = 0;
    code_pages = Bytes.make npages '\000';
    on_code_write = (fun ~ppn:_ -> ());
    fast_reads = 0;
    fast_writes = 0;
  }

(* ------------------------------------------------------------------ *)
(* Fast-path page classification                                       *)
(* ------------------------------------------------------------------ *)

(* Recompute every page's class from the bus topology and protection
   sets.  Runs at creation-generation mismatches (MMIO registration) —
   rare — and keeps the hot-path check down to one byte load. *)
let rebuild_page_state t =
  let npages = Bytes.length t.page_state in
  for ppn = 0 to npages - 1 do
    let lo = ppn lsl Mmu.page_shift in
    let hi = lo + Mmu.page_size in
    let mmio =
      List.exists
        (fun (h : Bus.mmio_handler) -> h.Bus.lo < hi && lo < h.Bus.hi)
        t.bus.Bus.mmio
    in
    Bytes.unsafe_set t.page_state ppn
      (if mmio then ps_slow
       else if Hashtbl.mem t.protected_pages ppn then ps_protected
       else ps_fast)
  done;
  t.bus_gen_seen <- t.bus.Bus.generation

let sync_page_state t =
  if t.bus_gen_seen <> t.bus.Bus.generation then rebuild_page_state t

(* May [paddr]'s page take the RAM fast path right now? *)
let page_fast t paddr =
  sync_page_state t;
  let ppn = ppn_of paddr in
  ppn < Bytes.length t.page_state
  && Bytes.unsafe_get t.page_state ppn = ps_fast

(** Is [paddr]'s page backed by plain RAM (no MMIO shadowing)?  The
    decode cache only holds instructions from such pages: MMIO fetches
    are device reads that must not be elided. *)
let code_page_cacheable t paddr =
  sync_page_state t;
  let ppn = ppn_of paddr in
  ppn < Bytes.length t.page_state
  && Bytes.unsafe_get t.page_state ppn <> ps_slow

(** Flag [paddr]'s page as holding decoded-instruction-cache entries so
    subsequent writes to it invalidate them. *)
let mark_code_page t paddr =
  let ppn = ppn_of paddr in
  if ppn < Bytes.length t.code_pages then
    Bytes.unsafe_set t.code_pages ppn '\001'

(** Clear a page's decode-cache flag (the cache dropped its entries). *)
let unmark_code_page t ~ppn =
  if ppn < Bytes.length t.code_pages then
    Bytes.unsafe_set t.code_pages ppn '\000'

(* A write landed on physical [paddr]: if the decode cache holds
   instructions from that page, invalidate them.  [len] never crosses a
   page here (all single-write paths are page-local); DMA handles its
   range page by page. *)
let note_write t paddr =
  let ppn = ppn_of paddr in
  if ppn < Bytes.length t.code_pages
     && Bytes.unsafe_get t.code_pages ppn = '\001'
  then begin
    Bytes.unsafe_set t.code_pages ppn '\000';
    t.on_code_write ~ppn
  end

(* ------------------------------------------------------------------ *)
(* Protection state                                                    *)
(* ------------------------------------------------------------------ *)

let protect_page t ~ppn =
  Hashtbl.replace t.protected_pages ppn ();
  if ppn < Bytes.length t.page_state
     && Bytes.unsafe_get t.page_state ppn = ps_fast
  then Bytes.unsafe_set t.page_state ppn ps_protected

let unprotect_page t ~ppn =
  Hashtbl.remove t.protected_pages ppn;
  Hashtbl.remove t.fg_pages ppn;
  Finegrain.invalidate t.fg ~ppn;
  if ppn < Bytes.length t.page_state
     && Bytes.unsafe_get t.page_state ppn = ps_protected
  then Bytes.unsafe_set t.page_state ppn ps_fast

let is_protected t ~ppn = Hashtbl.mem t.protected_pages ppn

let set_fg_mode t ~ppn on =
  if on && t.fg_enabled then Hashtbl.replace t.fg_pages ppn ()
  else begin
    Hashtbl.remove t.fg_pages ppn;
    Finegrain.invalidate t.fg ~ppn
  end

let in_fg_mode t ~ppn = Hashtbl.mem t.fg_pages ppn

(** Enable or disable every host fast path below the CMS layer: the MMU
    software TLB and the RAM fast path.  Off must reproduce the
    original dispatch behavior exactly (the differential suite pins
    this). *)
let set_fast_paths t on =
  t.fast_paths <- on;
  t.mmu.Mmu.fast_paths <- on;
  Mmu.flush_tlb t.mmu

(** Hardware-side protection check for a store to physical [paddr].
    Returns [None] when the store may proceed. *)
let check_store t ~paddr ~len =
  let ppn = ppn_of paddr in
  if t.write_pass then begin
    t.write_pass <- false;
    None
  end
  else if t.fast_paths && page_fast t paddr then
    (* plain RAM is never protected: no hash lookup *)
    None
  else if not (Hashtbl.mem t.protected_pages ppn) then None
  else if t.fg_enabled && Hashtbl.mem t.fg_pages ppn then
    match Finegrain.check t.fg ~paddr ~len with
    | Finegrain.Clear -> None
    | Finegrain.Miss -> Some Fg_miss
    | Finegrain.Protected_chunk -> Some Fg_chunk
  else Some Page_level

let note_smc t hit =
  t.smc_events <- t.smc_events + 1;
  if hit = Page_level then t.page_prot_faults <- t.page_prot_faults + 1

(* ------------------------------------------------------------------ *)
(* Guest accessors                                                     *)
(* ------------------------------------------------------------------ *)

let page_room vaddr = Mmu.page_size - (vaddr land Mmu.page_mask)

(** Guest read of [size] in {1,4} bytes at linear [vaddr]. *)
let rec read t ~size vaddr =
  if size <= page_room vaddr then begin
    let paddr = Mmu.translate t.mmu Mmu.Read vaddr in
    if t.fast_paths && page_fast t paddr then begin
      t.fast_reads <- t.fast_reads + 1;
      match size with
      | 1 -> Phys.read8 t.phys paddr
      | 4 -> Phys.read32 t.phys paddr
      | _ -> Bus.read t.bus paddr size
    end
    else Bus.read t.bus paddr size
  end
  else
    (* crosses a page: assemble bytewise *)
    let v = ref 0 in
    for i = 0 to size - 1 do
      v := !v lor (read t ~size:1 (vaddr + i) lsl (8 * i))
    done;
    !v

(* ------------------------------------------------------------------ *)
(* Translated memory atoms                                             *)
(* ------------------------------------------------------------------ *)

(** May a translated memory atom treat physical [paddr] as plain RAM?
    True when the fast paths are on and [paddr]'s page is RAM with no
    MMIO overlap.  Protected pages qualify: protection guards stores,
    and {!check_store} still sees every one at issue.  Such an access
    cannot be I/O, so {!Bus.is_mmio} is statically false and {!Bus}
    dispatch would end in {!Phys} anyway.  The interpreter's host-cache
    counters ([fast_reads]/[fast_writes]) are not charged: they belong
    to {!read}/{!write}. *)
let ram_page t paddr = t.fast_paths && code_page_cacheable t paddr

(** Read [size] bytes at a {!ram_page} address [paddr]. *)
let read_ram t paddr size =
  match size with
  | 1 -> Phys.read8 t.phys paddr
  | 4 -> Phys.read32 t.phys paddr
  | _ -> Bus.read t.bus paddr size

(** Committed translation store: the {!Vliw.Storebuf} drain path.
    Protection was checked at store issue; this only has to keep the
    decode cache honest before the bytes land. *)
let commit_write t paddr size v =
  note_write t paddr;
  if size = 1 && ram_page t paddr then Phys.write8 t.phys paddr v
  else if size = 4 && ram_page t paddr then Phys.write32 t.phys paddr v
  else Bus.write t.bus paddr size v

(** Ordered guest write: translates, runs the SMC protection loop
    (invoking the CMS handler until the write is allowed), then stores. *)
let rec write t ~size vaddr v =
  if size <= page_room vaddr then begin
    let paddr = Mmu.translate t.mmu Mmu.Write vaddr in
    if
      t.fast_paths && (not t.write_pass)
      && (size = 1 || size = 4)
      && page_fast t paddr
    then begin
      (* plain RAM, unprotected, no pending handler authorization: the
         protection check is statically [None], so skip Bus dispatch *)
      t.fast_writes <- t.fast_writes + 1;
      note_write t paddr;
      match size with
      | 1 -> Phys.write8 t.phys paddr v
      | 4 -> Phys.write32 t.phys paddr v
      | _ -> assert false
    end
    else begin
      let rec attempt tries =
        if tries > 8 then raise (Smc_stuck paddr);
        match check_store t ~paddr ~len:size with
        | None ->
            note_write t paddr;
            Bus.write t.bus paddr size v
        | Some hit ->
            note_smc t hit;
            t.on_smc hit ~paddr ~len:size;
            attempt (tries + 1)
      in
      attempt 0
    end
  end
  else
    for i = 0 to size - 1 do
      write t ~size:1 (vaddr + i) ((v lsr (8 * i)) land 0xff)
    done

(** Instruction fetch of one byte (Exec access). *)
let fetch8 t vaddr =
  let paddr = Mmu.translate t.mmu Mmu.Exec vaddr in
  if t.fast_paths && page_fast t paddr then begin
    t.fast_reads <- t.fast_reads + 1;
    Phys.read8 t.phys paddr
  end
  else Bus.read t.bus paddr 1

(** Snapshot [len] code bytes starting at linear [addr] (used for
    translation-time source capture and self-checking). *)
let read_code t ~addr ~len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i (Char.chr (fetch8 t (addr + i)))
  done;
  b

(* ------------------------------------------------------------------ *)
(* DMA                                                                 *)
(* ------------------------------------------------------------------ *)

(** DMA store into physical memory.  Protected pages get the coarse
    treatment the paper describes: notify CMS (which invalidates every
    translation on the page and unprotects it), then write. *)
let dma_write t paddr data =
  let len = Bytes.length data in
  let first = ppn_of paddr and last = ppn_of (paddr + len - 1) in
  for ppn = first to last do
    if is_protected t ~ppn then begin
      t.dma_smc_events <- t.dma_smc_events + 1;
      t.on_dma_smc ~ppn
    end;
    (* decode-cache entries from DMA'd pages die too (§3.6.1 ladder) *)
    note_write t (ppn lsl Mmu.page_shift)
  done;
  Phys.blit_bytes t.phys ~addr:paddr data

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

(** Place an assembled listing into RAM at its base address (physical =
    linear for loading; the workload's page tables control the rest). *)
let load_listing t (l : X86.Asm.listing) =
  let base = l.X86.Asm.base and len = Bytes.length l.X86.Asm.image in
  if len > 0 then
    for ppn = ppn_of base to ppn_of (base + len - 1) do
      note_write t (ppn lsl Mmu.page_shift)
    done;
  Phys.blit_bytes t.phys ~addr:l.X86.Asm.base l.X86.Asm.image
