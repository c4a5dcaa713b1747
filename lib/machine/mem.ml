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

    Every fact about a physical page lives in one flags byte per RAM
    page ({!f_mmio}, {!f_protected}, {!f_fg}, {!f_snoop}): the SMC
    machinery, the RAM fast path and the decode-cache snoop all read and
    write that one table.  The table covers RAM pages only.  Protection
    of a page outside RAM is ignored: translations are made from
    identity-mapped RAM, so their source pages are always inside it.

    Hot-path layer: ordinary-RAM accesses — pages with neither
    {!f_mmio} nor {!f_protected} set — bypass {!Bus} dispatch and hit
    {!Phys} directly, so every store that protection must see still
    takes the slow path.  A {!Bus} generation counter triggers a
    recompute of the {!f_mmio} bits if the MMIO topology changes.  The
    fast path is skipped while a one-shot [write_pass] is armed so the
    SMC handler's authorization is always consumed by {!check_store}.
    Translated memory atoms use the same table ({!ram_page},
    {!check_store}, {!commit_write}).  All of it is gated on
    [fast_paths] ({!Config.host_fast_paths}).

    Decode-cache snoop: pages whose bytes are held decoded by the
    interpreter's instruction cache carry {!f_snoop}; every write path
    (ordered guest writes, committed translation stores via
    {!commit_write}, DMA, image loads) reports landing writes so the
    cache entry dies before stale bytes could execute. *)

type smc_hit =
  | Page_level  (** page-granular protection fault *)
  | Fg_miss  (** fine-grain cache miss; software refill needed *)
  | Fg_chunk  (** write overlaps a protected chunk *)

exception Smc_stuck of int
(** raised if an SMC handler fails to make progress (internal bug guard) *)

(* Per-page flag bits. *)
let f_mmio = 1 (* shadowed by an MMIO window: never the fast path *)
let f_protected = 2 (* CMS protection: translations were made from it *)
let f_fg = 4 (* fine-grain mode: {!Finegrain} filters its stores *)
let f_snoop = 8 (* the decode cache holds instructions from it *)

type t = {
  phys : Phys.t;
  mmu : Mmu.t;
  bus : Bus.t;
  fg : Finegrain.t;
  mutable fg_enabled : bool;  (** fine-grain hardware present (Table 1 knob) *)
  pages : Bytes.t;  (** per-ppn flags (f_* above), one byte per RAM page *)
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
  mutable bus_gen_seen : int;  (** MMIO topology generation reflected *)
  mutable on_code_write : ppn:int -> unit;
      (** decode-cache invalidation callback for a write landing on a
          snooped page (the flag is cleared before the call) *)
  mutable fast_reads : int;
  mutable fast_writes : int;
}

let ppn_of paddr = paddr lsr Mmu.page_shift

let create ?(ram_size = 16 * 1024 * 1024) () =
  let phys = Phys.create ram_size in
  {
    phys;
    mmu = Mmu.create ();
    bus = Bus.create phys;
    fg = Finegrain.create ();
    fg_enabled = true;
    pages = Bytes.make (ram_size lsr Mmu.page_shift) '\000';
    on_smc = (fun _ ~paddr:_ ~len:_ -> ());
    on_dma_smc = (fun ~ppn:_ -> ());
    write_pass = false;
    page_prot_faults = 0;
    smc_events = 0;
    dma_smc_events = 0;
    fast_paths = true;
    bus_gen_seen = 0;
    on_code_write = (fun ~ppn:_ -> ());
    fast_reads = 0;
    fast_writes = 0;
  }

(* ------------------------------------------------------------------ *)
(* The page table                                                      *)
(* ------------------------------------------------------------------ *)

let in_ram t ppn = ppn < Bytes.length t.pages
let flags t ppn = Char.code (Bytes.unsafe_get t.pages ppn)

(* Does RAM page [ppn] carry any of the bits of [f]?  False outside RAM. *)
let has t ppn f = in_ram t ppn && flags t ppn land f <> 0

(* Set the bits of [set] and clear those of [clear] on RAM page [ppn];
   a page outside RAM is ignored. *)
let update t ppn ~set ~clear =
  if in_ram t ppn then
    Bytes.unsafe_set t.pages ppn
      (Char.unsafe_chr (flags t ppn land lnot clear lor set))

(* Recompute every page's {!f_mmio} bit from the bus topology.  Runs at
   generation mismatches (MMIO registration) — rare — and keeps the
   hot-path check down to one byte load. *)
let rebuild_page_state t =
  for ppn = 0 to Bytes.length t.pages - 1 do
    let lo = ppn lsl Mmu.page_shift in
    let hi = lo + Mmu.page_size in
    let mmio =
      List.exists
        (fun (h : Bus.mmio_handler) -> h.Bus.lo < hi && lo < h.Bus.hi)
        t.bus.Bus.mmio
    in
    update t ppn ~set:(if mmio then f_mmio else 0) ~clear:f_mmio
  done;
  t.bus_gen_seen <- t.bus.Bus.generation

let sync_page_state t =
  if t.bus_gen_seen <> t.bus.Bus.generation then rebuild_page_state t

(* May [paddr]'s page take the RAM fast path right now? *)
let page_fast t paddr =
  sync_page_state t;
  let ppn = ppn_of paddr in
  in_ram t ppn && flags t ppn land (f_mmio lor f_protected) = 0

(** Is [paddr]'s page backed by plain RAM (no MMIO shadowing)?  The
    decode cache only holds instructions from such pages: MMIO fetches
    are device reads that must not be elided. *)
let code_page_cacheable t paddr =
  sync_page_state t;
  let ppn = ppn_of paddr in
  in_ram t ppn && flags t ppn land f_mmio = 0

(** Flag [paddr]'s page as holding decoded-instruction-cache entries so
    subsequent writes to it invalidate them. *)
let mark_code_page t paddr = update t (ppn_of paddr) ~set:f_snoop ~clear:0

(** Clear a page's decode-cache flag (the cache dropped its entries). *)
let unmark_code_page t ~ppn = update t ppn ~set:0 ~clear:f_snoop

(* A write landed on physical [paddr]: if the decode cache holds
   instructions from that page, invalidate them.  [len] never crosses a
   page here (all single-write paths are page-local); DMA handles its
   range page by page. *)
let note_write t paddr =
  let ppn = ppn_of paddr in
  if has t ppn f_snoop then begin
    unmark_code_page t ~ppn;
    t.on_code_write ~ppn
  end

(* ------------------------------------------------------------------ *)
(* Protection state                                                    *)
(* ------------------------------------------------------------------ *)

let protect_page t ~ppn = update t ppn ~set:f_protected ~clear:0

let unprotect_page t ~ppn =
  update t ppn ~set:0 ~clear:(f_protected lor f_fg);
  Finegrain.invalidate t.fg ~ppn

let is_protected t ~ppn = has t ppn f_protected

let set_fg_mode t ~ppn on =
  if on && t.fg_enabled then update t ppn ~set:f_fg ~clear:0
  else begin
    update t ppn ~set:0 ~clear:f_fg;
    Finegrain.invalidate t.fg ~ppn
  end

let in_fg_mode t ~ppn = has t ppn f_fg

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
    (* plain RAM is never protected *)
    None
  else if not (is_protected t ~ppn) then None
  else if t.fg_enabled && in_fg_mode t ~ppn then
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
