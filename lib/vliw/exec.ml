(** The VLIW machine state and its shared memory semantics.

    Holds the shadowed register file, the gated store buffer, the alias
    hardware and the guest memory system a {!Code.t} block executes
    against, plus the operations every executor needs: commit,
    rollback, address translation, loads with store-to-load forwarding
    and the faulting checks of a store.  {!Closure} compiles blocks
    against this state and runs them.  Semantics follow the hardware
    model:

    - atoms within a molecule execute in parallel (reads see
      pre-molecule state; register writes and store-buffer pushes land
      at molecule end);
    - a faulting atom aborts its molecule with a native exception and
      leaves all state to be rolled back by CMS;
    - loads observe buffered stores (store-to-load forwarding);
    - commits are free (the paper's design goal), rollbacks cost a
      couple of branch-misprediction-equivalents, charged by CMS.

    The TM5800 has almost no hardware interlocks — "CMS guarantees
    correct operation by careful scheduling" — so nothing here checks
    issue constraints or operation latencies at run time: they are
    checked statically, once, before a block is installed (issue
    constraints and latencies by the translation verifier's
    [issue-constraints] and [latency] rules). *)

type t = {
  regs : Regfile.t;
  sbuf : Storebuf.t;
  alias : Alias.t;
  mem : Machine.Mem.t;
  perf : Perf.t;
  mutable max_molecules_per_run : int;
  commit_write : int -> int -> int -> unit;
      (** pre-applied {!Machine.Mem.commit_write}; [commit] runs once
          per interpreted instruction, so the drain closure is built
          once here instead of per call *)
  bus_read : int -> int -> int;
      (** pre-applied {!Machine.Bus.read}, for the bytes a forwarding
          load takes from memory *)
}

let create ?(sbuf_capacity = 64) ?(alias_slots = 8) mem =
  {
    regs = Regfile.create ();
    sbuf = Storebuf.create ~capacity:sbuf_capacity ();
    alias = Alias.create ~slots:alias_slots ();
    mem;
    perf = Perf.create ();
    max_molecules_per_run = 50_000_000;
    commit_write = Machine.Mem.commit_write mem;
    bus_read = Machine.Bus.read mem.Machine.Mem.bus;
  }

type outcome =
  | Exited of int  (** left through exit-table entry i *)
  | Faulted of Nexn.t
  | Interrupted  (** pending interrupt sampled between molecules *)
  | Runaway  (** exceeded the per-run molecule budget (internal guard) *)

exception Fault_ of Nexn.t

let fault n = raise (Fault_ n)

let mask32 v = v land 0xffffffff
let sext32 v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

let rollback t =
  Regfile.rollback t.regs;
  Storebuf.rollback t.sbuf;
  Alias.clear t.alias;
  t.perf.Perf.rollbacks <- t.perf.Perf.rollbacks + 1

let commit t =
  Regfile.commit t.regs;
  (* drained stores go through {!Machine.Mem.commit_write} so the
     interpreter's decode cache sees translated code writes too *)
  Storebuf.commit t.sbuf ~mem_write:t.commit_write;
  Alias.clear t.alias;
  t.perf.Perf.commits <- t.perf.Perf.commits + 1

(* ------------------------------------------------------------------ *)
(* Memory access helpers                                               *)
(* ------------------------------------------------------------------ *)

let translate t access vaddr =
  match Machine.Mmu.translate t.mem.Machine.Mem.mmu access vaddr with
  | paddr -> paddr
  | exception X86.Exn.Fault f ->
      t.perf.Perf.x86_fault_atoms <- t.perf.Perf.x86_fault_atoms + 1;
      fault (Nexn.X86_fault f)

(* A load or store may cross a page boundary; physical ranges are then
   discontiguous, so process per byte in that (rare) case. *)
(* I/O space is off-limits to translated code entirely, spec bit or
   not: any access inside a translation is at risk of rollback (a later
   fault in the same region replays from the committed state), and a
   device read must not happen twice — so even an in-order MMIO access
   faults here and executes interpretively (§3.4).  Recurring faults
   make the adaptive machinery carve the instruction out as an
   interpreter exit.  (Found by differential fuzzing: an MMIO load
   followed by an SMC-faulting store in the same region read the device
   once in the interpreter, twice under the translator.)
   A page {!Machine.Mem.ram_page} classifies as plain RAM cannot be
   I/O: it skips the MMIO search and reads {!Machine.Phys} directly. *)
let rec do_load t ~vaddr ~size ~protect =
  if size <= Machine.Mem.page_room vaddr then begin
    let paddr = translate t Machine.Mmu.Read vaddr in
    let mem = t.mem in
    let ram = Machine.Mem.ram_page mem paddr in
    if (not ram) && Machine.Bus.is_mmio mem.Machine.Mem.bus paddr then begin
      t.perf.Perf.mmio_spec_faults <- t.perf.Perf.mmio_spec_faults + 1;
      fault (Nexn.Mmio_spec paddr)
    end;
    (match protect with
    | Some slot -> Alias.arm t.alias ~slot ~paddr ~len:size
    | None -> ());
    if Storebuf.overlaps t.sbuf ~paddr ~size then
      Storebuf.read_overlapped t.sbuf ~mem_read:t.bus_read ~paddr ~size
    else if ram then Machine.Mem.read_ram mem paddr size
    else Machine.Bus.read mem.Machine.Mem.bus paddr size
  end
  else begin
    let v = ref 0 in
    for i = 0 to size - 1 do
      v := !v lor (do_load t ~vaddr:(vaddr + i) ~size:1 ~protect lsl (8 * i))
    done;
    !v
  end

(* All faulting checks for one non-page-crossing store piece, at issue
   order; returns the physical address the piece will be pushed to.
   The push itself happens at molecule end ({!Closure}'s apply phase). *)
let store_checks t ~vaddr ~size ~spec ~check =
  let paddr = translate t Machine.Mmu.Write vaddr in
  let mem = t.mem in
  if
    spec
    && (not (Machine.Mem.ram_page mem paddr))
    && Machine.Bus.is_mmio mem.Machine.Mem.bus paddr
  then begin
    t.perf.Perf.mmio_spec_faults <- t.perf.Perf.mmio_spec_faults + 1;
    fault (Nexn.Mmio_spec paddr)
  end;
  if check <> 0 then begin
    let slot = Alias.check t.alias ~mask:check ~paddr ~len:size in
    if slot >= 0 then begin
      t.perf.Perf.alias_faults <- t.perf.Perf.alias_faults + 1;
      fault (Nexn.Alias_violation slot)
    end
  end;
  (match Machine.Mem.check_store mem ~paddr ~len:size with
  | Some hit ->
      t.perf.Perf.smc_faults <- t.perf.Perf.smc_faults + 1;
      fault (Nexn.Smc (hit, paddr))
  | None -> ());
  paddr
