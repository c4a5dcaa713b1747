(** The VLIW execution engine.

    Executes a {!Code.t} block against the shadowed register file, the
    gated store buffer, the alias hardware and the guest memory system.
    Semantics follow the hardware model:

    - atoms within a molecule execute in parallel (reads see
      pre-molecule state; register writes and store-buffer pushes land
      at molecule end);
    - a faulting atom aborts its molecule with a native exception and
      leaves all state to be rolled back by CMS;
    - loads observe buffered stores (store-to-load forwarding);
    - commits are free (the paper's design goal), rollbacks cost a
      couple of branch-misprediction-equivalents, charged by CMS.

    Two debug interlocks catch code-generator bugs that real hardware
    would turn into silent wrong answers: molecule issue-constraint
    checking and operation-latency enforcement (the TM5800 has almost no
    hardware interlocks — "CMS guarantees correct operation by careful
    scheduling"). *)

type t = {
  regs : Regfile.t;
  sbuf : Storebuf.t;
  alias : Alias.t;
  mem : Machine.Mem.t;
  perf : Perf.t;
  mutable validate : bool;  (** check molecule constraints while executing *)
  mutable enforce_latency : bool;
  ready : int array;  (** per-register ready time (debug interlock) *)
  mutable max_molecules_per_run : int;
  mutable eff_buf : effect_ array;
      (** reusable staging buffer for molecule effects; grows on demand
          so the hot loop never conses a per-molecule list *)
  mutable eff_len : int;
  commit_write : int -> int -> int -> unit;
      (** pre-applied {!Machine.Mem.commit_write}; [commit] runs once
          per interpreted instruction, so the drain closure is built
          once here instead of per call *)
  bus_read : int -> int -> int;
      (** pre-applied {!Machine.Bus.read}, for the bytes a forwarding
          load takes from memory *)
}

and effect_ =
  (* Effects staged during a molecule, applied at molecule end. *)
  | Wreg of int * int
  | Push of { paddr : int; size : int; value : int }
  | Goto of int
  | Take_exit of int
  | Do_commit of int

let create ?(sbuf_capacity = 64) ?(alias_slots = 8) mem =
  {
    regs = Regfile.create ();
    sbuf = Storebuf.create ~capacity:sbuf_capacity ();
    alias = Alias.create ~slots:alias_slots ();
    mem;
    perf = Perf.create ();
    validate = false;
    enforce_latency = false;
    ready = Array.make Abi.num_regs 0;
    max_molecules_per_run = 50_000_000;
    eff_buf = Array.make 256 (Goto 0);
    eff_len = 0;
    commit_write = Machine.Mem.commit_write mem;
    bus_read = Machine.Bus.read mem.Machine.Mem.bus;
  }

(* Stage one effect, growing the buffer when full. *)
let push_eff t e =
  let cap = Array.length t.eff_buf in
  if t.eff_len = cap then begin
    let nb = Array.make (2 * cap) e in
    Array.blit t.eff_buf 0 nb 0 t.eff_len;
    t.eff_buf <- nb
  end;
  Array.unsafe_set t.eff_buf t.eff_len e;
  t.eff_len <- t.eff_len + 1

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
let rec do_load t ~vaddr ~size ~spec ~protect =
  ignore (spec : bool);
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
      v := !v lor (do_load t ~vaddr:(vaddr + i) ~size:1 ~spec ~protect lsl (8 * i))
    done;
    !v
  end

(* All faulting checks for one non-page-crossing store piece, at issue
   order; returns the physical address the piece will be pushed to.
   Shared with the closure compiler ({!Closure}) so the two execution
   engines cannot drift on fault semantics. *)
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

(* Stores only *stage* pushes (into the molecule effect buffer); the
   push itself happens at molecule end.  All faulting checks happen
   here, at issue. *)
let rec stage_store t ~vaddr ~size ~value ~spec ~check =
  if size <= Machine.Mem.page_room vaddr then begin
    let paddr = store_checks t ~vaddr ~size ~spec ~check in
    push_eff t (Push { paddr; size; value })
  end
  else
    for i = 0 to size - 1 do
      stage_store t
        ~vaddr:(vaddr + i)
        ~size:1
        ~value:((value lsr (8 * i)) land 0xff)
        ~spec ~check
    done

(* ------------------------------------------------------------------ *)
(* Atom evaluation                                                     *)
(* ------------------------------------------------------------------ *)

let host_alu op a b =
  match op with
  | Atom.HAdd -> mask32 (a + b)
  | HSub -> mask32 (a - b)
  | HAnd -> a land b
  | HOr -> a lor b
  | HXor -> a lxor b
  | HShl -> mask32 (a lsl (b land 31))
  | HShr -> a lsr (b land 31)
  | HSar -> mask32 (sext32 a asr (b land 31))
  | HMul -> mask32 (a * b)

let eval_xop op size fl a b =
  let open X86.Flags in
  match op with
  | Atom.XAdd -> add size fl a b
  | XAdc -> adc size fl a b
  | XSub -> sub size fl a b
  | XSbb -> sbb size fl a b
  | XAnd -> and_ size fl a b
  | XOr -> or_ size fl a b
  | XXor -> xor size fl a b
  | XShl -> shl size fl a b
  | XShr -> shr size fl a b
  | XSar -> sar size fl a b
  | XRol -> rol size fl a b
  | XRor -> ror size fl a b
  | XInc -> inc size fl a
  | XDec -> dec size fl a
  | XNeg -> neg size fl a
  | XNot -> pack (trunc size (lnot a)) fl
  | XTest -> test size fl a b
  | XCmp -> cmp size fl a b

let eval_cmp cmp a b =
  match cmp with
  | Atom.Ceq -> a = b
  | Cne -> a <> b
  | Cult -> a < b (* both masked unsigned *)
  | Cule -> a <= b
  | Cslt -> sext32 a < sext32 b
  | Csle -> sext32 a <= sext32 b

(* ------------------------------------------------------------------ *)
(* The main loop                                                       *)
(* ------------------------------------------------------------------ *)

let check_uses t idx atom =
  List.iter
    (fun r ->
      if t.ready.(r) > idx then
        failwith
          (Fmt.str "latency violation: r%d used at %d, ready at %d (%a)" r idx
             t.ready.(r) Atom.pp atom))
    (Atom.uses atom)

let note_defs t idx atom =
  let l = Atom.latency atom in
  List.iter (fun r -> t.ready.(r) <- idx + l) (Atom.defs atom)

(** Execute [code] until an exit, fault, interrupt or the molecule
    budget.  [irq_pending] is sampled between molecules, modeling
    asynchronous interrupt arrival (§3.3). *)
let run ?(irq_pending = fun () -> false) t (code : Code.t) =
  let get r = Regfile.get t.regs r in
  let src = function Atom.R r -> get r | Atom.I i -> mask32 i in
  if t.enforce_latency then Array.fill t.ready 0 Abi.num_regs 0;
  let budget = ref t.max_molecules_per_run in
  (* monotonic molecule time; the latency interlock must use time, not
     the molecule index, or loop back-edges look like violations *)
  let time = ref 0 in
  let rec step pc =
    if !budget <= 0 then Runaway
    else if irq_pending () then Interrupted
    else begin
      decr budget;
      incr time;
      let m = code.Code.molecules.(pc) in
      if t.validate then (
        match Molecule.check m with
        | Ok () -> ()
        | Error e -> failwith (Fmt.str "bad molecule %d: %s" pc e));
      t.perf.Perf.molecules <- t.perf.Perf.molecules + 1;
      t.perf.Perf.atoms <- t.perf.Perf.atoms + Array.length m;
      match exec_molecule !time m with
      | `Next -> step (pc + 1)
      | `Goto target -> step target
      | `Exit i -> Exited i
      | `Fault n -> Faulted n
    end
  and exec_molecule now m =
    (* Phase 1: evaluate all atoms against pre-molecule state, staging
       effects into the reusable buffer (program order). *)
    t.eff_len <- 0;
    match
      Array.iter
        (fun atom ->
          if t.enforce_latency then check_uses t now atom;
          match atom with
          | Atom.Nop -> t.perf.Perf.nops <- t.perf.Perf.nops + 1
          | MovI { rd; imm } -> push_eff t (Wreg (rd, mask32 imm))
          | MovR { rd; rs } -> push_eff t (Wreg (rd, get rs))
          | Alu { op; rd; a; b } ->
              push_eff t (Wreg (rd, host_alu op (get a) (src b)))
          | AluX { op; size; rd; a; b; fr; fw } ->
              let fl_in =
                if fr >= 0 && Atom.xop_reads_flags op b then get fr
                else X86.Flags.initial
              in
              let p = eval_xop op size fl_in (src a) (src b) in
              (match rd with
              | Some rd -> push_eff t (Wreg (rd, X86.Flags.result p))
              | None -> ());
              (match op with
              | Atom.XNot -> ()
              | _ when fw < 0 -> ()
              | _ -> push_eff t (Wreg (fw, X86.Flags.flags p)))
          | MulX { signed; size; rd_lo; rd_hi; a = ma; b = mb; fr = _; fw } ->
              let a = src ma and b = src mb in
              let fl_in = X86.Flags.initial in
              let p =
                if signed then X86.Flags.imul size fl_in a b
                else X86.Flags.mul size fl_in a b
              in
              push_eff t (Wreg (rd_lo, X86.Flags.result p));
              if fw >= 0 then push_eff t (Wreg (fw, X86.Flags.flags p));
              (match rd_hi with
              | Some r ->
                  let hi =
                    if signed then X86.Flags.imul_hi size a b
                    else X86.Flags.mul_hi size a b
                  in
                  push_eff t (Wreg (r, hi))
              | None -> ())
          | DivX { signed; size; rd_q; rd_r; hi; lo; divisor } ->
              let f = if signed then X86.Flags.idiv_q else X86.Flags.div_q in
              let l = get lo and d = src divisor in
              let q = f size (get hi) l d in
              if q < 0 then begin
                t.perf.Perf.x86_fault_atoms <-
                  t.perf.Perf.x86_fault_atoms + 1;
                fault (Nexn.X86_fault X86.Exn.DE)
              end;
              push_eff t (Wreg (rd_q, q));
              push_eff t (Wreg (rd_r, X86.Flags.div_rem size l d q))
          | SetCond { rd; cond; fr } ->
              push_eff t
                (Wreg (rd, if X86.Flags.eval_cond cond (get fr) then 1 else 0))
          | ExtField { rd; rs; shift; width; sign } ->
              let v = (get rs lsr shift) land ((1 lsl width) - 1) in
              let v =
                if sign && v land (1 lsl (width - 1)) <> 0 then
                  mask32 (v - (1 lsl width))
                else v
              in
              push_eff t (Wreg (rd, v))
          | InsField { rd; rs; shift; width } ->
              let m = (1 lsl width) - 1 in
              let v =
                get rd land lnot (m lsl shift)
                lor ((get rs land m) lsl shift)
              in
              push_eff t (Wreg (rd, mask32 v))
          | Load { rd; base; disp; size; spec; protect; check = _ } ->
              t.perf.Perf.loads <- t.perf.Perf.loads + 1;
              let vaddr = mask32 (get base + disp) in
              push_eff t (Wreg (rd, do_load t ~vaddr ~size ~spec ~protect))
          | Store { rs; base; disp; size; spec; check } ->
              t.perf.Perf.stores <- t.perf.Perf.stores + 1;
              let vaddr = mask32 (get base + disp) in
              stage_store t ~vaddr ~size ~value:(src rs) ~spec ~check
          | ArmRange { slot; base; disp; len } ->
              (* arm immediately (phase 1): in-molecule atom order is
                 program order, so stores in the same molecule already
                 see the armed range *)
              let rec arm vaddr remaining =
                if remaining > 0 then begin
                  let seg = min remaining (Machine.Mem.page_room vaddr) in
                  let paddr = translate t Machine.Mmu.Read vaddr in
                  Alias.arm t.alias ~slot ~paddr ~len:seg;
                  arm (vaddr + seg) (remaining - seg)
                end
              in
              (* multi-page ranges would need one slot per page; the
                 code generator splits them, so assert single-page *)
              arm (mask32 (get base + disp)) len
          | Br { target } -> push_eff t (Goto target)
          | BrCond { cond; fr; target } ->
              if X86.Flags.eval_cond cond (get fr) then
                push_eff t (Goto target)
          | BrCmp { cmp; a; b; target } ->
              if eval_cmp cmp (get a) (src b) then push_eff t (Goto target)
          | Commit n -> push_eff t (Do_commit n)
          | Exit i -> push_eff t (Take_exit i))
        m
    with
    | exception Fault_ n -> `Fault n
    | () ->
        (* Phase 2: apply, in staging order. *)
        let control = ref `Next in
        for i = 0 to t.eff_len - 1 do
          match Array.unsafe_get t.eff_buf i with
          | Wreg (r, v) -> Regfile.set t.regs r v
          | Push { paddr; size; value } -> (
              match Storebuf.push t.sbuf ~paddr ~size ~value with
              | Ok () -> ()
              | Error `Overflow ->
                  t.perf.Perf.sbuf_overflows <-
                    t.perf.Perf.sbuf_overflows + 1;
                  control := `Fault Nexn.Sbuf_overflow)
          | Goto tgt -> control := `Goto tgt
          | Take_exit i ->
              t.perf.Perf.exits_taken <- t.perf.Perf.exits_taken + 1;
              control := `Exit i
          | Do_commit n ->
              t.perf.Perf.x86_committed <- t.perf.Perf.x86_committed + n;
              commit t
        done;
        if t.enforce_latency then Array.iter (note_defs t now) m;
        !control
  in
  step 0
