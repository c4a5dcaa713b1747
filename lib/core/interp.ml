(** The x86 interpreter.

    Decodes and executes one instruction at a time "with careful
    attention to memory access ordering and precise reproduction of
    faults, while collecting data on execution frequency, branch
    directions, and memory-mapped I/O operations" (paper §2).

    It is also the recovery mechanism: after a translation rolls back,
    CMS re-executes the region here in original program order, which
    both decides whether a fault was genuine and guarantees forward
    progress (paper §3.2).

    Precision argument: each instruction mutates only the working
    register copies until its final commit; memory writes are ordered
    after every fault point of the instruction.  A fault therefore rolls
    back to the exact x86 state at the instruction boundary. *)

open X86
module F = Flags

(* Decoded-instruction cache geometry: direct-mapped on low physical
   address bits. *)
let dc_bits = 12
let dc_slots = 1 lsl dc_bits
let dc_index_mask = dc_slots - 1

type t = {
  cpu : Cpu.t;
  profile : Profile.t;
  stats : Stats.t;
  (* --- decoded-instruction cache (host fast path) ---
     Keyed by the physical address of the instruction's first byte and
     validated against the virtual EIP it was decoded at (branch
     targets inside [Decode.fetched] are absolute, computed from the
     virtual PC, so an aliased mapping must miss).  Entries hold only
     single-page instructions from plain-RAM pages: MMIO fetches must
     not be elided, and the single-page restriction means the hit-path
     translation of the first byte covers every byte the baseline
     decoder would have fetched.  Invalidation: any write landing on a
     flagged page ({!Machine.Mem.note_write} — ordered guest writes,
     committed translation stores, DMA, image loads) kills the page's
     entries, and a translation-cache flush clears the whole cache. *)
  dc_on : bool;
  dc_tags : int array;  (** physical first-byte address; -1 = empty *)
  dc_vaddrs : int array;  (** virtual EIP the entry was decoded at *)
  dc_insns : Decode.fetched array;
  dc_pages : (int, int list ref) Hashtbl.t;  (** ppn -> slot indices *)
}

let dc_dummy = { Decode.insn = Insn.Nop; len = 1; imm32_off = None }

let create cpu ~profile ~stats ~cfg =
  let t =
    {
      cpu;
      profile;
      stats;
      dc_on = cfg.Config.host_fast_paths;
      dc_tags = Array.make dc_slots (-1);
      dc_vaddrs = Array.make dc_slots 0;
      dc_insns = Array.make dc_slots dc_dummy;
      dc_pages = Hashtbl.create 32;
    }
  in
  (* writes landing on pages with cached decodes invalidate them *)
  let mem = Cpu.mem cpu in
  (mem.Machine.Mem.on_code_write <-
     fun ~ppn ->
       (match Hashtbl.find_opt t.dc_pages ppn with
       | Some l ->
           List.iter
             (fun slot ->
               (* the slot may have been reused by another page since *)
               if t.dc_tags.(slot) lsr Machine.Mmu.page_shift = ppn then
                 t.dc_tags.(slot) <- -1)
             !l;
           Hashtbl.remove t.dc_pages ppn
       | None -> ());
       t.stats.Stats.dcache_invalidations <-
         t.stats.Stats.dcache_invalidations + 1);
  t

(** Drop every decoded-instruction cache entry (translation-cache
    flush rides the same big-hammer event). *)
let dcache_clear t =
  Array.fill t.dc_tags 0 dc_slots (-1);
  let mem = Cpu.mem t.cpu in
  Hashtbl.iter
    (fun ppn _ -> Machine.Mem.unmark_code_page mem ~ppn)
    t.dc_pages;
  Hashtbl.reset t.dc_pages;
  t.stats.Stats.dcache_invalidations <-
    t.stats.Stats.dcache_invalidations + 1

(** Number of live cache entries (test introspection). *)
let dcache_population t =
  Array.fold_left (fun n tag -> if tag >= 0 then n + 1 else n) 0 t.dc_tags

(* Decode the instruction at committed [pc], through the cache when the
   fast paths are on.  Fault behavior is identical to a raw decode: the
   first-byte Exec translation runs unconditionally (so #PF on an
   unmapped EIP is reproduced), and misses decode from memory byte by
   byte exactly as before. *)
let decode_at t pc =
  let mem = Cpu.mem t.cpu in
  if not t.dc_on then Decode.decode ~fetch:(Machine.Mem.fetch8 mem) pc
  else begin
    let paddr = Machine.Mmu.translate mem.Machine.Mem.mmu Machine.Mmu.Exec pc in
    let slot = paddr land dc_index_mask in
    if
      Array.unsafe_get t.dc_tags slot = paddr
      && Array.unsafe_get t.dc_vaddrs slot = pc
    then begin
      t.stats.Stats.dcache_hits <- t.stats.Stats.dcache_hits + 1;
      Array.unsafe_get t.dc_insns slot
    end
    else begin
      t.stats.Stats.dcache_misses <- t.stats.Stats.dcache_misses + 1;
      let f = Decode.decode ~fetch:(Machine.Mem.fetch8 mem) pc in
      if
        (pc land Machine.Mmu.page_mask) + f.Decode.len <= Machine.Mmu.page_size
        && Machine.Mem.code_page_cacheable mem paddr
      then begin
        Array.unsafe_set t.dc_tags slot paddr;
        Array.unsafe_set t.dc_vaddrs slot pc;
        Array.unsafe_set t.dc_insns slot f;
        Machine.Mem.mark_code_page mem paddr;
        let ppn = paddr lsr Machine.Mmu.page_shift in
        match Hashtbl.find_opt t.dc_pages ppn with
        | Some l -> l := slot :: !l
        | None -> Hashtbl.add t.dc_pages ppn (ref [ slot ])
      end;
      f
    end
  end

type outcome =
  | Stepped  (** one instruction retired *)
  | Halted  (** CPU is halted; nothing executed *)
  | Faulted of Exn.fault  (** instruction faulted; fault was delivered *)

(* ------------------------------------------------------------------ *)
(* Operand access                                                      *)
(* ------------------------------------------------------------------ *)

let mask32 v = v land 0xffffffff

let ea cpu (m : Insn.mem) =
  let b = match m.base with Some r -> Cpu.gpr cpu r | None -> 0 in
  let i =
    match m.index with Some (r, s) -> Cpu.gpr cpu r * s | None -> 0
  in
  mask32 (b + i + m.disp)

let mem_read cpu ~size addr = Machine.Mem.read (Cpu.mem cpu) ~size addr
let mem_write cpu ~size addr v = Machine.Mem.write (Cpu.mem cpu) ~size addr v

let read_r8 cpu r = Regs.get8 r (Cpu.gpr cpu (Regs.r8_gpr r))

let write_r8 cpu r v =
  let g = Regs.r8_gpr r in
  Cpu.set_gpr cpu g (Regs.set8 r (Cpu.gpr cpu g) v)

let read_rm cpu sz (rm : Insn.rm) =
  match (sz, rm) with
  | Insn.S32, Insn.R r -> Cpu.gpr cpu r
  | Insn.S8, Insn.R r -> read_r8 cpu r
  | Insn.S32, Insn.M m -> mem_read cpu ~size:4 (ea cpu m)
  | Insn.S8, Insn.M m -> mem_read cpu ~size:1 (ea cpu m)

let write_rm cpu sz (rm : Insn.rm) v =
  match (sz, rm) with
  | Insn.S32, Insn.R r -> Cpu.set_gpr cpu r v
  | Insn.S8, Insn.R r -> write_r8 cpu r v
  | Insn.S32, Insn.M m -> mem_write cpu ~size:4 (ea cpu m) v
  | Insn.S8, Insn.M m -> mem_write cpu ~size:1 (ea cpu m) v

let read_reg cpu sz r =
  match sz with Insn.S32 -> Cpu.gpr cpu r | Insn.S8 -> read_r8 cpu r

let write_reg cpu sz r v =
  match sz with Insn.S32 -> Cpu.set_gpr cpu r v | Insn.S8 -> write_r8 cpu r v

let push32 cpu v =
  let esp = mask32 (Cpu.gpr cpu Regs.esp - 4) in
  mem_write cpu ~size:4 esp v;
  Cpu.set_gpr cpu Regs.esp esp

let pop32 cpu =
  let esp = Cpu.gpr cpu Regs.esp in
  let v = mem_read cpu ~size:4 esp in
  Cpu.set_gpr cpu Regs.esp (mask32 (esp + 4));
  v

(* ------------------------------------------------------------------ *)
(* Instruction semantics                                               *)
(* ------------------------------------------------------------------ *)

(* The flag operations return {!F.packed} results; the per-group
   dispatch is a direct [match], so no closure is built or applied. *)
let arith op sz fl a b =
  match op with
  | Insn.Add -> F.add sz fl a b
  | Or -> F.or_ sz fl a b
  | Adc -> F.adc sz fl a b
  | Sbb -> F.sbb sz fl a b
  | And -> F.and_ sz fl a b
  | Sub -> F.sub sz fl a b
  | Xor -> F.xor sz fl a b
  | Cmp -> F.cmp sz fl a b
(* Cmp: result discarded via writes_result below *)

let arith_writes_result = function Insn.Cmp -> false | _ -> true

let shift op sz fl a count =
  match op with
  | Insn.Shl -> F.shl sz fl a count
  | Shr -> F.shr sz fl a count
  | Sar -> F.sar sz fl a count
  | Rol -> F.rol sz fl a count
  | Ror -> F.ror sz fl a count

(* Execute the REP-able string ops.  Each iteration is an architectural
   boundary: registers are updated per iteration and the whole
   instruction can pause with EIP still pointing at itself, which is how
   x86 makes REP interruptible. *)
let exec_strop t pc ~next ~rep ~op ~size =
  let cpu = t.cpu in
  let bytes = match size with Insn.S8 -> 1 | S32 -> 4 in
  let one () =
    (match op with
    | Insn.Movs ->
        let v = mem_read cpu ~size:bytes (Cpu.gpr cpu Regs.esi) in
        mem_write cpu ~size:bytes (Cpu.gpr cpu Regs.edi) v;
        Cpu.set_gpr cpu Regs.esi (mask32 (Cpu.gpr cpu Regs.esi + bytes))
    | Insn.Stos ->
        let v =
          match size with
          | Insn.S8 -> read_r8 cpu 0 (* AL *)
          | S32 -> Cpu.gpr cpu Regs.eax
        in
        mem_write cpu ~size:bytes (Cpu.gpr cpu Regs.edi) v);
    Cpu.set_gpr cpu Regs.edi (mask32 (Cpu.gpr cpu Regs.edi + bytes))
  in
  if not rep then one ()
  else begin
    (* Each completed iteration commits with EIP still on the REP
       instruction, so a fault in iteration k resumes at iteration k
       after the handler IRETs — x86's restartable-REP semantics. *)
    let iters = ref 0 in
    let continue_ = ref (Cpu.gpr cpu Regs.ecx <> 0) in
    while !continue_ do
      one ();
      Cpu.set_gpr cpu Regs.ecx (mask32 (Cpu.gpr cpu Regs.ecx - 1));
      incr iters;
      (* charge per-iteration interpretation cost beyond the base *)
      Stats.charge t.stats 3;
      if Cpu.gpr cpu Regs.ecx = 0 then begin
        continue_ := false;
        Cpu.set_eip cpu next
      end
      else begin
        Cpu.set_eip cpu pc;
        Cpu.commit cpu;
        if !iters land 63 = 0 && Cpu.irq_deliverable cpu then
          (* pause: EIP stays on the REP instruction; resume after IRQ *)
          continue_ := false
      end
    done
  end

let exec_insn t pc (f : Decode.fetched) =
  let cpu = t.cpu in
  match f.Decode.insn with
  | Insn.Arith (op, sz, ops) -> (
      match ops with
      | Insn.RM_R (rm, r) ->
          let a = read_rm cpu sz rm in
          let p = arith op sz (Cpu.eflags cpu) a (read_reg cpu sz r) in
          if arith_writes_result op then write_rm cpu sz rm (F.result p);
          Cpu.set_eflags cpu (F.flags p)
      | Insn.R_RM (r, rm) ->
          let b = read_rm cpu sz rm in
          let p = arith op sz (Cpu.eflags cpu) (read_reg cpu sz r) b in
          if arith_writes_result op then write_reg cpu sz r (F.result p);
          Cpu.set_eflags cpu (F.flags p)
      | Insn.RM_I (rm, i) ->
          let p = arith op sz (Cpu.eflags cpu) (read_rm cpu sz rm) i in
          if arith_writes_result op then write_rm cpu sz rm (F.result p);
          Cpu.set_eflags cpu (F.flags p))
  | Insn.Test (sz, rm, src) ->
      let a = read_rm cpu sz rm in
      let b =
        match src with Insn.T_R r -> read_reg cpu sz r | Insn.T_I i -> i
      in
      Cpu.set_eflags cpu (F.flags (F.test sz (Cpu.eflags cpu) a b))
  | Insn.Mov (sz, ops) -> (
      match ops with
      | Insn.RM_R (rm, r) -> write_rm cpu sz rm (read_reg cpu sz r)
      | Insn.R_RM (r, rm) -> write_reg cpu sz r (read_rm cpu sz rm)
      | Insn.RM_I (rm, i) -> write_rm cpu sz rm i)
  | Insn.Movx { sign; dst; src } ->
      let v = read_rm cpu Insn.S8 src in
      let v = if sign then F.sext Insn.S8 v land 0xffffffff else v in
      Cpu.set_gpr cpu dst v
  | Insn.Lea (r, m) -> Cpu.set_gpr cpu r (ea cpu m)
  | Insn.Xchg (sz, rm, r) ->
      let a = read_rm cpu sz rm and b = read_reg cpu sz r in
      write_rm cpu sz rm b;
      write_reg cpu sz r a
  | Insn.Inc (sz, rm) ->
      let p = F.inc sz (Cpu.eflags cpu) (read_rm cpu sz rm) in
      write_rm cpu sz rm (F.result p);
      Cpu.set_eflags cpu (F.flags p)
  | Insn.Dec (sz, rm) ->
      let p = F.dec sz (Cpu.eflags cpu) (read_rm cpu sz rm) in
      write_rm cpu sz rm (F.result p);
      Cpu.set_eflags cpu (F.flags p)
  | Insn.Not (sz, rm) ->
      write_rm cpu sz rm (F.trunc sz (lnot (read_rm cpu sz rm)))
  | Insn.Neg (sz, rm) ->
      let p = F.neg sz (Cpu.eflags cpu) (read_rm cpu sz rm) in
      write_rm cpu sz rm (F.result p);
      Cpu.set_eflags cpu (F.flags p)
  | Insn.Shift (op, sz, rm, count) ->
      let c =
        match count with
        | Insn.C1 -> 1
        | Insn.Cimm i -> i
        | Insn.Ccl -> Cpu.gpr cpu Regs.ecx land 0xff
      in
      let p = shift op sz (Cpu.eflags cpu) (read_rm cpu sz rm) c in
      write_rm cpu sz rm (F.result p);
      Cpu.set_eflags cpu (F.flags p)
  | Insn.Mul (sz, rm) | Insn.Imul1 (sz, rm) ->
      let signed = match f.Decode.insn with Insn.Imul1 _ -> true | _ -> false in
      (* AL or EAX times r/m; the product lands in AH:AL or EDX:EAX *)
      let a = read_reg cpu sz Regs.eax and b = read_rm cpu sz rm in
      let fl = Cpu.eflags cpu in
      let p = if signed then F.imul sz fl a b else F.mul sz fl a b in
      write_reg cpu sz Regs.eax (F.result p);
      write_reg cpu sz
        (match sz with Insn.S8 -> 4 (* AH *) | Insn.S32 -> Regs.edx)
        (if signed then F.imul_hi sz a b else F.mul_hi sz a b);
      Cpu.set_eflags cpu (F.flags p)
  | Insn.Imul2 (r, rm) ->
      let p =
        F.imul Insn.S32 (Cpu.eflags cpu) (Cpu.gpr cpu r)
          (read_rm cpu Insn.S32 rm)
      in
      Cpu.set_gpr cpu r (F.result p);
      Cpu.set_eflags cpu (F.flags p)
  | Insn.Div (sz, rm) | Insn.Idiv (sz, rm) -> (
      let signed = match f.Decode.insn with Insn.Idiv _ -> true | _ -> false in
      let g = if signed then F.idiv_q else F.div_q in
      let divisor = read_rm cpu sz rm in
      match sz with
      | Insn.S8 ->
          (* dividend = AX = AH:AL *)
          let lo = read_r8 cpu 0 in
          let q = g Insn.S8 (read_r8 cpu 4) lo divisor in
          if q < 0 then raise (Exn.Fault Exn.DE);
          write_r8 cpu 0 q;
          write_r8 cpu 4 (F.div_rem Insn.S8 lo divisor q)
      | Insn.S32 ->
          let lo = Cpu.gpr cpu Regs.eax in
          let q = g Insn.S32 (Cpu.gpr cpu Regs.edx) lo divisor in
          if q < 0 then raise (Exn.Fault Exn.DE);
          Cpu.set_gpr cpu Regs.eax q;
          Cpu.set_gpr cpu Regs.edx (F.div_rem Insn.S32 lo divisor q))
  | Insn.Cdq ->
      Cpu.set_gpr cpu Regs.edx
        (if Cpu.gpr cpu Regs.eax land 0x80000000 <> 0 then 0xffffffff else 0)
  | Insn.Push src ->
      let v =
        match src with
        | Insn.PushR r -> Cpu.gpr cpu r
        | Insn.PushI i -> mask32 i
        | Insn.PushM m -> mem_read cpu ~size:4 (ea cpu m)
      in
      push32 cpu v
  | Insn.Pop rm -> (
      let v = pop32 cpu in
      match rm with
      | Insn.R r -> Cpu.set_gpr cpu r v
      | Insn.M m -> mem_write cpu ~size:4 (ea cpu m) v)
  | Insn.Pushf ->
      push32 cpu
        (Cpu.eflags cpu lor (if cpu.Cpu.iflag then F.if_mask else 0))
  | Insn.Popf ->
      (* status bits into the native flags register; IF CMS-side *)
      let v = pop32 cpu in
      Cpu.set_eflags cpu (v land F.status_mask lor F.reserved);
      cpu.Cpu.iflag <- v land F.if_mask <> 0
  | Insn.Jcc (cc, target) ->
      let taken = F.eval_cond cc (Cpu.eflags cpu) in
      Profile.note_branch t.profile pc ~taken;
      if taken then Cpu.set_eip cpu target
  | Insn.Setcc (cc, rm) ->
      write_rm cpu Insn.S8 rm (if F.eval_cond cc (Cpu.eflags cpu) then 1 else 0)
  | Insn.Jmp target -> Cpu.set_eip cpu target
  | Insn.JmpInd rm -> Cpu.set_eip cpu (read_rm cpu Insn.S32 rm)
  | Insn.Call target ->
      push32 cpu (Cpu.eip cpu);
      Cpu.set_eip cpu target
  | Insn.CallInd rm ->
      let target = read_rm cpu Insn.S32 rm in
      push32 cpu (Cpu.eip cpu);
      Cpu.set_eip cpu target
  | Insn.Ret n ->
      let r = pop32 cpu in
      Cpu.set_gpr cpu Regs.esp (mask32 (Cpu.gpr cpu Regs.esp + n));
      Cpu.set_eip cpu r
  | Insn.Int3 ->
      (* trap: pushed EIP is the next instruction (already in EIP) *)
      Cpu.deliver cpu ~vector:(Exn.vector Exn.BP) ~error_code:None
  | Insn.Int v -> Cpu.deliver cpu ~vector:v ~error_code:None
  | Insn.Iret ->
      let neip = pop32 cpu in
      let nfl = pop32 cpu in
      Cpu.set_eip cpu neip;
      Cpu.set_eflags cpu (nfl land F.status_mask lor F.reserved);
      cpu.Cpu.iflag <- nfl land F.if_mask <> 0
  | Insn.In (sz, port) ->
      let p =
        match port with
        | Insn.PortImm p -> p
        | Insn.PortDx -> Cpu.gpr cpu Regs.edx land 0xffff
      in
      let v = Machine.Bus.port_read (Cpu.bus cpu) p in
      (match sz with
      | Insn.S8 -> write_r8 cpu 0 v
      | Insn.S32 -> Cpu.set_gpr cpu Regs.eax (mask32 v))
  | Insn.Out (sz, port) ->
      let p =
        match port with
        | Insn.PortImm p -> p
        | Insn.PortDx -> Cpu.gpr cpu Regs.edx land 0xffff
      in
      let v =
        match sz with
        | Insn.S8 -> read_r8 cpu 0
        | Insn.S32 -> Cpu.gpr cpu Regs.eax
      in
      Machine.Bus.port_write (Cpu.bus cpu) p v
  | Insn.Hlt -> cpu.Cpu.halted <- true
  | Insn.Nop -> ()
  | Insn.Cli -> cpu.Cpu.iflag <- false
  | Insn.Sti -> cpu.Cpu.iflag <- true
  | Insn.Strop { rep; op; size } ->
      exec_strop t pc ~next:(mask32 (pc + f.Decode.len)) ~rep ~op ~size
  | Insn.Lidt m ->
      cpu.Cpu.idt_base <- mem_read cpu ~size:4 (ea cpu m)

(* ------------------------------------------------------------------ *)
(* The step function                                                   *)
(* ------------------------------------------------------------------ *)

(* One instruction at [pc], the committed EIP, already profiled. *)
let step_at t pc =
  let cpu = t.cpu in
  let bus = Cpu.bus cpu in
  let mmio_before = bus.Machine.Bus.mmio_reads + bus.Machine.Bus.mmio_writes in
  match
    let f = decode_at t pc in
    Cpu.set_eip cpu (mask32 (pc + f.Decode.len));
    exec_insn t pc f
  with
  | () ->
      Cpu.commit cpu;
      if bus.Machine.Bus.mmio_reads + bus.Machine.Bus.mmio_writes
         <> mmio_before
      then Profile.note_mmio t.profile pc;
      t.stats.Stats.x86_interp <- t.stats.Stats.x86_interp + 1;
      Stats.charge t.stats Config.interp_cost;
      Stepped
  | exception Exn.Fault fault ->
      (* discard partial working state; memory writes are ordered
         after all fault points, so none have happened *)
      Cpu.rollback cpu;
      t.stats.Stats.x86_interp <- t.stats.Stats.x86_interp + 1;
      Stats.charge t.stats Config.interp_cost;
      Cpu.deliver_fault cpu fault;
      Faulted fault

(** Execute exactly one x86 instruction at the committed EIP: decode,
    execute, commit; or fault, roll back, deliver.  Profiles execution
    counts, branch bias and MMIO usage on the way. *)
let step t =
  if t.cpu.Cpu.halted then Halted
  else begin
    let pc = Cpu.committed_eip t.cpu in
    Profile.bump t.profile pc;
    step_at t pc
  end

(** {!step} for a caller that has just read the committed EIP's
    profile counter [c] with {!Profile.counter} (and changed no profile
    state since): the count is bumped through [c], with no second
    lookup.  The CPU must not be halted. *)
let step_counted t c =
  let pc = Cpu.committed_eip t.cpu in
  Profile.bump_counter t.profile pc c;
  step_at t pc
