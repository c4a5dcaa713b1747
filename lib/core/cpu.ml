(** Guest CPU state, held in the VLIW register file.

    There is a single source of truth for x86 architectural state: the
    dedicated (shadowed) native registers defined by {!Vliw.Abi}.  The
    interpreter manipulates the working copies and commits after every
    instruction; translations run against the same registers and commit
    at translation exits; rollback restores the last committed state.

    The interrupt table base lives CMS-side: LIDT is interpreter-only,
    so it can never change inside a translation window and needs no
    shadowing. *)

exception Panic of string
(** unrecoverable emulation condition (e.g. fault while delivering a
    fault — a real CPU would triple-fault and reset) *)

type t = {
  exec : Vliw.Exec.t;
  plat : Machine.Platform.t;
  mutable idt_base : int;
  mutable halted : bool;
  mutable iflag : bool;
      (** the EFLAGS.IF bit.  Kept CMS-side, like the IDT base: every
          instruction that can change it is interpreter-only, so it is
          constant within any translation window — which is what lets
          the native flags register hold pure condition codes and makes
          dead-condition-code elimination sound *)
}

let create plat ~(cfg : Config.t) =
  let exec =
    Vliw.Exec.create ~sbuf_capacity:cfg.Config.sbuf_capacity
      ~alias_slots:cfg.Config.alias_slots plat.Machine.Platform.mem
  in
  { exec; plat; idt_base = 0; halted = false; iflag = false }

let mem t = t.plat.Machine.Platform.mem
let bus t = (mem t).Machine.Mem.bus
let regs t = t.exec.Vliw.Exec.regs

(* Working-copy accessors (interpreter's view during an instruction). *)
let gpr t r = Vliw.Regfile.get (regs t) (Vliw.Abi.gpr r)
let set_gpr t r v = Vliw.Regfile.set (regs t) (Vliw.Abi.gpr r) v
let eip t = Vliw.Regfile.get (regs t) Vliw.Abi.eip
let set_eip t v = Vliw.Regfile.set (regs t) Vliw.Abi.eip v
let eflags t = Vliw.Regfile.get (regs t) Vliw.Abi.eflags
let set_eflags t v = Vliw.Regfile.set (regs t) Vliw.Abi.eflags v

(* Committed state (the official x86 state between instructions). *)
let committed_eip t = Vliw.Regfile.get_committed (regs t) Vliw.Abi.eip
let committed_eflags t = Vliw.Regfile.get_committed (regs t) Vliw.Abi.eflags

let commit t = Vliw.Exec.commit t.exec
let rollback t = Vliw.Exec.rollback t.exec

(** Reset to a boot state: registers zero, flags initial, execution at
    [entry], interrupts disabled until the guest sets up an IDT. *)
let reset t ~entry ~stack =
  let r = regs t in
  for i = 0 to Vliw.Abi.num_regs - 1 do
    Vliw.Regfile.set_committed r i 0
  done;
  Vliw.Regfile.set_committed r (Vliw.Abi.gpr X86.Regs.esp) stack;
  Vliw.Regfile.set_committed r Vliw.Abi.eip entry;
  Vliw.Regfile.set_committed r Vliw.Abi.eflags X86.Flags.initial;
  t.halted <- false;
  t.idt_base <- 0;
  t.iflag <- false

(* ------------------------------------------------------------------ *)
(* Exception / interrupt delivery                                      *)
(* ------------------------------------------------------------------ *)

(* All delivery work happens on a consistent (committed) state; any
   nested fault here is a double fault -> panic. *)
let push32 t v =
  let esp = (gpr t X86.Regs.esp - 4) land 0xffffffff in
  Machine.Mem.write (mem t) ~size:4 esp v;
  set_gpr t X86.Regs.esp esp

(** The full architectural EFLAGS value: condition codes from the
    native flags register plus the CMS-side system bits. *)
let arch_eflags t =
  committed_eflags t lor (if t.iflag then X86.Flags.if_mask else 0)

(** Deliver interrupt/exception [vector] through the guest IDT.  The
    committed EIP must already be the value x86 semantics require on the
    handler's stack (the faulting instruction for faults, the next
    instruction for traps and external interrupts). *)
let deliver t ~vector ~error_code =
  match
    let handler =
      Machine.Mem.read (mem t) ~size:4 ((t.idt_base + (vector * 4)) land 0xffffffff)
    in
    (* Simulator guard: a guest jumping through an uninstalled vector
       would wander into zeroed memory; fail loudly instead (real
       hardware would execute garbage — nothing useful to model). *)
    if handler = 0 then
      raise (Panic (Fmt.str "null handler for vector %d (IDT not set up?)" vector));
    push32 t (eflags t lor (if t.iflag then X86.Flags.if_mask else 0));
    push32 t (eip t);
    (match error_code with Some c -> push32 t c | None -> ());
    t.iflag <- false;
    set_eip t handler;
    t.halted <- false;
    commit t
  with
  | () -> ()
  | exception X86.Exn.Fault f ->
      raise
        (Panic
           (Fmt.str "double fault: %a while delivering vector %d" X86.Exn.pp f
              vector))

(** Deliver an architectural fault raised by the current instruction.
    The working state has already been rolled back to the instruction
    boundary, so EIP points at the faulting instruction, as x86
    requires. *)
let deliver_fault t (f : X86.Exn.fault) =
  deliver t ~vector:(X86.Exn.vector f) ~error_code:(X86.Exn.error_code f)

(** Are external interrupts deliverable right now? *)
let irq_deliverable t =
  t.iflag && Machine.Irq.has_pending t.plat.Machine.Platform.irq
