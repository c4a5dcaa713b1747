(** Register-use convention between CMS and the VLIW hardware.

    The Crusoe assigns the architectural x86 registers to dedicated
    native registers, with an ample set left for CMS (paper §2).  All
    registers holding x86 state are shadowed (working + shadow copy);
    temporaries above [shadow_count] are not, because they are dead at
    every commit boundary by construction. *)

let num_regs = 64

(* r0..r7: the eight x86 GPRs, same numbering as [X86.Regs]. *)
let gpr (r : X86.Regs.t) : int = r

(* r8: x86 EIP (committed value = address of next x86 instruction). *)
let eip = 8

(* r9: x86 EFLAGS. *)
let eflags = 9

(* r10..r11: reserved shadowed scratch (available to future features). *)
let shadow_count = 12

(* r12..r63: CMS temporaries, not shadowed. *)
let tmp_base = 12
