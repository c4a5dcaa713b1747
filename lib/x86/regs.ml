(** General-purpose register names for the IA-32 subset.

    Registers are represented as plain integers 0..7 using the hardware
    encoding (the [reg] field of ModRM).  8-bit registers reuse the same
    numbering: 0..3 are AL..BL (low byte of GPR 0..3) and 4..7 are AH..BH
    (bits 8..15 of GPR 0..3), exactly as in IA-32. *)

type t = int

let eax = 0
let ecx = 1
let edx = 2
let ebx = 3
let esp = 4
let ebp = 5
let esi = 6
let edi = 7

let all = [ eax; ecx; edx; ebx; esp; ebp; esi; edi ]

let name32 = [| "eax"; "ecx"; "edx"; "ebx"; "esp"; "ebp"; "esi"; "edi" |]
let name8 = [| "al"; "cl"; "dl"; "bl"; "ah"; "ch"; "dh"; "bh" |]

let pp32 fmt r = Fmt.string fmt name32.(r)
let pp8 fmt r = Fmt.string fmt name8.(r)

(** The 32-bit register backing 8-bit register [r], and the bit shift
    of the byte within it (0 for AL..BL, 8 for AH..BH). *)
let r8_gpr r = r land 3
let r8_shift r = (r land 4) lsl 1

(** 8-bit register [r]'s byte out of [v32], its backing GPR's value. *)
let get8 r v32 = (v32 lsr r8_shift r) land 0xff

(** The backing GPR's new value after storing byte [v] into [r]. *)
let set8 r v32 v =
  let sh = r8_shift r in
  v32 land lnot (0xff lsl sh) lor ((v land 0xff) lsl sh)
