(** A block of scheduled native code: molecules plus an exit table.

    Branch targets inside [molecules] are molecule indices.  Exits
    describe how control leaves the block: the next x86 EIP (constant,
    or read from a register for indirect flow), how many x86
    instructions retired on the path to this exit, and the mutable
    chaining state the CMS dispatcher maintains (paper §2: exits start
    on the "no chain" path and are patched to branch directly to the
    next translation once it exists). *)

type target = Const of int | FromReg of Atom.reg

type chain_state =
  | Unchained  (** not yet linked; dispatcher does a lookup *)
  | Chained of int  (** linked to translation id *)
  | NoChain  (** never chain (e.g. indirect branches, interp exits) *)

type exit_kind =
  | Enext  (** continue at the target EIP *)
  | Einterp_one
      (** interpret exactly one x86 instruction at the target EIP, then
          continue (zero-instruction translations, interp-only insns) *)
  | Eselfcheck_fail
      (** the embedded self-check found the x86 code bytes changed *)

type exit = {
  target : target;
  kind : exit_kind;
  x86_retired : int;  (** x86 instructions completed on this path *)
  mutable chain : chain_state;
}

type t = { molecules : Molecule.t array; exits : exit array }

(** Total atoms, the code-size metric for the self-checking experiment
    (§3.6.3 reports code-size growth in percent). *)
let atom_count t =
  Array.fold_left (fun acc m -> acc + Array.length m) 0 t.molecules

let pp fmt t =
  Array.iteri (fun i m -> Fmt.pf fmt "@[%3d: %a@]@." i Molecule.pp m) t.molecules;
  Array.iteri
    (fun i e ->
      Fmt.pf fmt "exit %d: %s -> %s (%d x86)@." i
        (match e.kind with
        | Enext -> "next"
        | Einterp_one -> "interp1"
        | Eselfcheck_fail -> "selfcheck-fail")
        (match e.target with
        | Const c -> Fmt.str "0x%x" c
        | FromReg r -> Fmt.str "r%d" r)
        e.x86_retired)
    t.exits
