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

let exit_count t = Array.length t.exits
let molecule_count t = Array.length t.molecules

(** Total atoms, the code-size metric for the self-checking experiment
    (§3.6.3 reports code-size growth in percent). *)
let atom_count t =
  Array.fold_left (fun acc m -> acc + Array.length m) 0 t.molecules

(** Validate the whole block: molecule issue constraints, branch
    targets in range, and every register an atom reads or writes (and
    every register an exit reads its target from) inside
    [\[0, Abi.num_regs)].  Every install path gates on this, so the
    closure compiler never meets a register it cannot resolve. *)
let validate t =
  let n = Array.length t.molecules in
  let nx = Array.length t.exits in
  let problems = ref [] in
  let bad_reg r = r < 0 || r >= Abi.num_regs in
  Array.iteri
    (fun i m ->
      let problem fmt =
        Fmt.kstr
          (fun p -> problems := Fmt.str "molecule %d: %s" i p :: !problems)
          fmt
      in
      (match Molecule.check m with Ok () -> () | Error e -> problem "%s" e);
      Array.iter
        (fun a ->
          List.iter
            (fun r ->
              if bad_reg r then
                problem "register r%d outside the host register file" r)
            (Atom.uses a @ Atom.defs a);
          match a with
          | Atom.Br { target } | BrCond { target; _ } | BrCmp { target; _ } ->
              if target < 0 || target >= n then problem "branch out of range"
          | Atom.Exit e ->
              if e < 0 || e >= nx then problem "exit out of range"
          | _ -> ())
        m)
    t.molecules;
  Array.iteri
    (fun i e ->
      match e.target with
      | FromReg r when bad_reg r ->
          problems :=
            Fmt.str
              "exit %d: target register r%d outside the host register file" i r
            :: !problems
      | _ -> ())
    t.exits;
  match !problems with [] -> Ok () | ps -> Error (String.concat "; " ps)

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
