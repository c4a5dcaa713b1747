(** Molecules: VLIW instruction words bundling 1–4 atoms.

    The TM5800 issues 2- or 4-atom molecules to a subset of five
    functional units: two ALUs, one memory unit, one FP/media unit and
    one branch unit (paper §2).  {!check} states those issue
    constraints; the translation verifier applies it to every molecule
    once, before a block is installed, and nothing checks them at run
    time.  Atoms in one molecule execute in parallel: all reads
    observe pre-molecule state. *)

type t = Atom.t array

let max_slots = 4

let nop : t = [| Atom.Nop |]

(** Check issue constraints; returns an error description on violation. *)
let check (m : t) =
  if Array.length m = 0 then Error "empty molecule"
  else if Array.length m > max_slots then Error "too many atoms"
  else begin
    let alu = ref 0 and mem = ref 0 and fpm = ref 0 and br = ref 0 in
    Array.iter
      (fun a ->
        match Atom.unit_of a with
        | Atom.UAlu -> incr alu
        | UMem -> incr mem
        | UFpm -> incr fpm
        | UBr -> incr br
        | UFree -> ())
      m;
    if !alu > 2 then Error "more than 2 ALU atoms"
    else if !mem > 1 then Error "more than 1 memory atom"
    else if !fpm > 1 then Error "more than 1 FP/media atom"
    else if !br > 1 then Error "more than 1 branch atom"
    else begin
      (* No two atoms may define the same register. *)
      let defs = Array.to_list m |> List.concat_map Atom.defs in
      let sorted = List.sort compare defs in
      let rec dup = function
        | a :: b :: _ when a = b -> true
        | _ :: tl -> dup tl
        | [] -> false
      in
      if dup sorted then Error "two atoms define the same register"
      else Ok ()
    end
  end

let pp fmt (m : t) =
  Fmt.pf fmt "{ %a }" Fmt.(array ~sep:(any " | ") Atom.pp) m
