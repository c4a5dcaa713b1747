(** Static molecule verifier.

    A linear abstract walk (see {!Absstate}) over a scheduled code
    block, checking the invariants speculation and recovery depend on:
    commits sit at x86 boundaries with sane retired counts, nothing is
    placed after a loop back-edge branch, speculative state (gated
    stores, dirty guest registers, armed alias slots) never leaks
    through an exit, the alias hardware is used within its limits, and
    register allocation stayed inside the host register file.

    The walk is CFG-free on purpose: layout order over-approximates
    every real path between commits (stubs always commit before
    exiting, and the scheduler keeps slot order equal to program
    order), so a clean walk implies clean execution.

    The one exception is the [latency] rule ({!latency}): a result read
    too early is a property of a path, including paths around a loop
    back-edge, so it is a small dataflow over the block's CFG. *)

module A = Vliw.Atom
module S = Absstate

let is_tmp r = r >= Vliw.Abi.tmp_base && r < Vliw.Abi.num_regs
let is_guest r = r >= 0 && r < Vliw.Abi.shadow_count

(* Where control can go after molecule [i]: within a molecule the last
   control effect wins, so an unconditional [Br] or [Exit] discards the
   fallthrough and every branch before it. *)
let successors (mols : Vliw.Molecule.t array) i =
  let n = Array.length mols in
  let m = mols.(i) in
  let add t ts = if t >= 0 && t < n then t :: ts else ts in
  let targets = ref [] and falls = ref true in
  for k = 0 to Array.length m - 1 do
    match m.(k) with
    | A.Br { target } ->
        targets := add target [];
        falls := false
    | A.Exit _ ->
        targets := [];
        falls := false
    | A.BrCond { target; _ } | A.BrCmp { target; _ } ->
        targets := add target !targets
    | _ -> ()
  done;
  if !falls then add (i + 1) !targets else !targets

(** The [latency] rule.  The TM5800 has almost no hardware interlocks:
    "CMS guarantees correct operation by careful scheduling" (§2), so a
    consumer issued before its producer's {!Vliw.Atom.latency} has
    passed reads a stale register.  The rule is the forward dataflow
    over the block's CFG (fallthrough plus [Br]/[BrCond]/[BrCmp]
    targets) whose state is, per register, how many more molecules must
    pass before its latest definition is readable, with paths joined by
    maximum and every register ready on entry.  Only a definition with
    latency [L > 1] ever makes that count positive, and only for the
    [L - 1] molecules after it, so the rule computes the same fixpoint
    by following each such definition (in a molecule reachable from
    the entry) along every path for [L - 1] molecules, until a molecule
    redefines the register.  A read on the way is flagged at the
    reading molecule, over every path, loop back-edges included. *)
let latency ~entry (code : Vliw.Code.t) : Diag.t list =
  let mols = code.Vliw.Code.molecules in
  let n = Array.length mols in
  (* successors of the molecules reachable from the entry; none for the
     rest, so nothing is followed from unreachable code *)
  let succ = Array.make n [] and reached = Array.make n false in
  let rec reach i =
    if not reached.(i) then begin
      reached.(i) <- true;
      succ.(i) <- successors mols i;
      List.iter reach succ.(i)
    end
  in
  if n > 0 then reach 0;
  let in_atoms f r m = Array.exists (fun a -> List.mem r (f a)) m in
  (* per molecule: registers read early, with the largest number of
     molecules still to pass over all paths *)
  let early = Array.make n [] in
  let rec chase r d j =
    if in_atoms A.uses r mols.(j) then begin
      match List.assoc_opt r early.(j) with
      | Some d' when d' >= d -> ()
      | _ -> early.(j) <- (r, d) :: List.remove_assoc r early.(j)
    end;
    if d > 1 && not (in_atoms A.defs r mols.(j)) then
      List.iter (chase r (d - 1)) succ.(j)
  in
  Array.iteri
    (fun i m ->
      if Array.exists (fun a -> A.latency a > 1) m then
        (* within a molecule the last definition of a register wins *)
        Array.fold_left
          (fun last a ->
            List.fold_left
              (fun last r -> (r, A.latency a) :: List.remove_assoc r last)
              last (A.defs a))
          [] m
        |> List.iter (fun (r, l) ->
               if l > 1 then List.iter (chase r (l - 1)) succ.(i)))
    mols;
  let diags = ref [] in
  Array.iteri
    (fun j found ->
      if found <> [] then
        Array.iter
          (fun a ->
            let uses = A.uses a in
            List.iter
              (fun (r, d) ->
                if List.mem r uses then
                  diags :=
                    Diag.v ~rule:"latency" ~entry ~stage:"code" ~molecule:j
                      (Fmt.str
                         "r%d read %d molecule(s) before its result is ready: \
                          %a"
                         r d A.pp a)
                    :: !diags)
              found)
          mols.(j))
    early;
  List.rev !diags

let verify ~(cfg : Config.t) ~entry ?(ninsns = max_int)
    (code : Vliw.Code.t) : Diag.t list =
  let diags = ref [] in
  let nmol = Array.length code.Vliw.Code.molecules in
  let nexits = Array.length code.Vliw.Code.exits in
  let slots = cfg.Config.alias_slots in
  let capacity = cfg.Config.sbuf_capacity in
  let st = S.create () in
  Array.iteri
    (fun i m ->
      let add rule msg =
        diags := Diag.v ~rule ~entry ~stage:"code" ~molecule:i msg :: !diags
      in
      let check_mask what mask =
        if mask land lnot ((1 lsl slots) - 1) <> 0 then
          add "alias-slot-range"
            (Fmt.str "%s check mask %#x has bits beyond %d slots" what mask
               slots)
      in
      let arm what slot =
        if slot < 0 || slot >= slots then
          add "alias-slot-range"
            (Fmt.str "%s arms slot %d of %d" what slot slots)
        else begin
          if S.ISet.mem slot st.S.armed then
            add "alias-double-arm"
              (Fmt.str "%s re-arms slot %d with no commit since the last \
                        arming"
                 what slot);
          st.S.armed <- S.ISet.add slot st.S.armed
        end
      in
      (match Vliw.Molecule.check m with
      | Ok () -> ()
      | Error e -> add "issue-constraints" e);
      let mol_tmp_defs = ref [] in
      let past_backedge = ref false in
      Array.iter
        (fun a ->
          if !past_backedge && a <> A.Nop then
            add "barrier-hoist"
              (Fmt.str "atom placed after a loop back-edge branch: %a" A.pp a);
          List.iter
            (fun r ->
              if r >= Vliw.Abi.num_regs then
                add "regalloc-range"
                  (Fmt.str "register r%d outside the host register file \
                            (unallocated virtual register?)"
                     r))
            (A.uses a @ A.defs a);
          List.iter
            (fun r ->
              if is_tmp r && not (S.ISet.mem r st.S.tmp_defined) then
                add "tmp-undef"
                  (Fmt.str "temporary r%d used before any definition" r))
            (A.uses a);
          (match a with
          | A.Load l ->
              if is_guest l.rd then
                add "guest-clobber"
                  (Fmt.str
                     "load targets guest register r%d: a speculative load \
                      must land in a temporary"
                     l.rd);
              check_mask "load" l.check;
              (match l.protect with
              | Some s ->
                  arm "protected load" s;
                  if not l.spec then
                    add "spec-missing"
                      (Fmt.str
                         "load protected by slot %d is not marked \
                          speculative"
                         s)
              | None -> ())
          | A.Store sa ->
              check_mask "store" sa.check;
              S.ISet.iter
                (fun s ->
                  if sa.check land (1 lsl s) = 0 then
                    add "store-missing-check"
                      (Fmt.str
                         "store does not check live guarded range in slot %d"
                         s))
                st.S.armed_guard;
              st.S.pending_stores <- st.S.pending_stores + 1;
              if st.S.pending_stores = capacity + 1 then
                add "sbuf-overflow"
                  (Fmt.str
                     "more than %d gated stores with no intervening commit"
                     capacity)
          | A.ArmRange ar ->
              arm "range guard" ar.slot;
              st.S.armed_guard <- S.ISet.add ar.slot st.S.armed_guard
          | A.Commit n ->
              if n < 0 || n > ninsns then
                add "commit-retired"
                  (Fmt.str "commit retires %d of a %d-instruction region" n
                     ninsns);
              S.commit st
          | A.Exit e ->
              if e < 0 || e >= nexits then
                add "branch-target"
                  (Fmt.str "exit #%d outside table of %d" e nexits)
              else begin
                let x = code.Vliw.Code.exits.(e).Vliw.Code.x86_retired in
                if x < 0 || x > ninsns then
                  add "commit-retired"
                    (Fmt.str "exit #%d retires %d of a %d-instruction region"
                       e x ninsns)
              end;
              if st.S.pending_stores > 0 then
                add "exit-uncommitted"
                  (Fmt.str "exit with %d stores still gated"
                     st.S.pending_stores);
              if not (S.ISet.is_empty st.S.dirty_guest) then
                add "exit-uncommitted"
                  (Fmt.str "exit with uncommitted guest registers %a"
                     S.pp_regs st.S.dirty_guest)
          | A.Br { target } ->
              if target < 0 || target >= nmol then
                add "branch-target" (Fmt.str "branch to molecule %d" target)
              else if target <= i then past_backedge := true
          | A.BrCond { target; _ } | A.BrCmp { target; _ } ->
              if target < 0 || target >= nmol then
                add "branch-target" (Fmt.str "branch to molecule %d" target)
              else if target <= i then past_backedge := true
          | _ -> ());
          List.iter
            (fun r ->
              if is_guest r then st.S.dirty_guest <- S.ISet.add r st.S.dirty_guest
              else if is_tmp r then mol_tmp_defs := r :: !mol_tmp_defs)
            (A.defs a))
        m;
      (* within a molecule all reads observe pre-molecule state, so tmp
         defs only become visible to later molecules *)
      List.iter
        (fun r -> st.S.tmp_defined <- S.ISet.add r st.S.tmp_defined)
        !mol_tmp_defs)
    code.Vliw.Code.molecules;
  (* exit table *)
  Array.iteri
    (fun e (x : Vliw.Code.exit) ->
      let add rule msg =
        diags := Diag.v ~rule ~entry ~stage:"code" msg :: !diags
      in
      if x.Vliw.Code.x86_retired < 0 || x.Vliw.Code.x86_retired > ninsns then
        add "commit-retired"
          (Fmt.str "exit #%d retires %d of a %d-instruction region" e
             x.Vliw.Code.x86_retired ninsns);
      match x.Vliw.Code.target with
      | Vliw.Code.FromReg r ->
          if r < 0 || r >= Vliw.Abi.num_regs then
            add "regalloc-range"
              (Fmt.str "exit #%d reads target from r%d" e r)
      | Vliw.Code.Const _ -> ())
    code.Vliw.Code.exits;
  List.rev_append !diags (latency ~entry code)
