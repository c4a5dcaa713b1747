(** Static IR lint.

    Runs twice per translation — after {!Lower} and again after
    {!Opt} — over the linear item list, before self-check injection
    (self-check loads legitimately carry no memory sequence number).
    All checks are linear-order checks: lowering emits traces, so
    program order and layout order coincide at this stage. *)

module A = Vliw.Atom
module I = Ir

let lint ~stage ~entry ~(ir : I.t) (items : I.item list) : Diag.t list =
  let diags = ref [] in
  let add rule msg = diags := Diag.v ~rule ~entry ~stage msg :: !diags in
  let nexits = Array.length (I.exits ir) in
  (* label definitions (collected up front: forward branches are fine) *)
  let defined : (I.label, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (function
      | I.Lbl l ->
          if Hashtbl.mem defined l then
            add "ir-label" (Fmt.str "label L%d defined twice" l)
          else Hashtbl.add defined l ()
      | I.Op _ -> ())
    items;
  (* linear walk *)
  let vdef : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let seen_lbl : (I.label, unit) Hashtbl.t = Hashtbl.create 16 in
  let last_seq = ref (-1) in
  (* atoms emitted since the last label, most recent first *)
  let seg = ref [] in
  List.iter
    (fun item ->
      match item with
      | I.Lbl l ->
          Hashtbl.replace seen_lbl l ();
          seg := []
      | I.Op o ->
          let a = o.I.atom in
          List.iter
            (fun r ->
              if I.is_vreg r && not (Hashtbl.mem vdef r) then
                add "ir-vreg-undef"
                  (Fmt.str "v%d used before any definition" (r - I.vreg_base)))
            (A.uses a);
          List.iter
            (fun r -> if I.is_vreg r then Hashtbl.replace vdef r ())
            (A.defs a);
          (* memory ops keep their program-order sequence numbers; the
             optimizer may delete mem ops (or demote them to moves) but
             never reorders them, so the survivors stay monotone *)
          if A.is_mem a then begin
            if o.I.mem_seq < 0 then
              add "ir-memseq" "memory op without a sequence number"
            else if o.I.mem_seq <= !last_seq then
              add "ir-memseq"
                (Fmt.str "mem_seq %d after %d: program order lost" o.I.mem_seq
                   !last_seq)
            else last_seq := o.I.mem_seq
          end;
          (match a with
          | A.Br { target } | A.BrCond { target; _ } | A.BrCmp { target; _ } ->
              if not (Hashtbl.mem defined target) then
                add "ir-label" (Fmt.str "branch to undefined label L%d" target);
              if Hashtbl.mem seen_lbl target then begin
                (* loop back-edge: the scheduler must not hoist anything
                   above it, so it either carries the barrier flag or
                   immediately follows a commit (back-edge stubs commit
                   right before branching, which serializes just as
                   hard) *)
                let after_commit =
                  match !seg with A.Commit _ :: _ -> true | _ -> false
                in
                if not (o.I.barrier || after_commit) then
                  add "ir-backedge-barrier"
                    (Fmt.str
                       "back-edge to L%d has no barrier flag and no \
                        preceding commit"
                       target)
              end
          | A.Exit e ->
              if e < 0 || e >= nexits then
                add "ir-label" (Fmt.str "exit #%d outside table of %d" e nexits);
              (* every exit stub must write EIP and commit it before
                 leaving: scanning back from the exit we must meet a
                 commit first, then a def of the EIP register *)
              let rec scan saw_commit = function
                | [] -> false
                | at :: rest ->
                    if List.mem Vliw.Abi.eip (A.defs at) then saw_commit
                    else
                      scan
                        (saw_commit
                        || match at with A.Commit _ -> true | _ -> false)
                        rest
              in
              if not (scan false !seg) then
                add "ir-exit-eip"
                  (Fmt.str "exit #%d without a committed EIP update" e)
          | _ -> ());
          seg := a :: !seg)
    items;
  List.rev !diags
