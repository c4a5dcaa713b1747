(** Seeded mutations: deliberately corrupt a correct translation in a
    way that violates exactly one verifier invariant, so the self-tests
    can assert {!Cms.Tverify} flags each rule.  [apply] returns [None] when
    the code has no applicable mutation site (e.g. no alias guards in a
    non-self-checking translation). *)

module A = Vliw.Atom

type t =
  | Drop_commit  (** nop out the commit before an exit *)
  | Clear_check  (** erase a store's guard-slot check mask *)
  | Barrier_hoist  (** place an atom after a loop back-edge branch *)
  | Clobber_guest  (** retarget a load at a live guest register *)
  | Sbuf_overflow  (** exceed the gated store buffer between commits *)
  | Slot_out_of_range  (** arm an alias slot beyond the hardware *)
  | Double_arm  (** arm the same alias slot twice without a commit *)
  | Unspec_protected  (** clear the spec bit on a protected load *)
  | Unallocated_vreg  (** leak a virtual register past regalloc *)
  | Early_read
      (** read a load's or multiply's result one molecule before its
          latency has passed *)

let all =
  [
    Drop_commit; Clear_check; Barrier_hoist; Clobber_guest; Sbuf_overflow;
    Slot_out_of_range; Double_arm; Unspec_protected; Unallocated_vreg;
    Early_read;
  ]

let name = function
  | Drop_commit -> "drop-commit"
  | Clear_check -> "clear-check"
  | Barrier_hoist -> "barrier-hoist"
  | Clobber_guest -> "clobber-guest"
  | Sbuf_overflow -> "sbuf-overflow"
  | Slot_out_of_range -> "slot-out-of-range"
  | Double_arm -> "double-arm"
  | Unspec_protected -> "unspec-protected"
  | Unallocated_vreg -> "unallocated-vreg"
  | Early_read -> "early-read"

(** The rule id each mutation must trip. *)
let expected_rule = function
  | Drop_commit -> "exit-uncommitted"
  | Clear_check -> "store-missing-check"
  | Barrier_hoist -> "barrier-hoist"
  | Clobber_guest -> "guest-clobber"
  | Sbuf_overflow -> "sbuf-overflow"
  | Slot_out_of_range -> "alias-slot-range"
  | Double_arm -> "alias-double-arm"
  | Unspec_protected -> "spec-missing"
  | Unallocated_vreg -> "regalloc-range"
  | Early_read -> "latency"

let copy (code : Vliw.Code.t) =
  {
    Vliw.Code.molecules = Array.map Array.copy code.Vliw.Code.molecules;
    exits =
      Array.map
        (fun (e : Vliw.Code.exit) -> { e with Vliw.Code.chain = e.Vliw.Code.chain })
        code.Vliw.Code.exits;
  }

let is_backward i = function
  | A.Br { target } | A.BrCond { target; _ } | A.BrCmp { target; _ } ->
      target <= i
  | _ -> false

(* Insert [extra] molecules at position [pos], shifting every branch
   target at or beyond the insertion point. *)
let insert_molecules (code : Vliw.Code.t) ~pos extra =
  let n = List.length extra in
  let shift t = if t >= pos then t + n else t in
  let fixed =
    Array.map
      (fun m ->
        Array.map
          (fun a ->
            match a with
            | A.Br { target } -> A.Br { target = shift target }
            | A.BrCond b -> A.BrCond { b with target = shift b.target }
            | A.BrCmp b -> A.BrCmp { b with target = shift b.target }
            | a -> a)
          m)
      code.Vliw.Code.molecules
  in
  let before = Array.sub fixed 0 pos in
  let after = Array.sub fixed pos (Array.length fixed - pos) in
  {
    code with
    Vliw.Code.molecules =
      Array.concat [ before; Array.of_list extra; after ];
  }

(* Find the first atom satisfying [p]; returns (molecule, slot). *)
let find_atom (code : Vliw.Code.t) p =
  let found = ref None in
  Array.iteri
    (fun i m ->
      Array.iteri
        (fun k a -> if !found = None && p i a then found := Some (i, k))
        m)
    code.Vliw.Code.molecules;
  !found

let apply ~(cfg : Cms.Config.t) (code : Vliw.Code.t) (m : t) :
    Vliw.Code.t option =
  let code = copy code in
  let mols = code.Vliw.Code.molecules in
  match m with
  | Drop_commit ->
      (* nop a commit whose next branch-class atom (in layout order) is
         an exit, so the walk reaches that exit with dirty state *)
      let target = ref None in
      let pending = ref None in
      Array.iteri
        (fun i mol ->
          Array.iteri
            (fun k a ->
              if !target = None then
                match a with
                | A.Commit _ -> pending := Some (i, k)
                | A.Exit _ -> if !pending <> None then target := !pending
                | A.Br _ | A.BrCond _ | A.BrCmp _ -> pending := None
                | _ -> ())
            mol)
        mols;
      Option.map
        (fun (i, k) ->
          mols.(i).(k) <- A.Nop;
          code)
        !target
  | Clear_check ->
      (* erase the guard checks of a store while a range guard is armed *)
      let armed = ref false in
      let site = ref None in
      Array.iteri
        (fun i mol ->
          Array.iteri
            (fun k a ->
              if !site = None then
                match a with
                | A.ArmRange _ -> armed := true
                | A.Commit _ -> armed := false
                | A.Store _ when !armed -> site := Some (i, k)
                | _ -> ())
            mol)
        mols;
      Option.map
        (fun (i, k) ->
          (match mols.(i).(k) with
          | A.Store s -> mols.(i).(k) <- A.Store { s with check = 0 }
          | _ -> assert false);
          code)
        !site
  | Barrier_hoist ->
      find_atom code is_backward
      |> Option.map (fun (i, _) ->
             mols.(i) <-
               Array.append mols.(i)
                 [| A.MovI { rd = Vliw.Abi.tmp_base; imm = 0 } |];
             code)
  | Clobber_guest ->
      find_atom code (fun _ a -> match a with A.Load _ -> true | _ -> false)
      |> Option.map (fun (i, k) ->
             (match mols.(i).(k) with
             | A.Load l -> mols.(i).(k) <- A.Load { l with rd = 0 }
             | _ -> assert false);
             code)
  | Sbuf_overflow ->
      (* flood the gated store buffer before the first commit *)
      let store =
        [| A.Store { rs = A.I 0; base = 0; disp = 0; size = 4; spec = false; check = 0 } |]
      in
      let extra =
        List.init (cfg.Cms.Config.sbuf_capacity + 1) (fun _ -> store)
      in
      Some (insert_molecules code ~pos:0 extra)
  | Slot_out_of_range -> (
      let bad = cfg.Cms.Config.alias_slots in
      match
        find_atom code (fun _ a ->
            match a with A.ArmRange _ -> true | _ -> false)
      with
      | Some (i, k) ->
          (match mols.(i).(k) with
          | A.ArmRange ar -> mols.(i).(k) <- A.ArmRange { ar with slot = bad }
          | _ -> assert false);
          Some code
      | None ->
          find_atom code (fun _ a ->
              match a with A.Load { protect = Some _; _ } -> true | _ -> false)
          |> Option.map (fun (i, k) ->
                 (match mols.(i).(k) with
                 | A.Load l -> mols.(i).(k) <- A.Load { l with protect = Some bad }
                 | _ -> assert false);
                 code))
  | Double_arm -> (
      match
        find_atom code (fun _ a ->
            match a with
            | A.ArmRange _ | A.Load { protect = Some _; _ } -> true
            | _ -> false)
      with
      | Some (i, k) ->
          Some (insert_molecules code ~pos:(i + 1) [ [| mols.(i).(k) |] ])
      | None -> None)
  | Unspec_protected ->
      find_atom code (fun _ a ->
          match a with
          | A.Load { protect = Some _; spec = true; _ } -> true
          | _ -> false)
      |> Option.map (fun (i, k) ->
             (match mols.(i).(k) with
             | A.Load l -> mols.(i).(k) <- A.Load { l with spec = false }
             | _ -> assert false);
             code)
  | Unallocated_vreg ->
      find_atom code (fun _ a -> match a with A.MovI _ -> true | _ -> false)
      |> Option.map (fun (i, k) ->
             (match mols.(i).(k) with
             | A.MovI mv -> mols.(i).(k) <- A.MovI { mv with rd = Cms.Ir.vreg_base + 1 }
             | _ -> assert false);
             code)
  | Early_read ->
      (* a new molecule right after a load or multiply that falls
         through, holding only a branch to its own fallthrough that
         reads the result: one molecule too early for latency 2 *)
      find_atom code (fun i a ->
          (match a with A.Load _ | A.MulX _ -> true | _ -> false)
          && List.mem (i + 1) (Cms.Tverify.successors mols i))
      |> Option.map (fun (i, k) ->
             let rd =
               match mols.(i).(k) with
               | A.Load { rd; _ } | A.MulX { rd_lo = rd; _ } -> rd
               | _ -> assert false
             in
             let read =
               A.BrCmp { cmp = A.Ceq; a = rd; b = A.I 0; target = i + 2 }
             in
             insert_molecules code ~pos:(i + 1) [ [| read |] ])
