(** Code generation: region → scheduled native code.

    Drives lowering, optimization, self-check injection, scheduling and
    register allocation, and validates the result: structurally
    ({!Vliw.Code.validate}) and with the static verifier ({!Irlint},
    {!Tverify}) on every compile.  Also builds the
    special zero-instruction translations (paper §3.2: "a
    zero-instruction translation that simply calls the interpreter to
    execute the faulting instruction"). *)

module A = Vliw.Atom

exception Too_big
(** the region cannot be compiled (register pressure / store buffer);
    the translator retries with a smaller region *)

(* ------------------------------------------------------------------ *)
(* Translation verifier                                                *)
(* ------------------------------------------------------------------ *)

exception Verify_failed of string
(** a static verifier found an invariant violation; the translation is
    rejected (this is a translator bug, not a guest-program condition) *)

(** The one acceptance rule for a translation, wherever it comes from
    (a fresh compile, a shared-store hit, an AOT image entry): every
    diagnostic goes to [on_diag], advisory ones included, and any
    diagnostic that is not advisory ({!Diag.is_advisory}) rejects the
    translation with {!Verify_failed}.  The observer only watches:
    rejection is the same with or without it. *)
let check ?on_diag (diags : Diag.t list) =
  if diags <> [] then begin
    Option.iter (fun f -> List.iter f diags) on_diag;
    match List.filter (fun d -> not (Diag.is_advisory d)) diags with
    | [] -> ()
    | bad ->
        raise (Verify_failed (String.concat "\n" (List.map Diag.to_string bad)))
  end

(** {!check} applied to the molecule verifier's verdict on [code]. *)
let check_code ?on_diag ~cfg ~entry ~ninsns code =
  check ?on_diag (Tverify.verify ~cfg ~entry ~ninsns code)

(* Stubs: the benchmark harness (perfbench/layers.ml) is their only
   reader, and ROADMAP item 1 removes them.  The verifier is no longer
   a hook — {!compile_with} calls {!Irlint} and {!Tverify} directly —
   so [verify_hook] stays [None] and nothing in the program reads or
   writes it. *)
type verifier = {
  lint_ir : stage:string -> entry:int -> ir:Ir.t -> Ir.item list -> string list;
  verify_code :
    cfg:Config.t -> entry:int -> ninsns:int -> Vliw.Code.t -> string list;
}

let verify_hook : verifier option ref = ref None

(* ------------------------------------------------------------------ *)
(* Self-checking translations (§3.6.3)                                 *)
(* ------------------------------------------------------------------ *)

(* Build IR that verifies the source bytes still match [snapshot],
   word by word, branching to a self-check-fail stub on mismatch.
   Placed *before* the entry label so loop iterations skip it.  Words
   overlapping a stylized immediate field are compared under a mask
   (those bytes are legitimately volatile, §3.6.4). *)
let selfcheck_items ir ~(region : Region.t) ~snapshot ~excluded ~fail_label =
  let items = ref [] in
  let emit atom =
    items := Ir.Op { Ir.atom; x86_idx = 0; mem_seq = -1; base_ver = 0; barrier = false; base_abs = None } :: !items
  in
  let snap_pos = ref 0 in
  List.iter
    (fun (lo, hi) ->
      let base = Ir.fresh_vreg ir in
      emit (A.MovI { rd = base; imm = lo });
      let addr = ref lo in
      while !addr < hi do
        let n = min 4 (hi - !addr) in
        (* expected word from the snapshot, little-endian *)
        let expect = ref 0 in
        for k = 0 to n - 1 do
          expect :=
            !expect lor (Char.code (Bytes.get snapshot (!snap_pos + k)) lsl (8 * k))
        done;
        (* mask out excluded (stylized-immediate) bytes *)
        let mask = ref (if n = 4 then 0xffffffff else (1 lsl (8 * n)) - 1) in
        for k = 0 to n - 1 do
          let a = !addr + k in
          if List.exists (fun (elo, ehi) -> a >= elo && a < ehi) excluded then
            mask := !mask land lnot (0xff lsl (8 * k))
        done;
        if !mask <> 0 then begin
          let t = Ir.fresh_vreg ir in
          emit
            (A.Load
               { rd = t; base; disp = !addr - lo; size = 4; spec = false;
                 protect = None; check = 0 });
          let v =
            if !mask = 0xffffffff then t
            else begin
              let t2 = Ir.fresh_vreg ir in
              emit (A.Alu { op = A.HAnd; rd = t2; a = t; b = A.I !mask });
              t2
            end
          in
          emit
            (A.BrCmp
               { cmp = A.Cne; a = v; b = A.I (!expect land !mask);
                 target = fail_label })
        end;
        snap_pos := !snap_pos + n;
        addr := !addr + n
      done)
    region.Region.src_ranges;
  List.rev !items

(* The fail stub: nothing has committed; just exit with the
   self-check-fail kind and let the SMC machinery sort it out. *)
let selfcheck_fail_stub ir ~entry ~fail_label =
  let exit_idx =
    Ir.add_exit ir ~target:(Vliw.Code.Const entry)
      ~kind:Vliw.Code.Eselfcheck_fail ~x86_retired:0
  in
  [
    Ir.Lbl fail_label;
    Ir.Op
      {
        Ir.atom = A.MovI { rd = Vliw.Abi.eip; imm = entry };
        x86_idx = 0;
        mem_seq = -1;
        base_ver = 0;
        barrier = false;
        base_abs = None;
      };
    Ir.Op
      { Ir.atom = A.Commit 0; x86_idx = 0; mem_seq = -1; base_ver = 0; barrier = false; base_abs = None };
    Ir.Op { Ir.atom = A.Exit exit_idx; x86_idx = 0; mem_seq = -1; base_ver = 0; barrier = false; base_abs = None };
  ]

(* ------------------------------------------------------------------ *)
(* Full compilation                                                    *)
(* ------------------------------------------------------------------ *)

type compiled = {
  code : Vliw.Code.t;
  snapshot : Bytes.t option;
  opt_stats : Opt.result;
  unprotected : bool;
      (** self-checking translation whose source ranges are guarded by
          the alias hardware: it runs with page protection off
          (§3.6.3); [false] means protection is still required *)
}

(* Concatenate the source bytes of all ranges, in range order. *)
let take_snapshot mem (region : Region.t) =
  let total = Region.src_bytes region in
  let b = Buffer.create total in
  List.iter
    (fun (lo, hi) ->
      Buffer.add_bytes b (Machine.Mem.read_code mem ~addr:lo ~len:(hi - lo)))
    region.Region.src_ranges;
  Buffer.to_bytes b

(* The compiler proper, parametric over the source-byte supplier: the
   plain path reads guest memory ({!take_snapshot}); with fleet hooks
   installed the engine passes the bytes it already snapshotted for the
   shared-store key.  Everything else is a pure deterministic function
   of (cfg, policy, region, bytes), so both paths mint the identical
   translation. *)
let compile_with ?on_diag ~(cfg : Config.t) ~(policy : Policy.t)
    ~(snap : unit -> Bytes.t) (region : Region.t) =
  let entry = region.Region.entry in
  let ir = Lower.lower ~policy region in
  let items = Ir.items ir in
  check ?on_diag (Irlint.lint ~stage:"lower" ~entry ~ir items);
  let opt_stats = Opt.run ir items in
  let items = opt_stats.Opt.items in
  check ?on_diag (Irlint.lint ~stage:"opt" ~entry ~ir items);
  (* self-check / snapshot *)
  let want_snapshot =
    policy.Policy.self_check || policy.Policy.self_reval
    || not (Policy.ISet.is_empty policy.Policy.stylized_imms)
  in
  let snapshot = if want_snapshot then Some (snap ()) else None in
  let items =
    if policy.Policy.self_check then begin
      let snapshot = Option.get snapshot in
      let fail_label = Ir.fresh_label ir in
      let excluded =
        Array.to_list region.Region.insns
        |> List.filter_map (fun (i : Region.insn_info) ->
               if Policy.ISet.mem i.Region.addr policy.Policy.stylized_imms
               then
                 Option.map (fun a -> (a, a + 4)) i.Region.imm32_addr
               else None)
      in
      selfcheck_items ir ~region ~snapshot ~excluded ~fail_label
      @ items
      @ selfcheck_fail_stub ir ~entry:region.Region.entry ~fail_label
    end
    else items
  in
  (* Self-checking translations run with page protection off; their
     own stores are checked against the source byte ranges through the
     alias hardware (§3.6.3).  The arming atoms sit just after the
     entry label so loop back-edges (whose commits clear the alias
     slots) re-arm them every iteration. *)
  let page_segments =
    List.concat_map
      (fun (lo, hi) ->
        let rec split lo acc =
          if lo >= hi then List.rev acc
          else
            let seg = min (hi - lo) (Machine.Mem.page_room lo) in
            split (lo + seg) ((lo, seg) :: acc)
        in
        split lo [])
      region.Region.src_ranges
  in
  let max_guard_slots = 4 in
  let use_guards =
    policy.Policy.self_check
    && cfg.Config.enable_alias_hw
    && List.length page_segments <= max_guard_slots
    && cfg.Config.alias_slots > max_guard_slots
  in
  let items =
    if not use_guards then items
    else
      let mkop atom =
        Ir.Op
          { Ir.atom; x86_idx = 0; mem_seq = -1; base_ver = 0; barrier = false;
            base_abs = None }
      in
      let arms =
        List.concat
          (List.mapi
             (fun k (lo, len) ->
               let t = Ir.fresh_vreg ir in
               [
                 mkop (A.MovI { rd = t; imm = lo });
                 mkop
                   (A.ArmRange
                      { slot = cfg.Config.alias_slots - 1 - k; base = t;
                        disp = 0; len });
               ])
             page_segments)
      in
      (* insert after the entry label so loops re-arm per iteration *)
      let rec insert = function
        | (Ir.Lbl _ as l) :: rest -> l :: (arms @ rest)
        | op :: rest -> op :: insert rest
        | [] -> arms
      in
      insert items
  in
  let guard_mask =
    if not use_guards then 0
    else
      List.fold_left ( lor ) 0
        (List.mapi
           (fun k _ -> 1 lsl (cfg.Config.alias_slots - 1 - k))
           page_segments)
  in
  let opts =
    {
      Sched.reorder = cfg.Config.enable_reorder && not policy.Policy.no_reorder;
      use_alias = cfg.Config.enable_alias_hw && not policy.Policy.no_alias;
      alias_slots =
        (if use_guards then cfg.Config.alias_slots - max_guard_slots
         else cfg.Config.alias_slots);
    }
  in
  let molecules = Sched.schedule ~opts items in
  (* every store also checks the source-range guards *)
  if guard_mask <> 0 then
    Array.iter
      (fun m ->
        Array.iteri
          (fun k a ->
            match a with
            | A.Store st -> m.(k) <- A.Store { st with check = st.check lor guard_mask }
            | _ -> ())
          m)
      molecules;
  (match Sched.regalloc molecules with
  | () -> ()
  | exception Sched.Regalloc_overflow -> raise Too_big);
  let code = { Vliw.Code.molecules; exits = Ir.exits ir } in
  (match Vliw.Code.validate code with
  | Ok () -> ()
  | Error e -> failwith ("Codegen: invalid code: " ^ e));
  check_code ?on_diag ~cfg ~entry ~ninsns:(Region.instruction_count region)
    code;
  { code; snapshot; opt_stats; unprotected = use_guards }

(** Compile a region under [policy].  [cfg] supplies hardware knobs;
    the IR lint runs after lowering and after optimization, the
    molecule verifier on the scheduled code, each through {!check}. *)
let compile ?on_diag ~cfg ~policy ~mem (region : Region.t) =
  compile_with ?on_diag ~cfg ~policy
    ~snap:(fun () -> take_snapshot mem region)
    region

(** Compile from pre-captured source bytes: [bytes] is the
    {!take_snapshot}-format concatenation of the region's source
    ranges, read once by the caller at the translate instant. *)
let compile_presnapped ?on_diag ~cfg ~policy ~bytes (region : Region.t) =
  compile_with ?on_diag ~cfg ~policy ~snap:(fun () -> bytes) region

(** A zero-instruction translation: interpret one instruction at
    [entry], then continue dispatch. *)
let zero_insn_code ~entry =
  {
    Vliw.Code.molecules =
      [|
        [| A.MovI { rd = Vliw.Abi.eip; imm = entry } |];
        [| A.Commit 0; A.Exit 0 |];
      |];
    exits =
      [|
        {
          Vliw.Code.target = Vliw.Code.Const entry;
          kind = Vliw.Code.Einterp_one;
          x86_retired = 0;
          chain = Vliw.Code.NoChain;
        };
      |];
  }
