(** x86 → IR lowering.

    Turns a {!Region} trace into IR ops.  Design points:

    - Guest registers are accessed as their dedicated host registers;
      loads land in fresh temporaries so the scheduler can hoist them
      without moving architectural state (guest-state writes are
      scheduling anchors, loads are speculation candidates).
    - Flag-producing instructions use [AluX] atoms whose output goes to
      the architectural flags register; the optimizer later retargets
      dead flag results to a scratch register.
    - Side exits become stubs ([set EIP; commit; exit]); a branch whose
      followed edge returns to the entry becomes an internal back edge,
      so hot loops run entirely inside one translation.  The back-edge
      commit retires one iteration's worth of instructions.
    - REP string instructions lower to an internal loop that commits
      every iteration with EIP on the instruction itself — the same
      restartable semantics the interpreter implements.  A checkpoint
      commit in front of the loop counts the instructions preceding
      the string op (and later commits on the path count relative to
      it), keeping the retired-instruction clock monotone with
      architectural state even when an interrupt stops the translation
      at a mid-string commit point.
    - Stylized-SMC instructions (policy) load their 32-bit immediate
      from the code bytes at run time instead of embedding it
      (paper §3.6.4). *)

open X86
module A = Vliw.Atom

let fr = Vliw.Abi.eflags

(* [retired] in a stub is the absolute count of x86 instructions the
   path has completed (recorded as the exit's [x86_retired]); [base] is
   how many of those an earlier checkpoint commit already counted (see
   the REP lowering), so the stub's own commit counts [retired - base]. *)
type stub =
  | Sconst of { label : Ir.label; target : int; retired : int; base : int;
                kind : Vliw.Code.exit_kind }
  | Sreg of { label : Ir.label; reg : int; retired : int; base : int }
  | Sback of { label : Ir.label; retired : int; base : int }
      (** loop back edge: commit one iteration, branch to the entry *)

type ctx = {
  ir : Ir.t;
  region : Region.t;
  policy : Policy.t;
  mutable stubs : stub list;
  mutable committed : int;
      (** x86 instructions already counted by checkpoint commits on the
          fall-through path — the retired clock must tick the moment
          state commits, not when the path ends, or an interrupt taken
          at a mid-region commit point loses the count for instructions
          whose effects are already architectural *)
  entry_label : Ir.label;
}

let xop_of_arith : Insn.arith -> A.xop = function
  | Insn.Add -> A.XAdd
  | Or -> A.XOr
  | Adc -> A.XAdc
  | Sbb -> A.XSbb
  | And -> A.XAnd
  | Sub -> A.XSub
  | Xor -> A.XXor
  | Cmp -> A.XCmp

let xop_of_shift : Insn.shift -> A.xop = function
  | Insn.Shl -> A.XShl
  | Shr -> A.XShr
  | Sar -> A.XSar
  | Rol -> A.XRol
  | Ror -> A.XRor

let size_bytes = function Insn.S8 -> 1 | Insn.S32 -> 4

(* ------------------------------------------------------------------ *)
(* Emission helpers                                                    *)
(* ------------------------------------------------------------------ *)

let emit ctx ~idx atom = Ir.emit ctx.ir ~x86_idx:idx atom
let vreg ctx = Ir.fresh_vreg ctx.ir

(* Compute the (base register, displacement) pair for a Load/Store atom
   from an x86 memory operand, emitting index arithmetic as needed. *)
let lower_addr ctx ~idx (m : Insn.mem) =
  match (m.base, m.index) with
  | Some b, None -> (b, m.disp)
  | None, None ->
      let t = vreg ctx in
      emit ctx ~idx (A.MovI { rd = t; imm = m.disp });
      (t, 0)
  | base, Some (i, scale) ->
      let scaled =
        if scale = 1 then i
        else begin
          let t = vreg ctx in
          let sh = match scale with 2 -> 1 | 4 -> 2 | 8 -> 3 | _ -> 0 in
          emit ctx ~idx (A.Alu { op = A.HShl; rd = t; a = i; b = A.I sh });
          t
        end
      in
      let addr =
        match base with
        | None -> scaled
        | Some b ->
            let t = vreg ctx in
            emit ctx ~idx (A.Alu { op = A.HAdd; rd = t; a = b; b = A.R scaled });
            t
      in
      (addr, m.disp)

let load ctx ~idx ~size (base, disp) =
  let t = vreg ctx in
  emit ctx ~idx
    (A.Load { rd = t; base; disp; size; spec = false; protect = None; check = 0 });
  t

let store ctx ~idx ~size (base, disp) src =
  emit ctx ~idx (A.Store { rs = src; base; disp; size; spec = false; check = 0 })

(* 8-bit register read: extract the byte from its backing GPR. *)
let read8 ctx ~idx r =
  let g = Regs.r8_gpr r and sh = Regs.r8_shift r in
  let t = vreg ctx in
  emit ctx ~idx (A.ExtField { rd = t; rs = g; shift = sh; width = 8; sign = false });
  t

let write8 ctx ~idx r src =
  let g = Regs.r8_gpr r and sh = Regs.r8_shift r in
  emit ctx ~idx (A.InsField { rd = g; rs = src; shift = sh; width = 8 })

(** Read an r/m operand into a register (temps for memory and 8-bit). *)
let read_rm ctx ~idx sz (rm : Insn.rm) =
  match (sz, rm) with
  | Insn.S32, Insn.R r -> r
  | Insn.S8, Insn.R r -> read8 ctx ~idx r
  | _, Insn.M m ->
      let a = lower_addr ctx ~idx m in
      load ctx ~idx ~size:(size_bytes sz) a

(* An r/m destination: either write-back goes to a register field or to
   memory at an address computed once. *)
type dst =
  | Dreg of int  (** 32-bit guest register: ops may target it directly *)
  | Dreg8 of int  (** 8-bit register: needs insert *)
  | Dmem of (int * int) * int  (** (base,disp), size *)

let prep_dst ctx ~idx sz (rm : Insn.rm) =
  match (sz, rm) with
  | Insn.S32, Insn.R r -> Dreg r
  | Insn.S8, Insn.R r -> Dreg8 r
  | _, Insn.M m -> Dmem (lower_addr ctx ~idx m, size_bytes sz)

let read_dst ctx ~idx = function
  | Dreg r -> r
  | Dreg8 r -> read8 ctx ~idx r
  | Dmem (a, size) -> load ctx ~idx ~size a

let write_dst ctx ~idx dst src =
  match dst with
  | Dreg r -> if r <> src then emit ctx ~idx (A.MovR { rd = r; rs = src })
  | Dreg8 r -> write8 ctx ~idx r src
  | Dmem (a, size) -> store ctx ~idx ~size a (A.R src)

(* Destination register an AluX may write directly (avoids a move). *)
let direct_rd = function Dreg r -> Some r | _ -> None

let read_reg ctx ~idx sz r =
  match sz with Insn.S32 -> r | Insn.S8 -> read8 ctx ~idx r

let write_reg ctx ~idx sz r src =
  match sz with
  | Insn.S32 -> if r <> src then emit ctx ~idx (A.MovR { rd = r; rs = src })
  | Insn.S8 -> write8 ctx ~idx r src

let push32 ctx ~idx (src : A.src) =
  store ctx ~idx ~size:4 (Regs.esp, -4) src;
  emit ctx ~idx
    (A.Alu { op = A.HSub; rd = Regs.esp; a = Regs.esp; b = A.I 4 })

(* ------------------------------------------------------------------ *)
(* Exits                                                               *)
(* ------------------------------------------------------------------ *)

let stub_const ctx ?(kind = Vliw.Code.Enext) ~target ~retired () =
  let label = Ir.fresh_label ctx.ir in
  ctx.stubs <-
    Sconst { label; target; retired; base = ctx.committed; kind } :: ctx.stubs;
  label

let stub_reg ctx ~reg ~retired =
  let label = Ir.fresh_label ctx.ir in
  ctx.stubs <- Sreg { label; reg; retired; base = ctx.committed } :: ctx.stubs;
  label

(* ------------------------------------------------------------------ *)
(* Per-instruction lowering                                            *)
(* ------------------------------------------------------------------ *)

(* [retired] = number of x86 instructions completed if control leaves
   right after this one (idx + 1). *)
let lower_insn ctx ~idx (info : Region.insn_info) =
  let retired = idx + 1 in
  let next = (info.Region.addr + info.Region.len) land 0xffffffff in
  (* Stylized SMC: materialize the instruction's imm32 by loading it
     from the code image at run time. *)
  let imm_src imm =
    if
      Policy.ISet.mem info.Region.addr ctx.policy.Policy.stylized_imms
      && info.Region.imm32_addr <> None
    then begin
      let addr = Option.get info.Region.imm32_addr in
      let ta = vreg ctx in
      emit ctx ~idx (A.MovI { rd = ta; imm = addr });
      let t = vreg ctx in
      emit ctx ~idx
        (A.Load
           { rd = t; base = ta; disp = 0; size = 4; spec = false; protect = None; check = 0 });
      A.R t
    end
    else A.I imm
  in
  match info.Region.insn with
  | Insn.Arith (op, sz, ops) -> (
      let xop = xop_of_arith op in
      let alux ~rd a b =
        emit ctx ~idx (A.AluX { op = xop; size = sz; rd; a; b; fr; fw = fr })
      in
      match ops with
      | Insn.RM_R (rm, r) ->
          let dst = prep_dst ctx ~idx sz rm in
          let a = read_dst ctx ~idx dst in
          let b = read_reg ctx ~idx sz r in
          if op = Insn.Cmp then alux ~rd:None (A.R a) (A.R b)
          else begin
            match direct_rd dst with
            | Some r -> alux ~rd:(Some r) (A.R a) (A.R b)
            | None ->
                let t = vreg ctx in
                alux ~rd:(Some t) (A.R a) (A.R b);
                write_dst ctx ~idx dst t
          end
      | Insn.R_RM (r, rm) ->
          let a = read_reg ctx ~idx sz r in
          let b = read_rm ctx ~idx sz rm in
          if op = Insn.Cmp then alux ~rd:None (A.R a) (A.R b)
          else if sz = Insn.S32 then alux ~rd:(Some r) (A.R a) (A.R b)
          else begin
            let t = vreg ctx in
            alux ~rd:(Some t) (A.R a) (A.R b);
            write8 ctx ~idx r t
          end
      | Insn.RM_I (rm, i) ->
          let dst = prep_dst ctx ~idx sz rm in
          let a = read_dst ctx ~idx dst in
          let b = if sz = Insn.S32 then imm_src i else A.I i in
          if op = Insn.Cmp then alux ~rd:None (A.R a) b
          else begin
            match direct_rd dst with
            | Some r -> alux ~rd:(Some r) (A.R a) b
            | None ->
                let t = vreg ctx in
                alux ~rd:(Some t) (A.R a) b;
                write_dst ctx ~idx dst t
          end)
  | Insn.Test (sz, rm, src) ->
      let a = read_rm ctx ~idx sz rm in
      let b =
        match src with
        | Insn.T_R r -> A.R (read_reg ctx ~idx sz r)
        | Insn.T_I i -> if sz = Insn.S32 then imm_src i else A.I i
      in
      emit ctx ~idx
        (A.AluX { op = A.XTest; size = sz; rd = None; a = A.R a; b; fr; fw = fr })
  | Insn.Mov (sz, ops) -> (
      match ops with
      | Insn.RM_R (rm, r) -> (
          match (sz, rm) with
          | Insn.S32, Insn.R d -> emit ctx ~idx (A.MovR { rd = d; rs = r })
          | Insn.S8, Insn.R d -> write8 ctx ~idx d (read8 ctx ~idx r)
          | _, Insn.M m ->
              let a = lower_addr ctx ~idx m in
              let v = read_reg ctx ~idx sz r in
              store ctx ~idx ~size:(size_bytes sz) a (A.R v))
      | Insn.R_RM (r, rm) -> (
          match (sz, rm) with
          | Insn.S32, Insn.R s -> emit ctx ~idx (A.MovR { rd = r; rs = s })
          | Insn.S8, Insn.R s -> write8 ctx ~idx r (read8 ctx ~idx s)
          | _, Insn.M m ->
              let a = lower_addr ctx ~idx m in
              let t = load ctx ~idx ~size:(size_bytes sz) a in
              write_reg ctx ~idx sz r t)
      | Insn.RM_I (rm, i) -> (
          match (sz, rm) with
          | Insn.S32, Insn.R d -> (
              match imm_src i with
              | A.I imm -> emit ctx ~idx (A.MovI { rd = d; imm })
              | A.R t -> emit ctx ~idx (A.MovR { rd = d; rs = t }))
          | Insn.S8, Insn.R d ->
              let t = vreg ctx in
              emit ctx ~idx (A.MovI { rd = t; imm = i });
              write8 ctx ~idx d t
          | _, Insn.M m ->
              let a = lower_addr ctx ~idx m in
              let src = if sz = Insn.S32 then imm_src i else A.I i in
              store ctx ~idx ~size:(size_bytes sz) a src))
  | Insn.Movx { sign; dst; src } -> (
      match src with
      | Insn.R r ->
          let g = Regs.r8_gpr r and sh = Regs.r8_shift r in
          emit ctx ~idx (A.ExtField { rd = dst; rs = g; shift = sh; width = 8; sign })
      | Insn.M m ->
          let a = lower_addr ctx ~idx m in
          let t = load ctx ~idx ~size:1 a in
          if sign then
            emit ctx ~idx (A.ExtField { rd = dst; rs = t; shift = 0; width = 8; sign = true })
          else emit ctx ~idx (A.MovR { rd = dst; rs = t }))
  | Insn.Lea (r, m) -> (
      let base, disp = lower_addr ctx ~idx m in
      if disp = 0 then emit ctx ~idx (A.MovR { rd = r; rs = base })
      else emit ctx ~idx (A.Alu { op = A.HAdd; rd = r; a = base; b = A.I disp }))
  | Insn.Xchg (sz, rm, r) -> (
      match (sz, rm) with
      | Insn.S32, Insn.R a ->
          let t = vreg ctx in
          emit ctx ~idx (A.MovR { rd = t; rs = a });
          emit ctx ~idx (A.MovR { rd = a; rs = r });
          emit ctx ~idx (A.MovR { rd = r; rs = t })
      | _ ->
          let dst = prep_dst ctx ~idx sz rm in
          let a = read_dst ctx ~idx dst in
          let b = read_reg ctx ~idx sz r in
          write_dst ctx ~idx dst b;
          write_reg ctx ~idx sz r a)
  | Insn.Inc (sz, rm) | Insn.Dec (sz, rm) | Insn.Not (sz, rm) | Insn.Neg (sz, rm)
    -> (
      let xop =
        match info.Region.insn with
        | Insn.Inc _ -> A.XInc
        | Insn.Dec _ -> A.XDec
        | Insn.Not _ -> A.XNot
        | _ -> A.XNeg
      in
      let dst = prep_dst ctx ~idx sz rm in
      let a = read_dst ctx ~idx dst in
      match direct_rd dst with
      | Some r ->
          emit ctx ~idx
            (A.AluX { op = xop; size = sz; rd = Some r; a = A.R a; b = A.I 0; fr; fw = fr })
      | None ->
          let t = vreg ctx in
          emit ctx ~idx
            (A.AluX { op = xop; size = sz; rd = Some t; a = A.R a; b = A.I 0; fr; fw = fr });
          write_dst ctx ~idx dst t)
  | Insn.Shift (op, sz, rm, count) -> (
      let xop = xop_of_shift op in
      let b =
        match count with
        | Insn.C1 -> A.I 1
        | Insn.Cimm i -> A.I i
        | Insn.Ccl -> A.R Regs.ecx (* AluX masks the count to 5 bits *)
      in
      let dst = prep_dst ctx ~idx sz rm in
      let a = read_dst ctx ~idx dst in
      match direct_rd dst with
      | Some r ->
          emit ctx ~idx
            (A.AluX { op = xop; size = sz; rd = Some r; a = A.R a; b; fr; fw = fr })
      | None ->
          let t = vreg ctx in
          emit ctx ~idx
            (A.AluX { op = xop; size = sz; rd = Some t; a = A.R a; b; fr; fw = fr });
          write_dst ctx ~idx dst t)
  | Insn.Mul (sz, rm) | Insn.Imul1 (sz, rm) -> (
      let signed =
        match info.Region.insn with Insn.Imul1 _ -> true | _ -> false
      in
      let b = read_rm ctx ~idx sz rm in
      match sz with
      | Insn.S32 ->
          emit ctx ~idx
            (A.MulX
               { signed; size = Insn.S32; rd_lo = Regs.eax; rd_hi = Some Regs.edx;
                 a = A.R Regs.eax; b = A.R b; fr; fw = fr })
      | Insn.S8 ->
          let al = read8 ctx ~idx 0 in
          let tlo = vreg ctx and thi = vreg ctx in
          emit ctx ~idx
            (A.MulX
               { signed; size = Insn.S8; rd_lo = tlo; rd_hi = Some thi;
                 a = A.R al; b = A.R b; fr; fw = fr });
          write8 ctx ~idx 0 tlo;
          write8 ctx ~idx 4 thi)
  | Insn.Imul2 (r, rm) ->
      let b = read_rm ctx ~idx Insn.S32 rm in
      emit ctx ~idx
        (A.MulX
           { signed = true; size = Insn.S32; rd_lo = r; rd_hi = None;
             a = A.R r; b = A.R b; fr; fw = fr })
  | Insn.Div (sz, rm) | Insn.Idiv (sz, rm) -> (
      let signed =
        match info.Region.insn with Insn.Idiv _ -> true | _ -> false
      in
      let d = read_rm ctx ~idx sz rm in
      match sz with
      | Insn.S32 ->
          emit ctx ~idx
            (A.DivX
               { signed; size = Insn.S32; rd_q = Regs.eax; rd_r = Regs.edx;
                 hi = Regs.edx; lo = Regs.eax; divisor = A.R d })
      | Insn.S8 ->
          let ah = read8 ctx ~idx 4 and al = read8 ctx ~idx 0 in
          let tq = vreg ctx and tr = vreg ctx in
          emit ctx ~idx
            (A.DivX
               { signed; size = Insn.S8; rd_q = tq; rd_r = tr; hi = ah; lo = al;
                 divisor = A.R d });
          write8 ctx ~idx 0 tq;
          write8 ctx ~idx 4 tr)
  | Insn.Cdq ->
      (* edx = eax asr 31 *)
      emit ctx ~idx
        (A.Alu { op = A.HSar; rd = Regs.edx; a = Regs.eax; b = A.I 31 })
  | Insn.Push src -> (
      match src with
      | Insn.PushR r -> push32 ctx ~idx (A.R r)
      | Insn.PushI i -> push32 ctx ~idx (imm_src i)
      | Insn.PushM m ->
          let a = lower_addr ctx ~idx m in
          let t = load ctx ~idx ~size:4 a in
          push32 ctx ~idx (A.R t))
  | Insn.Pop rm -> (
      let t = load ctx ~idx ~size:4 (Regs.esp, 0) in
      emit ctx ~idx
        (A.Alu { op = A.HAdd; rd = Regs.esp; a = Regs.esp; b = A.I 4 });
      match rm with
      | Insn.R r -> emit ctx ~idx (A.MovR { rd = r; rs = t })
      | Insn.M m ->
          (* address uses the updated ESP, like hardware *)
          let a = lower_addr ctx ~idx m in
          store ctx ~idx ~size:4 a (A.R t))
  | Insn.Jcc (cc, target) ->
      if info.Region.loops then begin
        (* taken edge goes back to the region entry via a stub that
           commits the completed iteration first; the fallthrough path
           is unaffected (its later exit retires the full path) *)
        let l = Ir.fresh_label ctx.ir in
        ctx.stubs <-
          Sback { label = l; retired; base = ctx.committed } :: ctx.stubs;
        emit ctx ~idx (A.BrCond { cond = cc; fr; target = l });
        (match ctx.ir.Ir.items with
        | Ir.Op o :: _ -> o.Ir.barrier <- true
        | _ -> ())
      end
      else begin
        match info.Region.follow with
        | Region.FTarget ->
            (* trace follows the taken edge; exit on the fallthrough *)
            let l = stub_const ctx ~target:next ~retired () in
            emit ctx ~idx (A.BrCond { cond = Cond.negate cc; fr; target = l })
        | Region.FNext | Region.FEnd ->
            let l = stub_const ctx ~target ~retired () in
            emit ctx ~idx (A.BrCond { cond = cc; fr; target = l })
      end
  | Insn.Setcc (cc, rm) -> (
      let t = vreg ctx in
      emit ctx ~idx (A.SetCond { rd = t; cond = cc; fr });
      match rm with
      | Insn.R r -> write8 ctx ~idx r t
      | Insn.M m ->
          let a = lower_addr ctx ~idx m in
          store ctx ~idx ~size:1 a (A.R t))
  | Insn.Jmp target ->
      if info.Region.loops then begin
        emit ctx ~idx (A.MovI { rd = Vliw.Abi.eip; imm = ctx.region.Region.entry });
        emit ctx ~idx (A.Commit (retired - ctx.committed));
        emit ctx ~idx (A.Br { target = ctx.entry_label });
        (match ctx.ir.Ir.items with
        | Ir.Op o :: _ -> o.Ir.barrier <- true
        | _ -> ())
      end
      else if info.Region.follow = Region.FTarget then () (* folded away *)
      else
        let l = stub_const ctx ~target ~retired () in
        emit ctx ~idx (A.Br { target = l })
  | Insn.JmpInd rm ->
      let t = read_rm ctx ~idx Insn.S32 rm in
      let l = stub_reg ctx ~reg:t ~retired in
      emit ctx ~idx (A.Br { target = l })
  | Insn.Call target ->
      push32 ctx ~idx (A.I next);
      let l = stub_const ctx ~target ~retired () in
      emit ctx ~idx (A.Br { target = l })
  | Insn.CallInd rm ->
      let t = read_rm ctx ~idx Insn.S32 rm in
      push32 ctx ~idx (A.I next);
      let l = stub_reg ctx ~reg:t ~retired in
      emit ctx ~idx (A.Br { target = l })
  | Insn.Ret n ->
      let t = load ctx ~idx ~size:4 (Regs.esp, 0) in
      emit ctx ~idx
        (A.Alu { op = A.HAdd; rd = Regs.esp; a = Regs.esp; b = A.I (4 + n) });
      let l = stub_reg ctx ~reg:t ~retired in
      emit ctx ~idx (A.Br { target = l })
  | Insn.Strop { rep; op; size } ->
      let bytes = size_bytes size in
      let l_loop = Ir.fresh_label ctx.ir in
      let l_done = Ir.fresh_label ctx.ir in
      if not rep then begin
        (match op with
        | Insn.Movs ->
            let t = load ctx ~idx ~size:bytes (Regs.esi, 0) in
            store ctx ~idx ~size:bytes (Regs.edi, 0) (A.R t);
            emit ctx ~idx
              (A.Alu { op = A.HAdd; rd = Regs.esi; a = Regs.esi; b = A.I bytes })
        | Insn.Stos ->
            let v =
              match size with
              | Insn.S8 -> read8 ctx ~idx 0
              | Insn.S32 -> Regs.eax
            in
            store ctx ~idx ~size:bytes (Regs.edi, 0) (A.R v));
        emit ctx ~idx
          (A.Alu { op = A.HAdd; rd = Regs.edi; a = Regs.edi; b = A.I bytes })
      end
      else begin
        (* committed EIP must stay on the REP instruction while the loop
           commits per iteration (restartable semantics) *)
        emit ctx ~idx (A.MovI { rd = Vliw.Abi.eip; imm = info.Region.addr });
        (* Checkpoint the instructions completed before the string op.
           The per-iteration commits below publish their architectural
           effects, so deferring their count to the path-end commit
           would let an interrupt taken at a mid-string commit point (a
           consistent state — no rollback) leave the translation with
           committed-but-uncounted instructions, permanently stalling
           the retired-instruction clock that drives timers and
           injected events.  Later commits on this path count relative
           to [ctx.committed]. *)
        if idx > ctx.committed then begin
          emit ctx ~idx (A.Commit (idx - ctx.committed));
          ctx.committed <- idx
        end;
        Ir.emit_label ctx.ir l_loop;
        emit ctx ~idx (A.BrCmp { cmp = A.Ceq; a = Regs.ecx; b = A.I 0; target = l_done });
        (match op with
        | Insn.Movs ->
            let t = load ctx ~idx ~size:bytes (Regs.esi, 0) in
            store ctx ~idx ~size:bytes (Regs.edi, 0) (A.R t);
            emit ctx ~idx
              (A.Alu { op = A.HAdd; rd = Regs.esi; a = Regs.esi; b = A.I bytes })
        | Insn.Stos ->
            let v =
              match size with
              | Insn.S8 -> read8 ctx ~idx 0
              | Insn.S32 -> Regs.eax
            in
            store ctx ~idx ~size:bytes (Regs.edi, 0) (A.R v));
        emit ctx ~idx
          (A.Alu { op = A.HAdd; rd = Regs.edi; a = Regs.edi; b = A.I bytes });
        emit ctx ~idx
          (A.Alu { op = A.HSub; rd = Regs.ecx; a = Regs.ecx; b = A.I 1 });
        emit ctx ~idx (A.Commit 0);
        emit ctx ~idx (A.Br { target = l_loop });
        Ir.emit_label ctx.ir l_done
      end
  | Insn.In _ | Insn.Out _ | Insn.Int _ | Insn.Int3 | Insn.Iret | Insn.Hlt
  | Insn.Cli | Insn.Sti | Insn.Lidt _ | Insn.Pushf | Insn.Popf ->
      (* interpreter-only; region selection never includes these *)
      assert false
  | Insn.Nop -> ()

(* ------------------------------------------------------------------ *)
(* Whole-region lowering                                               *)
(* ------------------------------------------------------------------ *)

(* Emit the exit stubs collected during lowering. *)
let emit_stubs ctx =
  List.iter
    (fun stub ->
      match stub with
      | Sconst { label; target; retired; base; kind } ->
          Ir.emit_label ctx.ir label;
          let exit_idx =
            Ir.add_exit ctx.ir ~target:(Vliw.Code.Const target) ~kind
              ~x86_retired:retired
          in
          emit ctx ~idx:(retired - 1) (A.MovI { rd = Vliw.Abi.eip; imm = target });
          emit ctx ~idx:(retired - 1) (A.Commit (retired - base));
          emit ctx ~idx:(retired - 1) (A.Exit exit_idx)
      | Sreg { label; reg; retired; base } ->
          Ir.emit_label ctx.ir label;
          let exit_idx =
            Ir.add_exit ctx.ir ~target:(Vliw.Code.FromReg Vliw.Abi.eip)
              ~kind:Vliw.Code.Enext ~x86_retired:retired
          in
          emit ctx ~idx:(retired - 1) (A.MovR { rd = Vliw.Abi.eip; rs = reg });
          emit ctx ~idx:(retired - 1) (A.Commit (retired - base));
          emit ctx ~idx:(retired - 1) (A.Exit exit_idx)
      | Sback { label; retired; base } ->
          Ir.emit_label ctx.ir label;
          (* committed EIP at an iteration boundary is the entry *)
          emit ctx ~idx:(retired - 1)
            (A.MovI { rd = Vliw.Abi.eip; imm = ctx.region.Region.entry });
          emit ctx ~idx:(retired - 1) (A.Commit (retired - base));
          emit ctx ~idx:(retired - 1) (A.Br { target = ctx.entry_label }))
    (List.rev ctx.stubs)

(** Lower a region to IR.  The returned IR still uses virtual registers
    and label ids; optimization, scheduling and register allocation
    follow. *)
let lower ~(policy : Policy.t) (region : Region.t) =
  let ir = Ir.create () in
  let ctx =
    { ir; region; policy; stubs = []; committed = 0;
      entry_label = Ir.fresh_label ir }
  in
  Ir.emit_label ir ctx.entry_label;
  let n = Array.length region.Region.insns in
  Array.iteri (fun idx info -> lower_insn ctx ~idx info) region.Region.insns;
  (* Fallthrough off the end of the trace. *)
  (match region.Region.cont with
  | Some c ->
      let l = stub_const ctx ~target:c ~retired:n () in
      emit ctx ~idx:(n - 1) (A.Br { target = l })
  | None -> ());
  emit_stubs ctx;
  ir
