(** Seeded random x86 program generator.

    Emits structured, *terminating-by-construction* guest programs as
    {!X86.Asm} item lists: a fixed skeleton (IDT with every vector
    installed, register init, [sti] when interrupts are in play, and a
    parking epilogue — an interruptible halt loop when IRQs are in
    play, [cli; hlt] otherwise) around randomized blocks of
    instruction slots.

    Robustness rules that make every generated program a valid oracle
    subject, whatever the dice say:

    - Loops are single-level, bounded by the reserved counter register
      EBP, which no random operand may touch (ESP likewise).
    - Memory operands land inside a dedicated scratch window (or are
      explicit SMC patches of known immediate cells, MMIO touches of the
      frame buffer, or rare probes of an unmapped page).
    - Stack traffic comes only in balanced push/pop pairs or call/ret to
      generated leaf functions.
    - Fault handlers are abort-style: reset ESP, bump a counter cell,
      and jump through a resume cell that each block points at its
      successor — so any fault (deliberate #DE/#PF slots included)
      deterministically skips to the next block.
    - Interrupt handlers only increment dedicated counter cells and
      IRET, so the architectural end state does not depend on exactly
      which instruction boundary delivery lands on — the property that
      makes comparing interpreter and translator runs sound.
    - Divisions are guarded (zeroed/sign-extended high half, non-zero
      divisor) except for deliberate rare divide-fault slots. *)

module Journal = Cms_persist.Journal

open X86.Asm

(* ------------------------------------------------------------------ *)
(* Memory layout (shared with the oracle and corpus replays)           *)
(* ------------------------------------------------------------------ *)

let code_base = 0x10000
let stack_top = 0x80000

(** Stack pages [stack_lo, stack_top): excluded from the cross-config
    memory digest, because interrupt delivery pushes/pops its frame at
    boundaries that legitimately differ between interpreter and
    translator runs, leaving different dead bytes below ESP. *)
let stack_lo = 0x70000

let cells = 0x40000 (* one page of counter/linkage cells *)
let resume_cell = cells (* fault handler jumps through here *)
let fault_cell = cells + 4 (* faults taken *)
let int_cell = cells + 8 (* int 0x30 traps *)
let bp_cell = cells + 12 (* int3 traps *)
let irq_cell k = cells + 16 + (4 * k) (* per-line IRQ deliveries *)

let scratch_lo = 0x41000
let scratch_hi = 0x48000 (* exclusive; 7 pages *)
let fb_base = 0xa0000
let fb_size = 0x10000
let unmapped_base = 0x300000 (* beyond the 2 MiB identity map *)

let irq_lines = 4

(* NIC front (packet-arrival events): a static RX ring programmed once
   in the prologue — descriptors and buffers live just past the scratch
   window, where no random slot and no sync DMA event can touch them,
   so ring contents are a pure function of the delivered frame list. *)
let nic_ring = 0x49000 (* descriptor area *)
let nic_bufs = 0x49100 (* frame buffers *)
let nic_slots = 4
let nic_buf_cap = 64
let nic_cell = cells + 16 + (4 * irq_lines) (* NIC IRQ deliveries *)

(* ------------------------------------------------------------------ *)
(* Case structure                                                      *)
(* ------------------------------------------------------------------ *)

(** A slot is one semantic unit: optional operand setup plus the
    instruction(s) under test.  The shrinker deletes whole slots, which
    keeps candidates valid by construction. *)
type slot = { items : item list }

type block = {
  loop : int option;  (** iteration count of the EBP-bounded loop *)
  slots : slot list;
}

type func = { ret_imm : int; fslots : slot list }
(* ret_imm > 0 means the function returns with [ret n] and every call
   site pushes one extra word first *)

type prog = {
  blocks : block list;
  funcs : func list;
  has_irq : bool;  (** prologue STI + handler re-enable *)
  nic : int option;
      (** NIC front armed, with this mitigation-register value: the
          prologue programs a static [nic_slots]-descriptor RX ring and
          enables the device, and packet-arrival events may inject *)
}

type case = {
  seed : int;  (** campaign seed, for reporting *)
  index : int;  (** case number within the campaign *)
  prog : prog;
  events : Journal.guest_event list;
}

(* ------------------------------------------------------------------ *)
(* Slot generators                                                     *)
(* ------------------------------------------------------------------ *)

(* Registers random operands may use: everything but ESP (stack) and
   EBP (reserved loop counter). *)
let gp_regs = [| eax; ecx; edx; ebx; esi; edi |]

let reg rng = Srng.choose rng gp_regs
let reg8 rng = Srng.int rng 8 (* al..bh: aliases of eax..ebx only *)

let imm32 rng = Srng.int32 rng
let imm8 rng = Srng.int rng 256

(* A scratch-window address with room for [slack] bytes after it. *)
let scratch_addr rng ~slack =
  scratch_lo + Srng.int rng (scratch_hi - scratch_lo - slack)

(* A random addressing form resolving inside the scratch window (with
   [slack] bytes of room), together with its setup instructions.
   Returns registers it clobbers so callers can avoid reusing them. *)
let mem_operand rng ~slack =
  match Srng.int rng 4 with
  | 0 ->
      (* absolute [disp32] *)
      ([], m (scratch_addr rng ~slack))
  | 1 ->
      (* [base + disp] with mod 0/1/2 displacements *)
      let b = reg rng in
      let d = Srng.choose rng [| 0; Srng.int rng 0x80; 0x100 + Srng.int rng 0x600 |] in
      let addr = scratch_addr rng ~slack:(slack + d) in
      ([ mov_ri b addr ], mbd b d)
  | 2 ->
      (* [base + index*scale + disp] *)
      let b = reg rng in
      let x = ref (reg rng) in
      while !x = b || !x = esp do x := reg rng done;
      let scale = Srng.choose rng [| 1; 2; 4; 8 |] in
      let k = Srng.int rng 16 in
      let d = Srng.int rng 0x40 in
      let addr = scratch_addr rng ~slack:(slack + (16 * scale) + d) in
      ([ mov_ri b addr; mov_ri !x k ], mbid b !x scale d)
  | _ ->
      (* [index*scale + disp32], no base *)
      let x = reg rng in
      let scale = Srng.choose rng [| 1; 2; 4; 8 |] in
      let k = Srng.int rng 16 in
      let addr = scratch_addr rng ~slack:(slack + (16 * scale)) in
      ([ mov_ri x k ], X86.Insn.mem ~index:(x, scale) addr)

open X86.Insn

let arith_ops = [| Add; Or; Adc; Sbb; And; Sub; Xor; Cmp |]
let shift_ops = [| Shl; Shr; Sar; Rol; Ror |]

let slot_arith rng =
  let op = Srng.choose rng arith_ops in
  let sz = if Srng.bool rng then S32 else S8 in
  match Srng.int rng 6 with
  | 0 -> [ I (Arith (op, sz, RM_R (R (reg rng), reg rng))) ]
  | 1 ->
      let setup, mm = mem_operand rng ~slack:4 in
      setup @ [ I (Arith (op, sz, RM_R (M mm, reg rng))) ]
  | 2 -> [ I (Arith (op, sz, R_RM (reg rng, R (reg rng)))) ]
  | 3 ->
      let setup, mm = mem_operand rng ~slack:4 in
      setup @ [ I (Arith (op, sz, R_RM (reg rng, M mm))) ]
  | 4 ->
      let i = match sz with S8 -> imm8 rng | S32 -> imm32 rng in
      [ I (Arith (op, sz, RM_I (R (reg rng), i))) ]
  | _ ->
      let setup, mm = mem_operand rng ~slack:4 in
      let i = match sz with S8 -> imm8 rng | S32 -> imm32 rng in
      setup @ [ I (Arith (op, sz, RM_I (M mm, i))) ]

let slot_test rng =
  let sz = if Srng.bool rng then S32 else S8 in
  let with_rm f =
    if Srng.bool rng then [ I (f (R (reg rng))) ]
    else
      let setup, mm = mem_operand rng ~slack:4 in
      setup @ [ I (f (M mm)) ]
  in
  if Srng.bool rng then with_rm (fun rm -> Test (sz, rm, T_R (reg rng)))
  else
    let i = match sz with S8 -> imm8 rng | S32 -> imm32 rng in
    with_rm (fun rm -> Test (sz, rm, T_I i))

let slot_mov rng =
  match Srng.int rng 8 with
  | 0 -> [ mov_rr (reg rng) (reg rng) ]
  | 1 -> [ mov_ri (reg rng) (imm32 rng) ]
  | 2 ->
      let setup, mm = mem_operand rng ~slack:4 in
      setup @ [ mov_rm (reg rng) mm ]
  | 3 ->
      let setup, mm = mem_operand rng ~slack:4 in
      setup @ [ mov_mr mm (reg rng) ]
  | 4 ->
      let setup, mm = mem_operand rng ~slack:4 in
      setup @ [ mov_mi mm (imm32 rng) ]
  | 5 -> [ mov8_ri (reg8 rng) (imm8 rng) ]
  | 6 ->
      let setup, mm = mem_operand rng ~slack:1 in
      setup
      @ [
          (if Srng.bool rng then mov8_mi mm (imm8 rng)
           else I (Mov (S8, RM_R (M mm, reg8 rng))));
        ]
  | _ ->
      let setup, mm = mem_operand rng ~slack:1 in
      setup @ [ I (Mov (S8, R_RM (reg8 rng, M mm))) ]

let slot_movx rng =
  let sign = Srng.bool rng in
  if Srng.bool rng then
    [ I (Movx { sign; dst = reg rng; src = R (reg8 rng) }) ]
  else
    let setup, mm = mem_operand rng ~slack:1 in
    setup @ [ I (Movx { sign; dst = reg rng; src = M mm }) ]

(* LEA never dereferences: any operand combination is safe, so this is
   where arbitrary ModRM/SIB shapes (including EBP bases and huge
   displacements) get exercised. *)
let slot_lea rng =
  let base = if Srng.bool rng then Some (Srng.choose rng gp_regs) else None in
  let index =
    if Srng.bool rng then
      let x = ref (reg rng) in
      while !x = esp do x := reg rng done;
      Some (!x, Srng.choose rng [| 1; 2; 4; 8 |])
    else None
  in
  [ lea (reg rng) (X86.Insn.mem ?base ?index (imm32 rng)) ]

let slot_xchg rng =
  let sz = if Srng.bool rng then S32 else S8 in
  if Srng.bool rng then
    match sz with
    | S32 -> [ xchg_rr (reg rng) (reg rng) ]
    | S8 -> [ I (Xchg (S8, R (reg8 rng), reg8 rng)) ]
  else
    let setup, mm = mem_operand rng ~slack:4 in
    let r = match sz with S32 -> reg rng | S8 -> reg8 rng in
    setup @ [ I (Xchg (sz, M mm, r)) ]

let slot_unary rng =
  let sz = if Srng.bool rng then S32 else S8 in
  let mk rm =
    match Srng.int rng 4 with
    | 0 -> Inc (sz, rm)
    | 1 -> Dec (sz, rm)
    | 2 -> Not (sz, rm)
    | _ -> Neg (sz, rm)
  in
  if Srng.bool rng then
    let r = match sz with S32 -> reg rng | S8 -> reg8 rng in
    [ I (mk (R r)) ]
  else
    let setup, mm = mem_operand rng ~slack:4 in
    setup @ [ I (mk (M mm)) ]

let slot_shift rng =
  let op = Srng.choose rng shift_ops in
  let sz = if Srng.bool rng then S32 else S8 in
  let count =
    match Srng.int rng 3 with
    | 0 -> (C1, [])
    | 1 -> (Cimm (Srng.int rng 32), [])
    | _ -> (Ccl, [ mov8_ri 1 (Srng.int rng 32) ] (* cl *))
  in
  let c, setup_cl = count in
  if Srng.bool rng then
    let r = match sz with S32 -> reg rng | S8 -> reg8 rng in
    setup_cl @ [ I (Shift (op, sz, R r, c)) ]
  else
    let setup, mm = mem_operand rng ~slack:4 in
    setup_cl @ setup @ [ I (Shift (op, sz, M mm, c)) ]

(* Multiplies are unguarded (no faults); divides clamp the dividend and
   load a non-zero divisor, except the rare deliberate #DE slot. *)
let slot_muldiv rng =
  let sz = if Srng.bool rng then S32 else S8 in
  let rm_of setup_ok =
    if Srng.bool rng || not setup_ok then
      let r = ref (reg rng) in
      while !r = eax || !r = edx do r := reg rng done;
      ([], R (match sz with S32 -> !r | S8 -> reg8 rng))
    else
      let setup, mm = mem_operand rng ~slack:4 in
      (setup, M mm)
  in
  match Srng.int rng 6 with
  | 0 ->
      let setup, rm = rm_of true in
      setup @ [ I (Mul (sz, rm)) ]
  | 1 ->
      let setup, rm = rm_of true in
      setup @ [ I (Imul1 (sz, rm)) ]
  | 2 ->
      if Srng.bool rng then [ imul_rr (reg rng) (reg rng) ]
      else
        let setup, mm = mem_operand rng ~slack:4 in
        setup @ [ imul_rm (reg rng) mm ]
  | 3 -> (
      (* guarded div *)
      let d = 1 + Srng.int rng 250 in
      match sz with
      | S32 ->
          let r = ref (reg rng) in
          while !r = eax || !r = edx do r := reg rng done;
          [ mov_ri edx 0; mov_ri !r d; div_r !r ]
      | S8 ->
          (* dividend is AX; zero AH so the quotient fits AL *)
          [ mov8_ri 4 0; mov8_ri 1 d; I (Div (S8, R 1)) ])
  | 4 -> (
      (* guarded idiv *)
      let d = 2 + Srng.int rng 200 in
      match sz with
      | S32 ->
          let r = ref (reg rng) in
          while !r = eax || !r = edx do r := reg rng done;
          [ cdq; mov_ri !r d; idiv_r !r ]
      | S8 ->
          [ mov8_ri 4 0; mov8_ri 1 d; I (Idiv (S8, R 1)) ])
  | _ ->
      if Srng.chance rng 1 8 then
        (* deliberate #DE: the fault handler aborts the block *)
        [ mov_ri ecx 0; div_r ecx ]
      else [ cdq ]

let slot_pushpop rng =
  match Srng.int rng 4 with
  | 0 -> [ push_r (reg rng); pop_r (reg rng) ]
  | 1 -> [ push_i (imm32 rng); pop_r (reg rng) ]
  | 2 ->
      let setup, mm = mem_operand rng ~slack:4 in
      let setup2, mm2 = mem_operand rng ~slack:4 in
      setup @ [ I (Push (PushM mm)) ] @ setup2 @ [ I (Pop (M mm2)) ]
  | _ -> [ pushf; popf ]

let fresh_label =
  (* Unique labels within one rendered listing: the counter resets per
     render, so renders are reproducible. *)
  ref 0

let new_label prefix =
  incr fresh_label;
  Fmt.str "%s_%d" prefix !fresh_label

let slot_jcc rng =
  let cc = Srng.choose_list rng X86.Cond.all in
  let skip = new_label "sk" in
  let guard =
    if Srng.bool rng then cmp_ri (reg rng) (imm32 rng)
    else test_rr (reg rng) (reg rng)
  in
  let body =
    match Srng.int rng 3 with
    | 0 -> [ inc_r (reg rng) ]
    | 1 -> [ xor_ri (reg rng) (imm32 rng) ]
    | _ -> [ mov_ri (reg rng) (imm32 rng) ]
  in
  [ guard; jcc cc skip ] @ body @ [ label skip ]

let slot_setcc rng =
  let cc = Srng.choose_list rng X86.Cond.all in
  if Srng.bool rng then [ setcc cc (reg8 rng) ]
  else
    let setup, mm = mem_operand rng ~slack:1 in
    setup @ [ I (Setcc (cc, M mm)) ]

let slot_jmp rng =
  let cont = new_label "jc" in
  match Srng.int rng 3 with
  | 0 -> [ jmp cont; mov_ri (reg rng) (imm32 rng); label cont ]
  | 1 ->
      let r = reg rng in
      [ mov_rl r cont; jmp_r r; inc_r (reg rng); label cont ]
  | _ ->
      (* data-dependent dispatch through a jump table of forward labels *)
      let tbl = new_label "jt" in
      let l0 = new_label "jl" and l1 = new_label "jl" in
      let b = reg rng in
      let x = ref (reg rng) in
      while !x = b do x := reg rng done;
      [
        mov_rl b tbl;
        mov_ri !x (Srng.int rng 2);
        jmp_m (mbid b !x 4 0);
        label tbl;
        dd_l [ l0; l1 ];
        label l0;
        add_ri (reg rng) (imm32 rng);
        jmp cont;
        label l1;
        sub_ri (reg rng) (imm32 rng);
        label cont;
      ]

let slot_strop rng =
  let rep = Srng.bool rng in
  let op = if Srng.bool rng then Movs else Stos in
  let size = if Srng.bool rng then S32 else S8 in
  let n = Srng.int rng 48 in
  let src = scratch_addr rng ~slack:256 in
  let dst = scratch_addr rng ~slack:256 in
  let setup =
    [ mov_ri edi dst; mov_ri ecx n ]
    @ (match op with Movs -> [ mov_ri esi src ] | Stos -> [])
  in
  setup @ [ I (Strop { rep; op; size }) ]

let slot_io rng ~fuzz_port =
  match Srng.int rng 6 with
  | 0 -> [ I (Out (S8, PortImm fuzz_port)) ] (* sync event trigger *)
  | 1 -> [ I (Out (S32, PortImm fuzz_port)) ]
  | 2 ->
      (* uart output: lands in the compared console digest *)
      [
        mov_ri edx 0x3f8;
        mov_ri eax (0x20 + Srng.int rng 0x5f);
        I (Out ((if Srng.bool rng then S8 else S32), PortDx));
      ]
  | 3 -> [ I (In ((if Srng.bool rng then S8 else S32), PortImm fuzz_port)) ]
  | 4 ->
      (* uart status: deterministic constant *)
      [ mov_ri edx 0x3fd; I (In ((if Srng.bool rng then S8 else S32), PortDx)) ]
  | _ -> [ I (Out (S8, PortImm fuzz_port)) ]

let slot_mmio rng =
  let off = Srng.int rng (fb_size - 8) in
  let b = reg rng in
  let addr = fb_base + off in
  match Srng.int rng 3 with
  | 0 -> [ mov_ri b addr; mov_rm (reg rng) (mb b) ]
  | 1 -> [ mov_ri b addr; mov_mr (mb b) (reg rng) ]
  | _ -> [ mov_ri b addr; add_mi (mb b) (imm32 rng) ]

(* Store to the imm32 cell of another block's patch-point instruction:
   self-modifying code through the full protection ladder. *)
let patch_imm_off =
  (* offset of the imm32 inside the canonical patch-point encoding *)
  match (X86.Encode.encode ~at:0 (Mov (S32, RM_I (R X86.Regs.eax, 0)))).X86.Encode.imm32_off with
  | Some o -> o
  | None -> assert false

let slot_smc rng ~n_blocks =
  let target = Srng.int rng n_blocks in
  let b = reg rng in
  let store =
    if Srng.bool rng then [ mov_mi (mbd b patch_imm_off) (imm32 rng) ]
    else
      let v = ref (reg rng) in
      while !v = b do v := reg rng done;
      [ mov_mr (mbd b patch_imm_off) !v ]
  in
  mov_rl b (Fmt.str "p_%d" target) :: store

let slot_pf_probe rng =
  let b = reg rng in
  let addr = unmapped_base + Srng.int rng 0x10000 in
  if Srng.bool rng then [ mov_ri b addr; mov_rm (reg rng) (mb b) ]
  else [ mov_ri b addr; mov_mr (mb b) (reg rng) ]

let slot_int rng =
  if Srng.bool rng then [ int_ 0x30 ] else [ int3 ]

(* [funcs_ret.(f)] is f's [ret n] immediate (0 for plain ret): call
   sites must push that many extra bytes first to keep ESP balanced. *)
let slot_call rng ~funcs_ret =
  let n_funcs = Array.length funcs_ret in
  if n_funcs = 0 then [ nop ]
  else
    let f = Srng.int rng n_funcs in
    let name = Fmt.str "f_%d" f in
    let extra =
      List.init (funcs_ret.(f) / 4) (fun _ -> push_i (imm32 rng))
    in
    extra
    @
    match Srng.int rng 3 with
    | 0 -> [ call name ]
    | 1 ->
        let r = reg rng in
        [ mov_rl r name; call_r r ]
    | _ ->
        let b = reg rng in
        [ mov_rl b "ftab"; I (CallInd (M (mbd b (4 * f)))) ]

(* ------------------------------------------------------------------ *)
(* Slot dispatch                                                       *)
(* ------------------------------------------------------------------ *)

(* [in_func] excludes slots that are unsafe inside a leaf function
   (nested calls) or pointless there. *)
let gen_slot rng ~n_blocks ~funcs_ret ~in_func ~fuzz_port =
  let pick =
    Srng.weighted rng
      [|
        (18, `Arith); (6, `Test); (14, `Mov); (4, `Movx); (4, `Lea);
        (3, `Xchg); (6, `Unary); (8, `Shift); (6, `Muldiv); (5, `Pushpop);
        (8, `Jcc); (4, `Setcc); (4, `Jmp); (3, `Strop); (5, `Io);
        (3, `Mmio); (4, `Smc); (2, `Pf); (2, `Int); (3, `Call); (1, `Nop);
      |]
  in
  let items =
    match pick with
    | `Arith -> slot_arith rng
    | `Test -> slot_test rng
    | `Mov -> slot_mov rng
    | `Movx -> slot_movx rng
    | `Lea -> slot_lea rng
    | `Xchg -> slot_xchg rng
    | `Unary -> slot_unary rng
    | `Shift -> slot_shift rng
    | `Muldiv -> slot_muldiv rng
    | `Pushpop -> slot_pushpop rng
    | `Jcc -> slot_jcc rng
    | `Setcc -> slot_setcc rng
    | `Jmp -> slot_jmp rng
    | `Strop -> slot_strop rng
    | `Io -> slot_io rng ~fuzz_port
    | `Mmio -> slot_mmio rng
    | `Smc -> if in_func then slot_arith rng else slot_smc rng ~n_blocks
    | `Pf -> slot_pf_probe rng
    | `Int -> slot_int rng
    | `Call -> if in_func then slot_arith rng else slot_call rng ~funcs_ret
    | `Nop -> [ nop ]
  in
  { items }

(* ------------------------------------------------------------------ *)
(* Program generation                                                  *)
(* ------------------------------------------------------------------ *)

let generate_prog rng ~fuzz_port ~has_irq ~nic =
  let n_blocks = Srng.range rng 3 7 in
  let n_funcs = Srng.range rng 0 3 in
  let ret_imms =
    Array.init n_funcs (fun _ -> if Srng.chance rng 1 3 then 4 else 0)
  in
  let funcs =
    List.init n_funcs (fun i ->
        let n = Srng.range rng 1 4 in
        {
          ret_imm = ret_imms.(i);
          fslots =
            List.init n (fun _ ->
                gen_slot rng ~n_blocks ~funcs_ret:ret_imms ~in_func:true
                  ~fuzz_port);
        })
  in
  let blocks =
    List.init n_blocks (fun _ ->
        let loop =
          if Srng.chance rng 1 2 then Some (Srng.range rng 4 40) else None
        in
        let n = Srng.range rng 2 9 in
        {
          loop;
          slots =
            List.init n (fun _ ->
                gen_slot rng ~n_blocks ~funcs_ret:ret_imms ~in_func:false
                  ~fuzz_port);
        })
  in
  { blocks; funcs; has_irq; nic }

(* ------------------------------------------------------------------ *)
(* Rendering: prog -> Asm items                                        *)
(* ------------------------------------------------------------------ *)

(* The IDT covers vectors 0..0x3f.  Architectural faults (#DE #UD #GP
   #PF and anything unexpected) go to the abort-style fault handler;
   INT3 (trap), INT 0x30 (trap) and the PIC vectors 0x20.. get
   transparent counting handlers. *)
let idt_entries ~has_irq:_ =
  let nic_vector = 0x20 + Machine.Platform.nic_irq_line in
  List.init 0x40 (fun v ->
      if v = 3 then "h_bp"
      else if v = 0x30 then "h_int"
      else if v >= 0x20 && v < 0x20 + irq_lines then Fmt.str "h_irq_%d" (v - 0x20)
      else if v = nic_vector then "h_nic"
      else "h_fault")

(** Render a program to an assemble-ready item list.  [entry] is
    [code_base]. *)
let render (p : prog) : item list =
  fresh_label := 0;
  let n_blocks = List.length p.blocks in
  let block_label i = Fmt.str "b_%d" i in
  let next_label i =
    if i + 1 >= n_blocks then "epilogue" else block_label (i + 1)
  in
  let prologue =
    [ jmp "start" ]
    @ [ label "idtptr"; dd_l [ "idt" ] ]
    @ [ label "idt"; dd_l (idt_entries ~has_irq:p.has_irq) ]
    @ [ label "ftab";
        dd_l (List.mapi (fun i _ -> Fmt.str "f_%d" i) p.funcs) ]
    @ [ label "start"; mov_rl eax "idtptr"; lidt (mb eax) ]
    (* static RX ring + device enable, before the random blocks run:
       no random slot can reach the NIC window, so ring geometry is
       fixed for the whole run and packet delivery (gated on an armed
       descriptor) is configuration-independent *)
    @ (match p.nic with
      | None -> []
      | Some mit ->
          List.concat
            (List.init nic_slots (fun i ->
                 [
                   mov_mi (m (nic_ring + (8 * i))) (nic_bufs + (nic_buf_cap * i));
                   mov_mi (m (nic_ring + (8 * i) + 4)) nic_buf_cap;
                 ]))
          @ [
              mov_ri ebx Machine.Platform.nic_base;
              mov_mi (mbd ebx Machine.Nic.r_rx_base) nic_ring;
              mov_mi (mbd ebx Machine.Nic.r_rx_count) nic_slots;
              mov_mi (mbd ebx Machine.Nic.r_mitigation) mit;
              mov_mi (mbd ebx Machine.Nic.r_ctrl) 1;
            ])
    (* randomish but fixed register init; EBP reserved, ESP from boot *)
    @ [
        mov_ri eax 0x01234567;
        mov_ri ecx 0x2;
        mov_ri edx 0x40;
        mov_ri ebx 0x7fffffff;
        mov_ri esi scratch_lo;
        mov_ri edi (scratch_lo + 0x800);
        mov_ri ebp 0;
      ]
    @ (if p.has_irq then [ sti ] else [])
    @ [ jmp "b_0" ]
  in
  let handlers =
    [
      label "h_fault";
      mov_ri esp stack_top;
      inc_m (m fault_cell);
    ]
    @ (if p.has_irq then [ sti ] else [])
    @ [ jmp_m (m resume_cell) ]
    @ [ label "h_int"; inc_m (m int_cell); iret ]
    @ [ label "h_bp"; inc_m (m bp_cell); iret ]
    @ [ label "h_nic"; inc_m (m nic_cell); iret ]
    @ List.concat
        (List.init irq_lines (fun k ->
             [ label (Fmt.str "h_irq_%d" k); inc_m (m (irq_cell k)); iret ]))
  in
  let funcs =
    List.concat
      (List.mapi
         (fun i f ->
           [ label (Fmt.str "f_%d" i) ]
           @ List.concat_map (fun s -> s.items) f.fslots
           @ [ (if f.ret_imm > 0 then retn f.ret_imm else ret) ])
         p.funcs)
  in
  let blocks =
    List.concat
      (List.mapi
         (fun i b ->
           let loop_head = Fmt.str "bl_%d" i in
           [ label (block_label i) ]
           (* point the fault-resume cell at the next block *)
           @ [ mov_rl edx (next_label i); mov_mr (m resume_cell) edx ]
           (* the patch point SMC slots aim at *)
           @ [ label (Fmt.str "p_%d" i); mov_ri eax 0x11110000 ]
           @ (match b.loop with
             | Some n -> [ mov_ri ebp n; label loop_head ]
             | None -> [])
           @ List.concat_map (fun s -> s.items) b.slots
           @ (match b.loop with
             | Some _ -> [ dec_r ebp; jne loop_head ]
             | None -> []))
         p.blocks)
  in
  (* The epilogue must not drop a latched-but-undelivered IRQ line.  An
     async event raises its line at the first *boundary* where the
     retired count has passed [at], and translator boundaries lag
     interpreter boundaries (the §3.3 slack) — chained translations can
     carry execution from before [at] to past a [cli] without touching
     the dispatcher.  A [cli; hlt] ending therefore loses exactly the
     raises landing in that lag window, making the per-line delivery
     count depend on translation shape — the one thing the
     counting-handler design cannot absorb (found by chaos-mode
     fuzzing, which scrambles translation shapes).  With interrupts in
     play the program instead parks in an interruptible halt loop:
     every raised line eventually wakes it and gets counted, in every
     configuration, and the run ends once nothing more can arrive. *)
  let epilogue =
    [ label "epilogue" ]
    @ (if p.has_irq then [ hlt; jmp "epilogue" ] else [ cli; hlt ])
  in
  prologue @ handlers @ funcs @ blocks @ epilogue

let assemble p = X86.Asm.assemble ~base:code_base (render p)

(* ------------------------------------------------------------------ *)
(* Event generation                                                    *)
(* ------------------------------------------------------------------ *)

(* Sync (DMA / protection-flip) events fire when the guest executes an
   OUT to the harness port — an interpreter-only instruction, hence an
   exact architectural point in every oracle configuration.  Async IRQ
   events key on the retired-instruction count, which the counting-only
   handlers make sound (see module doc). *)
let generate_events rng (listing : X86.Asm.listing) ~has_irq ~has_pkt =
  let n = Srng.range rng 0 6 in
  let patch_cells =
    List.filter_map (fun (name, addr) ->
        if String.length name > 2 && String.sub name 0 2 = "p_" then
          Some (addr + patch_imm_off)
        else None)
      listing.X86.Asm.labels
  in
  let kinds = 2 + (if has_irq then 1 else 0) + if has_pkt then 1 else 0 in
  List.init n (fun _ ->
      match Srng.int rng kinds with
      | 3 ->
          (* NIC frame: fits any armed descriptor ([nic_buf_cap]) *)
          let len = 1 + Srng.int rng 32 in
          let data = String.init len (fun _ -> Char.chr (Srng.int rng 256)) in
          Journal.Pkt { at = 1 + Srng.int rng 3000; data }
      | 0 ->
          let len = 1 + Srng.int rng 8 in
          let data = String.init len (fun _ -> Char.chr (Srng.int rng 256)) in
          let addr =
            if Srng.chance rng 1 3 && patch_cells <> [] then
              Srng.choose_list rng patch_cells
            else scratch_lo + Srng.int rng (scratch_hi - scratch_lo - 8)
          in
          Journal.Dma { addr; data }
      | 1 ->
          let page =
            if Srng.chance rng 1 4 then code_base
            else scratch_lo + (Srng.int rng 7 * 0x1000)
          in
          Journal.Prot { virt = page; writable = Srng.bool rng }
      | _ ->
          Journal.Irq
            { at = 1 + Srng.int rng 3000; line = Srng.int rng irq_lines })

(* ------------------------------------------------------------------ *)
(* Case generation                                                     *)
(* ------------------------------------------------------------------ *)

let generate rng ~seed ~index =
  let has_irq = Srng.chance rng 2 3 in
  (* the NIC front needs the STI prologue: frames deliver through the
     interrupt path *)
  let nic =
    if has_irq && Srng.chance rng 1 2 then Some (1 + Srng.int rng 3) else None
  in
  let prog =
    generate_prog rng ~fuzz_port:Machine.Platform.fuzz_port ~has_irq ~nic
  in
  let listing = assemble prog in
  let events = generate_events rng listing ~has_irq ~has_pkt:(nic <> None) in
  (* no IRQ events without the STI prologue, no frames without a ring *)
  let events =
    List.filter
      (function
        | Journal.Irq _ -> has_irq
        | Journal.Pkt _ -> nic <> None
        | _ -> true)
      events
  in
  { seed; index; prog; events }

(* ------------------------------------------------------------------ *)
(* Coverage keys of a case                                             *)
(* ------------------------------------------------------------------ *)

(* Count what the case actually contains: every instruction of the
   rendered listing (scaffolding included — IRET, LIDT, STI are real
   coverage) plus the injected event kinds. *)
let note_coverage cov (case : case) =
  let items = render case.prog in
  List.iter
    (fun it ->
      let insn =
        match it with
        | I i -> Some i
        | IJcc (cc, _) -> Some (Jcc (cc, 0))
        | IJmp _ -> Some (Jmp 0)
        | ICall _ -> Some (Call 0)
        | IMovLbl (r, _) -> Some (Mov (S32, RM_I (R r, 0)))
        | IPushLbl _ -> Some (Push (PushI 0))
        | Label _ | Raw _ | Dd _ | DdLbl _ | Space _ | Align _ -> None
      in
      match insn with
      | Some i -> Coverage.note cov (Coverage.key i)
      | None -> ())
    items;
  List.iter
    (fun ev ->
      Coverage.note cov
        (match ev with
        | Journal.Irq _ -> "ev.irq"
        | Journal.Dma _ -> "ev.dma"
        | Journal.Prot _ -> "ev.prot"
        | Journal.Pkt _ -> "ev.pkt"
        | Journal.Dma_at _ -> "ev.dma_at"))
    case.events
