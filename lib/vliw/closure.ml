(** Closure-compiled molecule execution — the VLIW executor.

    A scheduled {!Code.t} block is compiled {e once}, at first dispatch,
    into one OCaml closure per molecule: registers are pre-resolved to
    working-array indices, immediates and branch targets are baked into
    the closures, ALU/flag operations are pre-selected, and the
    compile-time-decidable predicates ([Atom.xop_reads_flags], operand
    shapes, field masks) are evaluated at compile time.  Steady-state
    execution is then a closure call per molecule with zero per-execution
    decode, [match], or effect-constructor allocation.

    Each molecule executes in two phases, as the hardware does:

    - phase 1 (evaluation) runs per atom in program order against
      pre-molecule state, performing all faulting checks (loads, store
      checks, divides, alias arming) and latching results in
      per-atom scratch cells; a fault raises {!Exec.Fault_} and no
      phase-2 effect of the molecule lands;
    - phase 2 (application) runs per atom in the same program order:
      register writes, store-buffer pushes (an overflow records the
      native fault but later control effects in the molecule still
      override it: the last control effect wins), commits, and control
      transfers;
    - atoms that cannot fault and read no register defined by a sibling
      atom in the same molecule are {e fused}: their evaluation moves to
      their phase-2 slot, skipping the scratch round-trip.  The fusion
      condition makes this unobservable (their reads still see values no
      sibling write can change, and their writes land in the same
      phase-2 order).

    Nothing checks issue constraints or latencies at run time: every
    install path gates a block on the translation verifier, whose
    [issue-constraints] and [latency] rules check them statically. *)

type t = {
  code : Code.t;  (** the source block (identity / debug dumps) *)
  ex : Exec.t;  (** the execution state the closures are bound to *)
  mols : (unit -> int) array;  (** one compiled closure per molecule *)
  exits : Exec.outcome array;
      (** [Exited i] for every exit-table entry, built once so leaving
          a translation allocates nothing *)
}

(* Control encoding returned by a molecule closure:
   - [>= 0]: next molecule index (fallthrough or taken branch);
   - [-1 .. -nexits]: leave through exit-table entry [-r - 1];
   - [ctrl_sbuf]: gated-store-buffer overflow (native fault). *)
let ctrl_sbuf = min_int

(* Raised during compilation when a block uses a register index outside
   the working array.  The translation verifier's [regalloc-range] rule
   rejects such blocks before they are installed, so installed code
   never raises it; this check stays as the bound that makes the
   closures' [Array.unsafe_get] safe. *)
exception Unsupported

(* Pre-selected x86-flavoured ALU operation (the {!X86.Flags}
   dispatch, resolved at compile time).  Each arm is a full
   three-argument closure returning an {!X86.Flags.packed} result, so
   a molecule applies it directly: no partial application, no tuple. *)
let xop_fn op size : int -> int -> int -> X86.Flags.packed =
  let open X86.Flags in
  match op with
  | Atom.XAdd -> fun fl a b -> add size fl a b
  | XAdc -> fun fl a b -> adc size fl a b
  | XSub -> fun fl a b -> sub size fl a b
  | XSbb -> fun fl a b -> sbb size fl a b
  | XAnd -> fun fl a b -> and_ size fl a b
  | XOr -> fun fl a b -> or_ size fl a b
  | XXor -> fun fl a b -> xor size fl a b
  | XShl -> fun fl a b -> shl size fl a b
  | XShr -> fun fl a b -> shr size fl a b
  | XSar -> fun fl a b -> sar size fl a b
  | XRol -> fun fl a b -> rol size fl a b
  | XRor -> fun fl a b -> ror size fl a b
  | XInc -> fun fl a _ -> inc size fl a
  | XDec -> fun fl a _ -> dec size fl a
  | XNeg -> fun fl a _ -> neg size fl a
  | XNot -> fun fl a _ -> pack (trunc size (lnot a)) fl
  | XTest -> fun fl a b -> test size fl a b
  | XCmp -> fun fl a b -> cmp size fl a b

(** The result of [op] at [size] when nothing reads its flags output
    and its flags input cannot change the result: a masked host
    operation, or [None] for the ops whose result needs the flags
    ([adc], [sbb]) or that this path leaves to {!xop_fn} (shifts,
    rotates, and the flags-only [test]/[cmp]).  Unary ops ignore [b].
    Agrees with [X86.Flags.result] of {!xop_fn} on every input. *)
let result_fn op size : (int -> int -> int) option =
  let m = X86.Flags.mask size in
  match op with
  | Atom.XAdd -> Some (fun a b -> (a + b) land m)
  | XSub -> Some (fun a b -> (a - b) land m)
  | XAnd -> Some (fun a b -> a land b land m)
  | XOr -> Some (fun a b -> (a lor b) land m)
  | XXor -> Some (fun a b -> (a lxor b) land m)
  | XInc -> Some (fun a _ -> (a + 1) land m)
  | XDec -> Some (fun a _ -> (a - 1) land m)
  | XNeg -> Some (fun a _ -> -a land m)
  | XNot -> Some (fun a _ -> lnot a land m)
  | XAdc | XSbb | XShl | XShr | XSar | XRol | XRor | XTest | XCmp -> None

(* Pre-selected host ALU operation (32-bit results; shift counts
   masked to 5 bits). *)
let alu_fn = function
  | Atom.HAdd -> fun a b -> Exec.mask32 (a + b)
  | HSub -> fun a b -> Exec.mask32 (a - b)
  | HAnd -> ( land )
  | HOr -> ( lor )
  | HXor -> ( lxor )
  | HShl -> fun a b -> Exec.mask32 (a lsl (b land 31))
  | HShr -> fun a b -> a lsr (b land 31)
  | HSar -> fun a b -> Exec.mask32 (Exec.sext32 a asr (b land 31))
  | HMul -> fun a b -> Exec.mask32 (a * b)

(* Pre-selected host compare (operands are masked 32-bit values). *)
let cmp_fn = function
  | Atom.Ceq -> fun a b -> a = b
  | Cne -> fun a b -> a <> b
  | Cult -> fun a b -> a < b (* both masked unsigned *)
  | Cule -> fun a b -> a <= b
  | Cslt -> fun a b -> Exec.sext32 a < Exec.sext32 b
  | Csle -> fun a b -> Exec.sext32 a <= Exec.sext32 b

(* Closure sequencing with specialized arities: a 4-atom molecule
   compiles to at most 8 stage closures; chain them without the
   per-stage [Array.iter] callback overhead. *)
let seq (fs : (unit -> unit) array) =
  match Array.length fs with
  | 0 -> fun () -> ()
  | 1 -> fs.(0)
  | 2 ->
      let f0 = fs.(0) and f1 = fs.(1) in
      fun () -> f0 (); f1 ()
  | 3 ->
      let f0 = fs.(0) and f1 = fs.(1) and f2 = fs.(2) in
      fun () -> f0 (); f1 (); f2 ()
  | 4 ->
      let f0 = fs.(0) and f1 = fs.(1) and f2 = fs.(2) and f3 = fs.(3) in
      fun () -> f0 (); f1 (); f2 (); f3 ()
  | 5 ->
      let f0 = fs.(0) and f1 = fs.(1) and f2 = fs.(2) and f3 = fs.(3)
      and f4 = fs.(4) in
      fun () -> f0 (); f1 (); f2 (); f3 (); f4 ()
  | 6 ->
      let f0 = fs.(0) and f1 = fs.(1) and f2 = fs.(2) and f3 = fs.(3)
      and f4 = fs.(4) and f5 = fs.(5) in
      fun () -> f0 (); f1 (); f2 (); f3 (); f4 (); f5 ()
  | 7 ->
      let f0 = fs.(0) and f1 = fs.(1) and f2 = fs.(2) and f3 = fs.(3)
      and f4 = fs.(4) and f5 = fs.(5) and f6 = fs.(6) in
      fun () -> f0 (); f1 (); f2 (); f3 (); f4 (); f5 (); f6 ()
  | 8 ->
      let f0 = fs.(0) and f1 = fs.(1) and f2 = fs.(2) and f3 = fs.(3)
      and f4 = fs.(4) and f5 = fs.(5) and f6 = fs.(6) and f7 = fs.(7) in
      fun () -> f0 (); f1 (); f2 (); f3 (); f4 (); f5 (); f6 (); f7 ()
  | _ -> fun () -> Array.iter (fun f -> f ()) fs

(* Fusion candidates: atoms whose phase-1 evaluation cannot fault and
   has no phase-1-ordered side effect (alias arming, perf counting on
   the abort path).  Whether one actually fuses also depends on its
   read set — see [compile_molecule]. *)
let fusable = function
  | Atom.MovI _ | MovR _ | Alu _ | AluX _ | MulX _ | SetCond _
  | ExtField _ | InsField _ | Br _ | BrCond _ | BrCmp _ | Exit _
  | Commit _ ->
      true
  | Nop | Load _ | Store _ | DivX _ | ArmRange _ -> false

type ctrl_cell = { mutable ctrl : int }

let compile_exn (ex : Exec.t) (code : Code.t) : t =
  let w = ex.Exec.regs.Regfile.working in
  let nregs = Array.length w in
  let perf = ex.Exec.perf in
  let sbuf = ex.Exec.sbuf in
  let cc = { ctrl = 0 } in
  let reg r =
    if r < 0 || r >= nregs then raise Unsupported;
    r
  in
  let src = function
    | Atom.R r ->
        let r = reg r in
        fun () -> Array.unsafe_get w r
    | Atom.I i ->
        let v = Exec.mask32 i in
        fun () -> v
  in
  (* Compile one atom to optional phase-1 (eval) and phase-2 (apply)
     stages.  With [fused], the whole atom runs at its phase-2 slot. *)
  let compile_atom ~fused (a : Atom.t) :
      (unit -> unit) option * (unit -> unit) option =
    match a with
    | Atom.Nop ->
        (Some (fun () -> perf.Perf.nops <- perf.Perf.nops + 1), None)
    | MovI { rd; imm } ->
        let rd = reg rd in
        let v = Exec.mask32 imm in
        (None, Some (fun () -> Array.unsafe_set w rd v))
    | MovR { rd; rs } ->
        let rd = reg rd and rs = reg rs in
        if fused then
          (None, Some (fun () -> Array.unsafe_set w rd (Array.unsafe_get w rs)))
        else
          let c = ref 0 in
          ( Some (fun () -> c := Array.unsafe_get w rs),
            Some (fun () -> Array.unsafe_set w rd !c) )
    | Alu { op; rd; a; b } ->
        let rd = reg rd and ra = reg a in
        let fb = src b in
        let f = alu_fn op in
        if fused then
          ( None,
            Some
              (fun () ->
                Array.unsafe_set w rd (f (Array.unsafe_get w ra) (fb ()))) )
        else
          let c = ref 0 in
          ( Some (fun () -> c := f (Array.unsafe_get w ra) (fb ())),
            Some (fun () -> Array.unsafe_set w rd !c) )
    | AluX { op; size; rd = Some rd; a; b; fr; fw }
      when (not (fr >= 0 && Atom.xop_reads_flags op b))
           && (fw < 0 || op = Atom.XNot)
           && Option.is_some (result_fn op size) ->
        (* dead flags: the result alone, read straight from the slots *)
        let f = Option.get (result_fn op size) in
        let rd = reg rd in
        let value =
          match (a, b) with
          | Atom.R ra, Atom.R rb ->
              let ra = reg ra and rb = reg rb in
              fun () -> f (Array.unsafe_get w ra) (Array.unsafe_get w rb)
          | Atom.R ra, Atom.I i ->
              let ra = reg ra and vb = Exec.mask32 i in
              fun () -> f (Array.unsafe_get w ra) vb
          | Atom.I i, Atom.R rb ->
              let va = Exec.mask32 i and rb = reg rb in
              fun () -> f va (Array.unsafe_get w rb)
          | Atom.I i, Atom.I j ->
              let v = f (Exec.mask32 i) (Exec.mask32 j) in
              fun () -> v
        in
        if fused then (None, Some (fun () -> Array.unsafe_set w rd (value ())))
        else
          let c = ref 0 in
          (Some (fun () -> c := value ()), Some (fun () -> Array.unsafe_set w rd !c))
    | AluX { op; size; rd; a; b; fr; fw } ->
        let fa = src a and fb = src b in
        let xf = xop_fn op size in
        let reads_fl = fr >= 0 && Atom.xop_reads_flags op b in
        let frr = if reads_fl then reg fr else 0 in
        let writes_fl =
          match op with Atom.XNot -> false | _ -> fw >= 0
        in
        let fwr = if writes_fl then reg fw else 0 in
        let has_rd = rd <> None in
        let rdr = match rd with Some r -> reg r | None -> 0 in
        let run_apply p =
          if has_rd then Array.unsafe_set w rdr (X86.Flags.result p);
          if writes_fl then Array.unsafe_set w fwr (X86.Flags.flags p)
        in
        let eval () =
          let fl_in =
            if reads_fl then Array.unsafe_get w frr else X86.Flags.initial
          in
          xf fl_in (fa ()) (fb ())
        in
        if fused then (None, Some (fun () -> run_apply (eval ())))
        else
          let cp = ref 0 in
          (Some (fun () -> cp := eval ()), Some (fun () -> run_apply !cp))
    | MulX { signed; size; rd_lo; rd_hi; a; b; fr = _; fw } ->
        let fa = src a and fb = src b in
        let f, f_hi =
          if signed then
            ( (fun fl a b -> X86.Flags.imul size fl a b),
              fun a b -> X86.Flags.imul_hi size a b )
          else
            ( (fun fl a b -> X86.Flags.mul size fl a b),
              fun a b -> X86.Flags.mul_hi size a b )
        in
        let rlo = reg rd_lo in
        let writes_fl = fw >= 0 in
        let fwr = if writes_fl then reg fw else 0 in
        let has_hi = rd_hi <> None in
        let rhi = match rd_hi with Some r -> reg r | None -> 0 in
        (* apply order: lo, flags, hi *)
        let run_apply p hi =
          Array.unsafe_set w rlo (X86.Flags.result p);
          if writes_fl then Array.unsafe_set w fwr (X86.Flags.flags p);
          if has_hi then Array.unsafe_set w rhi hi
        in
        if fused then
          ( None,
            Some
              (fun () ->
                let a = fa () and b = fb () in
                run_apply
                  (f X86.Flags.initial a b)
                  (if has_hi then f_hi a b else 0)) )
        else
          let cp = ref 0 and chi = ref 0 in
          ( Some
              (fun () ->
                let a = fa () and b = fb () in
                cp := f X86.Flags.initial a b;
                if has_hi then chi := f_hi a b),
            Some (fun () -> run_apply !cp !chi) )
    | DivX { signed; size; rd_q; rd_r; hi; lo; divisor } ->
        let f = if signed then X86.Flags.idiv_q size else X86.Flags.div_q size in
        let rhi = reg hi and rlo = reg lo in
        let fd = src divisor in
        let rq = reg rd_q and rr = reg rd_r in
        let cq = ref 0 and cr = ref 0 in
        ( Some
            (fun () ->
              let l = Array.unsafe_get w rlo and d = fd () in
              let q = f (Array.unsafe_get w rhi) l d in
              if q < 0 then begin
                perf.Perf.x86_fault_atoms <- perf.Perf.x86_fault_atoms + 1;
                Exec.fault (Nexn.X86_fault X86.Exn.DE)
              end;
              cq := q;
              cr := X86.Flags.div_rem size l d q),
          Some
            (fun () ->
              Array.unsafe_set w rq !cq;
              Array.unsafe_set w rr !cr) )
    | SetCond { rd; cond; fr } ->
        let rd = reg rd and fr = reg fr in
        if fused then
          ( None,
            Some
              (fun () ->
                Array.unsafe_set w rd
                  (if X86.Flags.eval_cond cond (Array.unsafe_get w fr) then 1
                   else 0)) )
        else
          let c = ref 0 in
          ( Some
              (fun () ->
                c :=
                  if X86.Flags.eval_cond cond (Array.unsafe_get w fr) then 1
                  else 0),
            Some (fun () -> Array.unsafe_set w rd !c) )
    | ExtField { rd; rs; shift; width; sign } ->
        let rd = reg rd and rs = reg rs in
        let m = (1 lsl width) - 1 in
        let sbit = 1 lsl (width - 1) in
        let wrap = 1 lsl width in
        let extract v =
          let v = (v lsr shift) land m in
          if sign && v land sbit <> 0 then Exec.mask32 (v - wrap) else v
        in
        if fused then
          ( None,
            Some
              (fun () ->
                Array.unsafe_set w rd (extract (Array.unsafe_get w rs))) )
        else
          let c = ref 0 in
          ( Some (fun () -> c := extract (Array.unsafe_get w rs)),
            Some (fun () -> Array.unsafe_set w rd !c) )
    | InsField { rd; rs; shift; width } ->
        let rd = reg rd and rs = reg rs in
        let m = (1 lsl width) - 1 in
        let hole = lnot (m lsl shift) in
        let insert dst sv =
          Exec.mask32 (dst land hole lor ((sv land m) lsl shift))
        in
        if fused then
          ( None,
            Some
              (fun () ->
                Array.unsafe_set w rd
                  (insert (Array.unsafe_get w rd) (Array.unsafe_get w rs))) )
        else
          let c = ref 0 in
          ( Some
              (fun () ->
                c := insert (Array.unsafe_get w rd) (Array.unsafe_get w rs)),
            Some (fun () -> Array.unsafe_set w rd !c) )
    | Load { rd; base; disp; size; spec = _; protect; check = _ } ->
        let rd = reg rd and rb = reg base in
        let c = ref 0 in
        ( Some
            (fun () ->
              perf.Perf.loads <- perf.Perf.loads + 1;
              let vaddr = Exec.mask32 (Array.unsafe_get w rb + disp) in
              c := Exec.do_load ex ~vaddr ~size ~protect),
          Some (fun () -> Array.unsafe_set w rd !c) )
    | Store { rs; base; disp; size; spec; check } ->
        let rb = reg base in
        let fv = src rs in
        (* page-crossing stores split bytewise: at most [size] (≤ 4)
           staged pieces *)
        let sp = Array.make 4 0
        and ss = Array.make 4 0
        and sv = Array.make 4 0 in
        let scount = ref 0 in
        let rec stage ~vaddr ~size ~value =
          if size <= Machine.Mem.page_room vaddr then begin
            let paddr = Exec.store_checks ex ~vaddr ~size ~spec ~check in
            let i = !scount in
            Array.unsafe_set sp i paddr;
            Array.unsafe_set ss i size;
            Array.unsafe_set sv i value;
            scount := i + 1
          end
          else
            for i = 0 to size - 1 do
              stage ~vaddr:(vaddr + i) ~size:1
                ~value:((value lsr (8 * i)) land 0xff)
            done
        in
        ( Some
            (fun () ->
              perf.Perf.stores <- perf.Perf.stores + 1;
              let vaddr = Exec.mask32 (Array.unsafe_get w rb + disp) in
              scount := 0;
              stage ~vaddr ~size ~value:(fv ())),
          Some
            (fun () ->
              for i = 0 to !scount - 1 do
                match
                  Storebuf.push sbuf ~paddr:(Array.unsafe_get sp i)
                    ~size:(Array.unsafe_get ss i)
                    ~value:(Array.unsafe_get sv i)
                with
                | Ok () -> ()
                | Error `Overflow ->
                    perf.Perf.sbuf_overflows <- perf.Perf.sbuf_overflows + 1;
                    cc.ctrl <- ctrl_sbuf
              done) )
    | ArmRange { slot; base; disp; len } ->
        let rb = reg base in
        let alias = ex.Exec.alias in
        let rec arm vaddr remaining =
          if remaining > 0 then begin
            let seg = min remaining (Machine.Mem.page_room vaddr) in
            let paddr = Exec.translate ex Machine.Mmu.Read vaddr in
            Alias.arm alias ~slot ~paddr ~len:seg;
            arm (vaddr + seg) (remaining - seg)
          end
        in
        ( Some
            (fun () -> arm (Exec.mask32 (Array.unsafe_get w rb + disp)) len),
          None )
    | Br { target } -> (None, Some (fun () -> cc.ctrl <- target))
    | BrCond { cond; fr; target } ->
        let fr = reg fr in
        if fused then
          ( None,
            Some
              (fun () ->
                if X86.Flags.eval_cond cond (Array.unsafe_get w fr) then
                  cc.ctrl <- target) )
        else
          let taken = ref false in
          ( Some
              (fun () ->
                taken := X86.Flags.eval_cond cond (Array.unsafe_get w fr)),
            Some (fun () -> if !taken then cc.ctrl <- target) )
    | BrCmp { cmp; a; b; target } ->
        let ra = reg a in
        let fb = src b in
        let f = cmp_fn cmp in
        if fused then
          ( None,
            Some
              (fun () ->
                if f (Array.unsafe_get w ra) (fb ()) then cc.ctrl <- target)
          )
        else
          let taken = ref false in
          ( Some (fun () -> taken := f (Array.unsafe_get w ra) (fb ())),
            Some (fun () -> if !taken then cc.ctrl <- target) )
    | Commit n ->
        ( None,
          Some
            (fun () ->
              perf.Perf.x86_committed <- perf.Perf.x86_committed + n;
              Exec.commit ex) )
    | Exit i ->
        let r = -i - 1 in
        ( None,
          Some
            (fun () ->
              perf.Perf.exits_taken <- perf.Perf.exits_taken + 1;
              cc.ctrl <- r) )
  in
  let compile_molecule pc (m : Molecule.t) =
    let n = Array.length m in
    (* An atom fuses when nothing it reads is defined by a sibling atom
       of the same molecule: deferred to its phase-2 slot, its reads
       still see pre-molecule values. *)
    let fuse i a =
      fusable a
      &&
      let reads = Atom.uses a in
      let clash = ref false in
      Array.iteri
        (fun j b ->
          if j <> i && not !clash then
            let dfs = Atom.defs b in
            if List.exists (fun r -> List.mem r dfs) reads then clash := true)
        m;
      not !clash
    in
    let evals = ref [] and applies = ref [] in
    Array.iteri
      (fun i a ->
        let e, ap = compile_atom ~fused:(fuse i a) a in
        (match e with Some f -> evals := f :: !evals | None -> ());
        match ap with Some f -> applies := f :: !applies | None -> ())
      m;
    let body =
      seq (Array.of_list (List.rev_append !evals (List.rev !applies)))
    in
    let next = pc + 1 in
    fun () ->
      perf.Perf.molecules <- perf.Perf.molecules + 1;
      perf.Perf.atoms <- perf.Perf.atoms + n;
      cc.ctrl <- next;
      body ();
      cc.ctrl
  in
  {
    code;
    ex;
    mols = Array.mapi compile_molecule code.Code.molecules;
    exits = Array.init (Array.length code.Code.exits) (fun i -> Exec.Exited i);
  }

(** Compile [code] against [ex]'s state; [None] when a register index
    lies outside the working array (never for a block the translation
    verifier accepted). *)
let compile ex code =
  match compile_exn ex code with
  | t -> Some t
  | exception Unsupported -> None

(* The dispatch loop: top-level, so a run allocates no closure for it
   and keeps the molecule budget in an argument instead of a [ref]. *)
let rec step t irq_pending budget pc =
  if budget <= 0 then Exec.Runaway
  else if irq_pending () then Exec.Interrupted
  else
    match (Array.get t.mols pc : unit -> int) () with
    | r ->
        if r >= 0 then step t irq_pending (budget - 1) r
        else if r <> ctrl_sbuf then Array.get t.exits (-r - 1)
        else Exec.Faulted Nexn.Sbuf_overflow
    | exception Exec.Fault_ n -> Exec.Faulted n

(** Execute until an exit, fault, interrupt or the molecule budget.
    [irq_pending] is sampled between molecules, modeling asynchronous
    interrupt arrival (§3.3); it is not optional, so a call wraps
    nothing. *)
let run ~irq_pending (t : t) =
  step t irq_pending t.ex.Exec.max_molecules_per_run 0
