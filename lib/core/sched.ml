(** VLIW list scheduler, speculation assignment, and register allocation.

    Packs IR ops into molecules respecting functional units (2 ALU /
    1 MEM / 1 FP-media / 1 BR), operation latencies (explicit nop
    molecules fill exposed latency — the hardware has no interlocks),
    and a dependence graph whose *breakable* edges are where the paper's
    speculation happens:

    - a store→load order edge is removed when the accesses are provably
      disjoint (static disambiguation), or — with the alias hardware —
      by arming a slot at the load and checking it at the store (§3.5);
    - loads may hoist above conditional branches (boosting); rollback
      recovery makes the bookkeeping free (§3.2);
    - stores, guest-state writes, commits and branches are anchors that
      never cross each other: side exits commit, so architectural state
      must be in program order at every branch.

    After scheduling, any load that ended up ahead of a program-earlier
    store or branch is marked [spec] — the bit the hardware uses to
    fault speculative accesses to I/O space (§3.4).

    Register allocation runs after scheduling (temporaries are virtual
    until then, so no false dependences constrain the schedule); running
    out of host temporaries raises {!Regalloc_overflow}, which the
    translator handles by retrying with a smaller region. *)

module A = Vliw.Atom

exception Regalloc_overflow

type opts = {
  reorder : bool;  (** break st→ld edges at all (Fig. 2 knob) *)
  use_alias : bool;  (** alias hardware available (Fig. 3 knob) *)
  alias_slots : int;
}

(* ------------------------------------------------------------------ *)
(* Static disambiguation prepass                                       *)
(* ------------------------------------------------------------------ *)

let sext32 v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

(* Annotate every memory op with the def-version of its base register
   (so "same register" means "same value") and, when the trace itself
   materialized the base (MovI / simple arithmetic on a constant), its
   absolute value.  This gives three-way answers: provably disjoint,
   provably aliasing (never speculate: it would always fault), or
   unknown (the alias hardware's job). *)
let annotate_bases items =
  let ver : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let cst : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let getv r = Hashtbl.find_opt ver r |> Option.value ~default:0 in
  List.iter
    (fun item ->
      match item with
      | Ir.Lbl _ ->
          (* joins invalidate constant knowledge *)
          Hashtbl.reset cst
      | Ir.Op o ->
          (match o.Ir.atom with
          | A.Load { base; _ } | A.Store { base; _ } ->
              o.Ir.base_ver <- getv base;
              o.Ir.base_abs <- Hashtbl.find_opt cst base
          | _ -> ());
          (* update constant/version tracking with this op's defs *)
          (match o.Ir.atom with
          | A.MovI { rd; imm } -> Hashtbl.replace cst rd (imm land 0xffffffff)
          | A.MovR { rd; rs } -> (
              match Hashtbl.find_opt cst rs with
              | Some v -> Hashtbl.replace cst rd v
              | None -> Hashtbl.remove cst rd)
          | A.Alu { op = A.HAdd; rd; a; b = A.I i } when Hashtbl.mem cst a ->
              Hashtbl.replace cst rd ((Hashtbl.find cst a + i) land 0xffffffff)
          | A.Alu { op = A.HSub; rd; a; b = A.I i } when Hashtbl.mem cst a ->
              Hashtbl.replace cst rd ((Hashtbl.find cst a - i) land 0xffffffff)
          | atom -> List.iter (Hashtbl.remove cst) (A.defs atom));
          List.iter
            (fun r -> Hashtbl.replace ver r (getv r + 1))
            (A.defs o.Ir.atom))
    items

type mem_rel = Disjoint | Must_alias | Unknown

let mem_relation (a : Ir.op) (b : Ir.op) =
  match (a.Ir.atom, b.Ir.atom) with
  | ( (A.Load { base = b1; disp = d1; size = s1; _ }
      | A.Store { base = b1; disp = d1; size = s1; _ }),
      (A.Load { base = b2; disp = d2; size = s2; _ }
      | A.Store { base = b2; disp = d2; size = s2; _ }) ) -> (
      let d1 = sext32 (d1 land 0xffffffff) and d2 = sext32 (d2 land 0xffffffff) in
      match (a.Ir.base_abs, b.Ir.base_abs) with
      | Some v1, Some v2 ->
          let lo1 = v1 + d1 and lo2 = v2 + d2 in
          if lo1 + s1 <= lo2 || lo2 + s2 <= lo1 then Disjoint else Must_alias
      | _ ->
          if b1 = b2 && a.Ir.base_ver = b.Ir.base_ver then
            if d1 + s1 <= d2 || d2 + s2 <= d1 then Disjoint else Must_alias
          else Unknown)
  | _ -> Unknown

let is_store a = match a with A.Store _ -> true | _ -> false
let is_arm a = match a with A.ArmRange _ -> true | _ -> false
let is_load a = match a with A.Load _ -> true | _ -> false
let is_commit a = match a with A.Commit _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Dependence graph                                                    *)
(* ------------------------------------------------------------------ *)

(* Nodes are the segment's ops, by program index.  Node [i]'s
   successors are [succ.(k)] for [k] from [succ_start.(i)] to
   [succ_start.(i + 1) - 1], with edge weights [succ_w.(k)].  The graph
   is int arrays only: a large segment's arrays live on the major heap,
   and arrays of records or lists there would drag every node into it
   at the next minor collection. *)
type graph = {
  preds : int array;  (** predecessor count *)
  prio : int array;  (** critical-path length *)
  succ_start : int array;
  succ : int array;
  succ_w : int array;
}

(* Anchors are ops that must stay in program order relative to
   branches: architectural effects. *)
let is_anchor a defs =
  is_store a || is_commit a
  || List.exists (fun r -> r < Vliw.Abi.shadow_count) defs

(* Every edge into op [j] is added while [j] is the current op, so the
   graph is built in program order as per-op predecessor runs and a
   stamp per source dedups a pair (keeping its max weight).

   An edge of weight 0 or 1 is left out where a path of two or more
   kept edges already orders the pair.  Such an edge never moves the
   schedule: a node becomes a candidate only in a cycle after all its
   predecessors were placed, so the path alone holds it back as long;
   [earliest] from a weight-1 edge never exceeds that cycle; and the
   path raises the source's priority above what the edge would.  So
   commits take edges only from the ops since the previous commit
   (which all earlier ops reach), and stores, branches and loads chain
   through the last store or branch instead of every earlier one. *)
let build_graph ~(opts : opts) ~slot_counter (ops : Ir.op array) =
  let n = Array.length ops in
  let src = ref (Array.make (4 * n) 0) and wt = ref (Array.make (4 * n) 0) in
  let ne = ref 0 in
  (* op [j]'s incoming edges are [pred_end.(j - 1)] to [pred_end.(j) - 1] *)
  let pred_end = Array.make n 0 in
  let stamp = Array.make n (-1) and at = Array.make n 0 in
  let j = ref 0 in
  let edge i w =
    if i <> !j then
      if stamp.(i) = !j then begin
        let k = at.(i) in
        if w > !wt.(k) then !wt.(k) <- w
      end
      else begin
        if !ne = Array.length !src then begin
          let grow a = Array.append a (Array.make (Array.length a) 0) in
          src := grow !src;
          wt := grow !wt
        end;
        stamp.(i) <- !j;
        at.(i) <- !ne;
        !src.(!ne) <- i;
        !wt.(!ne) <- w;
        incr ne
      end
  in
  (* register dependences: the last def of each register, and the
     readers since, as linked lists threaded through [rd_op]/[rd_next] *)
  let nregs = ref 0 and nuses = ref 0 in
  let note r = nregs := max !nregs (Ir.reg_index r + 1) in
  Array.iter
    (fun o ->
      let uses = A.uses o.Ir.atom in
      nuses := !nuses + List.length uses;
      List.iter note uses;
      List.iter note (A.defs o.Ir.atom))
    ops;
  let last_def = Array.make !nregs (-1) and rd_head = Array.make !nregs (-1) in
  let rd_op = Array.make !nuses 0 and rd_next = Array.make !nuses 0 in
  let nrd = ref 0 in
  (* memory / anchor / control state *)
  let last_commit = ref (-1) and last_barrier = ref (-1) in
  let last_branch = ref (-1) and last_store = ref (-1) in
  let since_commit = ref [] (* ops after the last commit *) in
  let stores = ref [] (* stores since the last commit, newest first *) in
  (* loads since the last commit not yet ordered before a store *)
  let unordered_loads = ref [] in
  (* loads and anchors since the last branch (loads: and commit) *)
  let branch_loads = ref [] and branch_anchors = ref [] in
  let arms = ref [] in
  for jj = 0 to n - 1 do
    j := jj;
    let nj = ops.(jj) in
    let aj = nj.Ir.atom in
    let defs = A.defs aj in
    List.iter
      (fun r ->
        let x = Ir.reg_index r in
        let i = last_def.(x) in
        if i >= 0 then edge i (A.latency ops.(i).Ir.atom) (* RAW *);
        rd_op.(!nrd) <- jj;
        rd_next.(!nrd) <- rd_head.(x);
        rd_head.(x) <- !nrd;
        incr nrd)
      (A.uses aj);
    List.iter
      (fun r ->
        let x = Ir.reg_index r in
        if last_def.(x) >= 0 then edge last_def.(x) 1 (* WAW *);
        let u = ref rd_head.(x) in
        while !u >= 0 do
          edge rd_op.(!u) 0 (* WAR *);
          u := rd_next.(!u)
        done;
        last_def.(x) <- jj;
        rd_head.(x) <- -1)
      defs;
    (* commits serialize against everything *)
    if is_commit aj then List.iter (fun i -> edge i 0) !since_commit;
    if !last_commit >= 0 then edge !last_commit 1;
    (* nothing may hoist above a loop back-edge: it would re-execute
       on every iteration (and, for loads, mis-speculate against the
       loop's own stores) *)
    if !last_barrier >= 0 then edge !last_barrier 1;
    if A.is_branch aj then begin
      if !last_branch >= 0 then edge !last_branch 1;
      List.iter (fun i -> edge i 0) !branch_anchors;
      (* loads must not sink below a later branch (their fault would be
         skipped after a committed exit) *)
      List.iter (fun i -> edge i 0) !branch_loads
    end;
    let anchor = is_anchor aj defs in
    if anchor && !last_branch >= 0 then edge !last_branch 1;
    if is_load aj then begin
      (* st -> ld: the breakable edge.  With reordering suppressed
         entirely (Fig. 2) even provably-disjoint pairs stay ordered;
         static disambiguation is what the no-alias-hardware
         configuration (Fig. 3) still gets to use.  Provably-aliasing
         pairs are never speculated — they would fault every time. *)
      if not opts.reorder then begin
        if !last_store >= 0 then edge !last_store 1
      end
      else
        List.iter
          (fun i ->
            match mem_relation ops.(i) nj with
            | Disjoint -> ()
            | Must_alias -> edge i 1
            | Unknown ->
                if opts.use_alias && !slot_counter < opts.alias_slots then begin
                  (* arm a slot at the load, check it at the store *)
                  let slot =
                    match nj.Ir.atom with
                    | A.Load { protect = Some s; _ } -> s
                    | A.Load ({ protect = None; _ } as l) ->
                        let s = !slot_counter in
                        incr slot_counter;
                        nj.Ir.atom <- A.Load { l with protect = Some s };
                        s
                    | _ -> assert false
                  in
                  match ops.(i).Ir.atom with
                  | A.Store ({ check; _ } as st) ->
                      ops.(i).Ir.atom <- A.Store { st with check = check lor (1 lsl slot) }
                  | _ -> assert false
                end
                else (* out of slots, or no alias hardware *) edge i 1)
          !stores
    end;
    if is_store aj then begin
      (* stores must not hoist above range-arming atoms *)
      List.iter (fun i -> edge i 0) !arms;
      if !last_store >= 0 then edge !last_store 1;
      (* stores may not pass earlier loads (the load must see the old
         value) unless disjoint *)
      unordered_loads :=
        List.filter
          (fun i -> mem_relation ops.(i) nj = Disjoint || (edge i 0; false))
          !unordered_loads
    end;
    (* bookkeeping *)
    if is_store aj then begin
      stores := jj :: !stores;
      last_store := jj
    end;
    if is_load aj then begin
      unordered_loads := jj :: !unordered_loads;
      branch_loads := jj :: !branch_loads
    end;
    if A.is_branch aj then begin
      last_branch := jj;
      branch_anchors := [];
      branch_loads := [];
      if nj.Ir.barrier then last_barrier := jj
    end;
    if anchor then branch_anchors := jj :: !branch_anchors;
    if is_arm aj then arms := jj :: !arms;
    if is_commit aj then begin
      last_commit := jj;
      (* a commit resets memory ordering state: buffered stores are
         flushed and alias slots cleared *)
      stores := [];
      last_store := -1;
      unordered_loads := [];
      branch_loads := [];
      since_commit := []
    end
    else since_commit := jj :: !since_commit;
    pred_end.(jj) <- !ne
  done;
  let src = !src and wt = !wt and ne = !ne in
  (* critical-path priorities, and predecessor counts *)
  let prio = Array.init n (fun i -> A.latency ops.(i).Ir.atom) in
  let preds = Array.make n 0 in
  for jj = n - 1 downto 0 do
    let first = if jj = 0 then 0 else pred_end.(jj - 1) in
    preds.(jj) <- pred_end.(jj) - first;
    for k = first to pred_end.(jj) - 1 do
      let i = src.(k) in
      prio.(i) <- max prio.(i) (prio.(jj) + max wt.(k) 1)
    done
  done;
  (* successor lists *)
  let succ_start = Array.make (n + 1) 0 in
  for k = 0 to ne - 1 do
    succ_start.(src.(k) + 1) <- succ_start.(src.(k) + 1) + 1
  done;
  for i = 1 to n do
    succ_start.(i) <- succ_start.(i) + succ_start.(i - 1)
  done;
  let fill = Array.sub succ_start 0 n in
  let succ = Array.make ne 0 and succ_w = Array.make ne 0 in
  let k = ref 0 in
  for jj = 0 to n - 1 do
    while !k < pred_end.(jj) do
      let i = src.(!k) in
      succ.(fill.(i)) <- jj;
      succ_w.(fill.(i)) <- wt.(!k);
      fill.(i) <- fill.(i) + 1;
      incr k
    done
  done;
  { preds; prio; succ_start; succ; succ_w }

(* ------------------------------------------------------------------ *)
(* List scheduling                                                     *)
(* ------------------------------------------------------------------ *)

let unit_of a = A.unit_of a

let schedule_segment ~opts ~slot_counter (ops : Ir.op array) =
  if Array.length ops = 0 then []
  else begin
    let { preds; prio; succ_start; succ; succ_w } =
      build_graph ~opts ~slot_counter ops
    in
    let n = Array.length ops in
    let earliest = Array.make n 0 and cycle_of = Array.make n (-1) in
    (* The ready list: the unscheduled nodes whose predecessors are all
       placed, highest priority first, then in program order.  Nodes
       whose [earliest] cycle has not come yet stay in it, skipped. *)
    let before a b = prio.(a) > prio.(b) || (prio.(a) = prio.(b) && a < b) in
    let ready = Array.make n 0 and nready = ref 0 in
    for i = 0 to n - 1 do
      if preds.(i) = 0 then begin
        ready.(!nready) <- i;
        incr nready
      end
    done;
    let roots = Array.sub ready 0 !nready in
    Array.stable_sort (fun a b -> if before a b then -1 else 1) roots;
    Array.blit roots 0 ready 0 !nready;
    (* a node readied later mostly has a lower priority: insert it from
       the back *)
    let insert i =
      let k = ref !nready in
      while !k > 0 && before i ready.(!k - 1) do
        ready.(!k) <- ready.(!k - 1);
        decr k
      done;
      ready.(!k) <- i;
      incr nready
    in
    let unscheduled = ref n in
    let cycle = ref 0 in
    (* one row per cycle: the placed nodes ([None] = explicit nop).
       Atoms are extracted only after the speculative-load marking
       below, which rewrites node atoms post-schedule — snapshotting
       them here would silently drop the spec bits from the emitted
       code. *)
    let rows = ref [] in
    while !unscheduled > 0 do
      let alu = ref 0 and mem = ref 0 and fpm = ref 0 and br = ref 0 in
      let slots = ref 0 in
      let placed = ref [] and placed_defs = ref [] in
      let k = ref 0 in
      while !k < !nready && !slots < Vliw.Molecule.max_slots do
        let i = ready.(!k) in
        incr k;
        if earliest.(i) <= !cycle then begin
          let a = ops.(i).Ir.atom in
          let u = unit_of a in
          let fits =
            match u with
            | A.UAlu -> !alu < 2
            | A.UMem -> !mem < 1
            | A.UFpm -> !fpm < 1
            | A.UBr -> !br < 1
            | A.UFree -> true
          in
          (* two defs of the same register cannot share a molecule *)
          let defs = A.defs a in
          if fits && not (List.exists (fun d -> List.mem d !placed_defs) defs)
          then begin
            (match u with
            | A.UAlu -> incr alu
            | A.UMem -> incr mem
            | A.UFpm -> incr fpm
            | A.UBr -> incr br
            | A.UFree -> ());
            (match u with
            | A.UFree -> () (* commits do not consume an issue slot *)
            | _ -> incr slots);
            placed := i :: !placed;
            placed_defs := defs @ !placed_defs
          end
        end
      done;
      match !placed with
      | [] ->
          (* exposed latency: the hardware needs an explicit nop *)
          rows := None :: !rows;
          incr cycle
      | ps ->
          (* atoms within a molecule are ordered by program index so
             phase-2 effects (stores, commit) land in program order *)
          let ps = List.sort compare ps in
          List.iter (fun i -> cycle_of.(i) <- !cycle) ps;
          let live = ref 0 in
          for k = 0 to !nready - 1 do
            if cycle_of.(ready.(k)) < 0 then begin
              ready.(!live) <- ready.(k);
              incr live
            end
          done;
          nready := !live;
          List.iter
            (fun i ->
              for k = succ_start.(i) to succ_start.(i + 1) - 1 do
                let s = succ.(k) in
                preds.(s) <- preds.(s) - 1;
                earliest.(s) <- max earliest.(s) (!cycle + succ_w.(k));
                if preds.(s) = 0 then insert s
              done;
              decr unscheduled)
            ps;
          rows := Some ps :: !rows;
          incr cycle
    done;
    (* --- latency padding at the segment end --- *)
    (* Control may leave this segment (fallthrough, branch, or loop
       back-edge) into code scheduled independently, which assumes all
       values are ready.  Pad with nops until every outstanding result
       latency is covered. *)
    let len = ref !cycle in
    Array.iteri
      (fun i o ->
        let fin = cycle_of.(i) + A.latency o.Ir.atom in
        if fin > !len then len := fin)
      ops;
    while !cycle < !len do
      rows := None :: !rows;
      incr cycle
    done;
    (* --- speculative-load marking --- *)
    (* A load that executes no later than a program-earlier store or
       branch has been reordered w.r.t. the x86 program: one pass in
       program order, keeping the latest cycle of those seen so far. *)
    let latest = ref (-1) in
    Array.iteri
      (fun i o ->
        match o.Ir.atom with
        | A.Load l ->
            if !latest >= cycle_of.(i) || l.protect <> None then
              o.Ir.atom <- A.Load { l with spec = true }
        | a ->
            if is_store a || A.is_branch a then latest := max !latest cycle_of.(i))
      ops;
    (* emit: atom values are read only now, with all marks in place *)
    List.rev_map
      (function
        | None -> [| A.Nop |]
        | Some ps -> Array.of_list (List.map (fun i -> ops.(i).Ir.atom) ps))
      !rows
  end

(* ------------------------------------------------------------------ *)
(* Whole-block scheduling                                              *)
(* ------------------------------------------------------------------ *)

(* Split items into label-delimited segments. *)
let segments items =
  let segs = ref [] and cur = ref [] and cur_label = ref None in
  let flush () =
    segs := (!cur_label, Array.of_list (List.rev !cur)) :: !segs;
    cur := [];
    cur_label := None
  in
  List.iter
    (fun it ->
      match it with
      | Ir.Lbl l ->
          flush ();
          cur_label := Some l
      | Ir.Op o -> cur := o :: !cur)
    items;
  flush ();
  List.rev !segs |> List.filter (fun (l, ops) -> l <> None || Array.length ops > 0)

(** Schedule IR items into molecules; returns the molecule list (with
    branch targets still holding label ids) plus the label->molecule
    map. *)
let schedule ~opts items =
  annotate_bases items;
  let slot_counter = ref 0 in
  let label_mol : (Ir.label, int) Hashtbl.t = Hashtbl.create 16 in
  let all = ref [] in
  let count = ref 0 in
  List.iter
    (fun (label, ops) ->
      (match label with Some l -> Hashtbl.replace label_mol l !count | None -> ());
      let ms = schedule_segment ~opts ~slot_counter ops in
      List.iter
        (fun m ->
          all := m :: !all;
          incr count)
        ms)
    (segments items);
  let molecules = Array.of_list (List.rev !all) in
  (* resolve label ids to molecule indices *)
  let resolve l =
    match Hashtbl.find_opt label_mol l with
    | Some m -> m
    | None -> failwith (Fmt.str "Sched: unresolved label %d" l)
  in
  Array.iteri
    (fun i m ->
      Array.iteri
        (fun k a ->
          match a with
          | A.Br { target } -> m.(k) <- A.Br { target = resolve target }
          | A.BrCond b -> m.(k) <- A.BrCond { b with target = resolve b.target }
          | A.BrCmp b -> m.(k) <- A.BrCmp { b with target = resolve b.target }
          | _ -> ())
        m;
      molecules.(i) <- m)
    molecules;
  molecules

(* ------------------------------------------------------------------ *)
(* Register allocation (post-schedule linear scan)                     *)
(* ------------------------------------------------------------------ *)

(* [a] with each register it defines mapped through [def] and each it
   reads through [use]; negative registers (no flags) stay as they are. *)
let map_atom ~def ~use (a : A.t) =
  let fs = function A.R r -> A.R (use r) | A.I i -> A.I i in
  let f g r = if r < 0 then r else g r in
  let d = f def and u = f use in
  match a with
  | A.Nop -> A.Nop
  | A.MovI m -> A.MovI { m with rd = d m.rd }
  | A.MovR m -> A.MovR { rd = d m.rd; rs = u m.rs }
  | A.Alu m -> A.Alu { m with rd = d m.rd; a = u m.a; b = fs m.b }
  | A.AluX m ->
      A.AluX
        { m with rd = Option.map d m.rd; a = fs m.a; b = fs m.b; fr = u m.fr; fw = d m.fw }
  | A.MulX m ->
      A.MulX
        { m with rd_lo = d m.rd_lo; rd_hi = Option.map d m.rd_hi; a = fs m.a;
          b = fs m.b; fr = u m.fr; fw = d m.fw }
  | A.DivX m ->
      A.DivX
        { m with rd_q = d m.rd_q; rd_r = d m.rd_r; hi = u m.hi; lo = u m.lo;
          divisor = fs m.divisor }
  | A.SetCond m -> A.SetCond { m with rd = d m.rd; fr = u m.fr }
  | A.ExtField m -> A.ExtField { m with rd = d m.rd; rs = u m.rs }
  | A.InsField m -> A.InsField { m with rd = d m.rd; rs = u m.rs }
  | A.Load m -> A.Load { m with rd = d m.rd; base = u m.base }
  | A.Store m -> A.Store { m with rs = fs m.rs; base = u m.base }
  | A.ArmRange m -> A.ArmRange { m with base = u m.base }
  | A.BrCond m -> A.BrCond { m with fr = u m.fr }
  | A.BrCmp m -> A.BrCmp { m with a = u m.a; b = fs m.b }
  | A.Br _ | A.Commit _ | A.Exit _ -> a

(** Map virtual registers to host temporaries in place: a linear scan
    that binds a vreg at its first definition and frees its temporary
    after the molecule that last touches it.  Freed temporaries are
    reused first in, first out; a molecule frees its vregs newest
    binding first.  State is arrays indexed by [vreg - Ir.vreg_base]. *)
let regalloc (molecules : Vliw.Molecule.t array) =
  (* the last molecule touching each vreg *)
  let last = ref [||] and mol = ref 0 in
  let touch r =
    (if Ir.is_vreg r then
       let k = r - Ir.vreg_base in
       if k >= Array.length !last then
         last := Array.append !last (Array.make (k + 1) 0);
       !last.(k) <- !mol);
    r
  in
  Array.iteri
    (fun i m ->
      mol := i;
      Array.iter (fun a -> ignore (map_atom ~def:touch ~use:touch a)) m)
    molecules;
  let last = !last in
  (* each vreg's temporary (-1: unbound) and the next vreg expiring in
     the same molecule; [expiring.(i)] heads molecule [i]'s list *)
  let host = Array.make (Array.length last) (-1) in
  let next = Array.make (Array.length last) (-1) in
  let expiring = Array.make (Array.length molecules) (-1) in
  (* the free temporaries, a FIFO ring *)
  let ntmp = Vliw.Abi.num_regs - Vliw.Abi.tmp_base in
  let free = Array.init ntmp (fun i -> Vliw.Abi.tmp_base + i) in
  let head = ref 0 and nfree = ref ntmp in
  let use r =
    if not (Ir.is_vreg r) then r
    else
      let h = host.(r - Ir.vreg_base) in
      if h < 0 then raise Regalloc_overflow (* use before def: internal bug *);
      h
  in
  (* a def of a bound vreg (InsField's rd) keeps its binding *)
  let def r =
    if not (Ir.is_vreg r) then r
    else
      let k = r - Ir.vreg_base in
      if host.(k) < 0 then begin
        if !nfree = 0 then raise Regalloc_overflow;
        host.(k) <- free.(!head);
        head := (!head + 1) mod ntmp;
        decr nfree;
        next.(k) <- expiring.(last.(k));
        expiring.(last.(k)) <- k
      end;
      host.(k)
  in
  Array.iteri
    (fun i m ->
      Array.iteri (fun j a -> m.(j) <- map_atom ~def ~use a) m;
      let k = ref expiring.(i) in
      while !k >= 0 do
        free.((!head + !nfree) mod ntmp) <- host.(!k);
        incr nfree;
        k := next.(!k)
      done)
    molecules
