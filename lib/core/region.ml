(** Translation-region selection.

    Regions are superblock traces: single entry, multiple side exits,
    grown by following the profiled direction of conditional branches
    and falling through unconditional jumps, up to the policy's size cap
    (the paper's regions reach 200 x86 instructions).  A branch whose
    followed edge returns to the region entry turns the trace into a
    loop (the back edge stays inside the translation).

    The trace stops before instructions the translator never inlines:
    interpreter-only system instructions and instructions the profile
    observed doing memory-mapped I/O (§3.4 — those must execute in
    original order at a consistent boundary, which the interpreter
    guarantees). *)

type follow =
  | FNext  (** trace continues at the next address *)
  | FTarget  (** trace continues at the branch's taken target *)
  | FEnd  (** trace ends after this instruction *)

type insn_info = {
  addr : int;
  insn : X86.Insn.t;
  len : int;
  imm32_addr : int option;  (** address of a 32-bit data immediate field *)
  follow : follow;
  loops : bool;  (** this instruction's taken edge goes back to the entry *)
}

type t = {
  entry : int;
  insns : insn_info array;
  cont : int option;
      (** where execution continues if the trace runs off its end
          ([None] when the last instruction transfers control itself) *)
  src_ranges : (int * int) list;  (** merged [lo, hi) code byte ranges *)
}

let instruction_count t = Array.length t.insns

(** Total source bytes covered (for snapshots and self-checking). *)
let src_bytes t =
  List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 t.src_ranges

let merge_ranges ranges =
  let sorted = List.sort compare ranges in
  let rec go acc = function
    | [] -> List.rev acc
    | (lo, hi) :: rest -> (
        match acc with
        | (plo, phi) :: acc' when lo <= phi -> go ((plo, max phi hi) :: acc') rest
        | _ -> go ((lo, hi) :: acc) rest)
  in
  go [] sorted

(** Structural equality of two selected regions.  Used by the shared
    store to check a stored entry's region against the canonical
    install-time selection: profile bias or policy changes can reshape
    the trace even over unchanged bytes.  [insn_info] is plain data (no
    closures, sets or floats), so polymorphic equality is exact. *)
let equal (a : t) (b : t) =
  a.entry = b.entry && a.cont = b.cont
  && a.src_ranges = b.src_ranges
  && a.insns = b.insns

(** Does [addr] fall inside the region's source bytes? *)
let contains t addr =
  List.exists (fun (lo, hi) -> addr >= lo && addr < hi) t.src_ranges

(* ------------------------------------------------------------------ *)
(* Stylized immediates (§3.6.4)                                        *)
(* ------------------------------------------------------------------ *)

(* The [lo, hi) imm32 field of [i], if it has one. *)
let imm_field (i : insn_info) = Option.map (fun f -> (f, f + 4)) i.imm32_addr

(** Which imm32 fields cover [bytes] (addresses): [Some insns], the
    addresses of the instructions whose fields hold them, when every
    byte sits in some field (a write confined to immediates is
    stylized SMC), [None] otherwise. *)
let imm_cover t bytes =
  let owner a =
    Array.find_opt
      (fun i ->
        match imm_field i with
        | Some (lo, hi) -> a >= lo && a < hi
        | None -> false)
      t.insns
  in
  List.fold_left
    (fun acc a ->
      match (acc, owner a) with
      | Some s, Some i -> Some (Policy.ISet.add i.addr s)
      | _ -> None)
    (Some Policy.ISet.empty) bytes

(** The [lo, hi) imm32 fields [policy] loads from the code stream at
    run time: legitimately volatile bytes, which every comparison of
    the source bytes against their snapshot leaves out. *)
let stylized_fields t (policy : Policy.t) =
  Array.to_list t.insns
  |> List.filter_map (fun i ->
         if Policy.ISet.mem i.addr policy.Policy.stylized_imms then
           imm_field i
         else None)

(** Addresses of the source bytes where [current] differs from [snap],
    both laid out along [src_ranges]. *)
let changed_bytes t ~snap ~current =
  let diffs = ref [] in
  let off = ref 0 in
  List.iter
    (fun (lo, hi) ->
      for a = lo to hi - 1 do
        let k = !off + (a - lo) in
        if Bytes.get snap k <> Bytes.get current k then diffs := a :: !diffs
      done;
      off := !off + (hi - lo))
    t.src_ranges;
  List.rev !diffs

(** Select a region starting at [entry] under [policy].  Returns [None]
    if not even one instruction can be included (the caller then builds
    a zero-instruction translation or keeps interpreting). *)
let select ~mem ~(profile : Profile.t) ~(policy : Policy.t) entry =
  let fetch = Machine.Mem.fetch8 mem in
  let insns = ref [] in
  let count = ref 0 in
  (* Visit counts implement loop unrolling: a trace may include up to
     [policy.unroll] copies of the same instruction, so several loop
     iterations land in one region and the scheduler can overlap them —
     cross-iteration reordering is where speculation pays most. *)
  let visits = Hashtbl.create 64 in
  let visit_count pc =
    Hashtbl.find_opt visits pc |> Option.value ~default:0
  in
  let unroll = max 1 policy.Policy.unroll in
  let stop_before = ref None in
  (* Returns the continuation address if the trace ran off its end. *)
  let rec grow pc =
    if !count >= policy.Policy.max_insns then Some pc
    else if visit_count pc >= unroll then Some pc
    else if Policy.ISet.mem pc policy.Policy.interp_insns then begin
      stop_before := Some pc;
      Some pc
    end
    else
      match X86.Decode.decode ~fetch pc with
      | exception X86.Exn.Fault _ -> Some pc (* fetch faults: let interp take it *)
      | f ->
          let insn = f.X86.Decode.insn in
          if X86.Insn.interp_only insn || Profile.is_mmio_insn profile pc then begin
            stop_before := Some pc;
            Some pc
          end
          else begin
            Hashtbl.replace visits pc (visit_count pc + 1);
            incr count;
            let add follow loops =
              insns :=
                {
                  addr = pc;
                  insn;
                  len = f.X86.Decode.len;
                  imm32_addr =
                    Option.map (fun o -> pc + o) f.X86.Decode.imm32_off;
                  follow;
                  loops;
                }
                :: !insns
            in
            let next = (pc + f.X86.Decode.len) land 0xffffffff in
            let may_follow target =
              visit_count target < unroll
              && !count < policy.Policy.max_insns
            in
            match insn with
            | X86.Insn.Jcc (_, target) ->
                let taken_bias =
                  target = entry || Profile.bias profile pc = Some true
                in
                if taken_bias && target = entry && not (may_follow target)
                then begin
                  (* unroll budget exhausted: close the loop back to the
                     region entry *)
                  add FNext true;
                  grow next
                end
                else if taken_bias && may_follow target then begin
                  (* follow the taken edge — revisits duplicate the loop
                     body (unrolling) *)
                  add FTarget false;
                  grow target
                end
                else begin
                  add FNext false;
                  grow next
                end
            | X86.Insn.Jmp target ->
                if may_follow target then begin
                  (* follow the jump; it costs nothing in the trace *)
                  add FTarget false;
                  grow target
                end
                else if target = entry then begin
                  add FEnd true;
                  None
                end
                else begin
                  (* lowering emits this jump's own exit stub *)
                  add FEnd false;
                  None
                end
            | X86.Insn.Call _ | X86.Insn.CallInd _ | X86.Insn.Ret _
            | X86.Insn.JmpInd _ ->
                (* region ends; lowering emits the transfer itself *)
                add FEnd false;
                None
            | _ ->
                add FNext false;
                grow next
          end
  in
  let cont = grow entry in
  let insns = Array.of_list (List.rev !insns) in
  if Array.length insns = 0 then None
  else
    let src_ranges =
      merge_ranges
        (Array.to_list insns |> List.map (fun i -> (i.addr, i.addr + i.len)))
    in
    Some { entry; insns; cont; src_ranges }
