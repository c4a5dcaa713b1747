(** The kill-and-resume soak drill.

    Runs a workload twice: once uninterrupted (the oracle), and once
    chopped into segments — run a slice, capture a snapshot at the
    commit boundary, throw the whole machine away, restore from the
    image, continue — then differentially compares the final states.
    This is the end-to-end proof that snapshots capture everything that
    matters: any state a snapshot misses shows up as a divergence.

    What must match is configuration-dependent.  GPRs, EIP,
    architectural EFLAGS, UART output and the frame-buffer checksum are
    functions of the retired-instruction clock and always compared.
    Timer-driven state is a function of the *molecule* clock, and a
    resumed run — restarting with a cold translation cache — consumes a
    different number of molecules to retire the same instructions, so
    timer workloads legitimately differ in jiffy counts, stale stack
    bytes from differently-timed handler frames, and device-poll
    iteration counts.  Callers pass [compare_mem:false] for those (the
    suite's [uses_timer] flag). *)

type result = {
  resumes : int;  (** restore cycles performed *)
  snapshots : int;  (** snapshots captured *)
  snapshot_bytes : int;  (** total image bytes written *)
  oracle_stop : Cms.Engine.stop;
  soak_stop : Cms.Engine.stop;
  mismatches : string list;  (** empty = drill passed *)
}

let ok r = r.mismatches = []

let pp_stop ppf (s : Cms.Engine.stop) =
  match s with
  | Cms.Engine.Halted -> Fmt.string ppf "halted"
  | Cms.Engine.Insn_limit -> Fmt.string ppf "insn-limit"

(* Compare the two final machines' architectural digests; the mem
   digest and bus counters only when the workload is
   molecule-clock-independent (otherwise both sides blank them). *)
let compare_final ~compare_mem (oracle : Cms.t) (soaked : Cms.t) =
  let digest c =
    let a = Digests.arch c in
    if compare_mem then a
    else { a with mem = ""; mmio_reads = 0; mmio_writes = 0; port_ops = 0 }
  in
  match Digests.arch_diff (digest oracle) (digest soaked) with
  | "" -> []
  | d -> [ d ]

(** Run the drill.  [make] builds a fresh, loaded, booted machine (not
    yet run); [max_insns] bounds both legs; [every] is the soak leg's
    segment length in retired instructions. *)
let drill ~(make : unit -> Cms.t) ~max_insns ~every ?(compare_mem = true) () =
  if every <= 0 then invalid_arg "Soak.drill: every must be positive";
  (* Oracle leg: one uninterrupted run. *)
  let oracle = make () in
  let oracle_stop = Cms.run ~max_insns oracle in
  (* Soak leg: run to an absolute retired-instruction target, snapshot,
     discard the machine, restore, repeat.  [max_insns] is an absolute
     bound on the retired clock, so targets carry across resumes. *)
  let resumes = ref 0 in
  let snapshots = ref 0 in
  let bytes = ref 0 in
  let rec go (c : Cms.t) target =
    let stop = Cms.run ~max_insns:(min target max_insns) c in
    if Cms.retired c >= max_insns || stop = Cms.Engine.Halted then (c, stop)
    else begin
      let image = Snapshot.capture ~label:"soak" c in
      incr snapshots;
      bytes := !bytes + String.length image;
      (* the old machine is dropped here: the restore must stand alone *)
      let c', _meta = Snapshot.restore image in
      incr resumes;
      go c' (target + every)
    end
  in
  let soaked, soak_stop = go (make ()) every in
  {
    resumes = !resumes;
    snapshots = !snapshots;
    snapshot_bytes = !bytes;
    oracle_stop;
    soak_stop;
    mismatches =
      (if oracle_stop <> soak_stop then
         [ Fmt.str "stop=%a/%a" pp_stop oracle_stop pp_stop soak_stop ]
       else [])
      @ compare_final ~compare_mem oracle soaked;
  }

let pp_result ppf r =
  if ok r then
    Fmt.pf ppf "ok (%d resumes, %d snapshots, %d bytes)" r.resumes r.snapshots
      r.snapshot_bytes
  else
    Fmt.pf ppf "DIVERGED after %d resumes: %s" r.resumes
      (String.concat " " r.mismatches)
