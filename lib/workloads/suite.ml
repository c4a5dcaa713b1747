(** Workload suite framework.

    Each workload is a self-contained guest program built with the
    assembler DSL, mirroring one entry of the paper's benchmark set
    (Appendix A): OS boots, SPECcpu-like kernels, Windows-productivity-
    like string/dictionary code, media kernels, and the Quake-style
    self-modifying frame renderer.  Every workload self-validates: it
    leaves a checksum in EAX whose expected value is computed by the
    generator, so any translation bug turns into a hard failure rather
    than a silently wrong benchmark number. *)

type kind = Boot | App

type t = {
  name : string;
  kind : kind;
  listing : X86.Asm.listing;
  entry : int;
  expected_eax : int option;  (** architectural result to verify *)
  max_insns : int;  (** safety bound for the run *)
  disk_image : Bytes.t option;
  uses_timer : bool;
}

let make ?(kind = App) ?(expected_eax = None) ?(max_insns = 3_000_000)
    ?disk_image ?(uses_timer = false) ~name ~entry listing =
  { name; kind; listing; entry; expected_eax; max_insns; disk_image; uses_timer }

(** Build the machine for a workload — created, loaded, booted, not yet
    run.  Snapshot/record harnesses use this to instrument the engine
    before the first instruction.  [on_diag] observes the verifier
    ({!Cms.create}). *)
let prepare ?on_diag ?(cfg = Cms.Config.default) (w : t) =
  let t = Cms.create ?on_diag ~cfg ?disk_image:w.disk_image () in
  Cms.load t w.listing;
  (* the suite's data regions reach up to ~0x2c0000 *)
  Cms.boot ~map_mib:4 t ~entry:w.entry;
  t

(** A finished run's self-check: it halted, with the expected EAX
    checksum.  Experiment numbers from broken runs are worthless. *)
let self_check (w : t) ~halted ~eax =
  match w.expected_eax with
  | _ when not halted ->
      Error (Fmt.str "workload %s hit its instruction limit" w.name)
  | Some v when eax <> v ->
      Error
        (Fmt.str "workload %s: checksum mismatch: expected %#x, got %#x"
           w.name v eax)
  | _ -> Ok ()

(** Run an already-prepared machine to completion; raises if it fails
    {!self_check}.  Split from [run] so harnesses that instrument the
    machine between boot and first instruction (AOT image install,
    record hooks) share the validation. *)
let run_prepared (w : t) t =
  let halted = Cms.run ~max_insns:w.max_insns t = Cms.Engine.Halted in
  match self_check w ~halted ~eax:(Cms.gpr t X86.Regs.eax) with
  | Ok () -> t
  | Error e -> failwith e

(** Run a workload under [cfg]; returns the engine after the run. *)
let run ?on_diag ?cfg (w : t) = run_prepared w (prepare ?on_diag ?cfg w)

(** Molecules-per-x86-instruction for a workload under a config. *)
let mpi ?cfg w = Cms.mpi (run ?cfg w)

(** Relative degradation of config [b] versus baseline [a], in percent
    (the Figure 2 / Figure 3 metric). *)
let degradation ~baseline ~vs w =
  let a = mpi ~cfg:baseline w and b = mpi ~cfg:vs w in
  (b -. a) /. a *. 100.0
