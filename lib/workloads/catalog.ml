(** The workload corpus, once: every suite program, in the order the
    tools list and sweep them — the OS boots, the SPEC-like kernels,
    the applications, the Quake frame renderer, the BLT driver and the
    preemptive guest kernels. *)

let all () =
  Progs_boot.all @ Progs_spec.all @ Progs_apps.all @ Progs_quake.all
  @ [ Progs_quake.blt_driver () ]
  @ Progs_kernel.all

(** The corpus workload named [name] (see [cmsrun --list]). *)
let find name = List.find_opt (fun w -> w.Suite.name = name) (all ())
