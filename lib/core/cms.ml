(** Public API for the Code Morphing Software reproduction.

    Typical use:
    {[
      let listing = X86.Asm.assemble ~base:0x10000 [ ... ] in
      let c = Cms.create () in
      Cms.load c listing;
      Cms.boot c ~entry:0x10000 ();
      let (_ : Engine.stop) = Cms.run c in
      Fmt.pr "eax = %x, mpi = %.2f@." (Cms.gpr c X86.Regs.eax) (Cms.mpi c)
    ]} *)

(* This module shares the library's name, so it is the library's root:
   re-export the component modules as the public namespace. *)
module Config = Config
module Stats = Stats
module Policy = Policy
module Profile = Profile
module Cpu = Cpu
module Interp = Interp
module Region = Region
module Ir = Ir
module Lower = Lower
module Opt = Opt
module Sched = Sched
module Diag = Diag
module Absstate = Absstate
module Irlint = Irlint
module Tverify = Tverify
module Codegen = Codegen
module Tcache = Tcache
module Adapt = Adapt
module Smc = Smc
module Engine = Engine

type t = Engine.t

(** Build a complete system: platform (RAM, MMU, devices) plus CMS.
    [on_diag] observes every static-verifier diagnostic (see
    {!Engine.t.on_diag}); verification runs with or without it. *)
let create ?on_diag ?(cfg = Config.default) ?(ram_size = 16 * 1024 * 1024)
    ?disk_image () =
  let plat =
    Machine.Platform.create ~ram_size ~fg_capacity:cfg.Config.fg_capacity
      ?disk_image ()
  in
  Engine.create ?on_diag ~cfg plat

let platform (t : t) = t.Engine.plat
let mem (t : t) = t.Engine.plat.Machine.Platform.mem
let stats (t : t) = t.Engine.stats
let perf (t : t) = Engine.perf t
let cpu (t : t) = t.Engine.cpu

(** Copy an assembled listing into guest RAM. *)
let load (t : t) listing = Machine.Mem.load_listing (mem t) listing

(** Identity-map low memory, reset the CPU, point it at [entry]. *)
let boot ?(map_mib = 2) ?(stack = 0x0008_0000) (t : t) ~entry =
  Machine.Platform.map_low_memory (platform t) ~mib:map_mib;
  Cpu.reset t.Engine.cpu ~entry ~stack

(** Hand [t]'s RAM to the next {!create}; [t] must not be used again
    (see {!Machine.Phys.release}). *)
let release (t : t) = Machine.Phys.release (mem t).Machine.Mem.phys

let run = Engine.run
let mpi = Engine.mpi
let total_molecules = Engine.total_molecules
let retired = Engine.retired

(* Committed architectural state accessors (for result checking). *)
let gpr (t : t) r = Vliw.Regfile.get_committed (Cpu.regs t.Engine.cpu) (Vliw.Abi.gpr r)
let eip (t : t) = Cpu.committed_eip t.Engine.cpu
let eflags (t : t) = Cpu.arch_eflags t.Engine.cpu
let read_mem (t : t) ~size addr = Machine.Mem.read (mem t) ~size addr
let uart_output (t : t) = Machine.Uart.output (platform t).Machine.Platform.uart
let frames (t : t) = (platform t).Machine.Platform.fb.Machine.Framebuf.frames

(** Run a listing start-to-halt on a fresh system; returns the engine
    for inspection.  The workhorse of tests and experiments. *)
let run_listing ?cfg ?ram_size ?disk_image ?map_mib ?stack ?max_insns listing
    ~entry =
  let t = create ?cfg ?ram_size ?disk_image () in
  load t listing;
  boot ?map_mib ?stack t ~entry;
  let stop = run ?max_insns t in
  (t, stop)

(** Interpreter-only execution of the same listing (reference
    semantics for differential testing, and the fleet's solo mirror):
    nothing ever reaches the translation threshold. *)
let interp_only_cfg =
  { Config.default with Config.translate_threshold = max_int }
