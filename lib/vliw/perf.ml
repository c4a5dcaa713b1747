(** Host performance counters.

    Molecule counts are the simulator's primary metric, matching the
    paper's own simulator ("accurate dynamic molecule counts but not
    cycle accuracy"). *)

type t = {
  mutable molecules : int;
  mutable atoms : int;
  mutable nops : int;
  mutable loads : int;
  mutable stores : int;
  mutable commits : int;
  mutable x86_committed : int;
      (** x86 instructions retired by translation commits *)
  mutable rollbacks : int;
  mutable exits_taken : int;
  mutable x86_fault_atoms : int;
  mutable alias_faults : int;
  mutable mmio_spec_faults : int;
  mutable smc_faults : int;
  mutable sbuf_overflows : int;
  mutable interrupts_taken : int;
}

let create () =
  {
    molecules = 0;
    atoms = 0;
    nops = 0;
    loads = 0;
    stores = 0;
    commits = 0;
    x86_committed = 0;
    rollbacks = 0;
    exits_taken = 0;
    x86_fault_atoms = 0;
    alias_faults = 0;
    mmio_spec_faults = 0;
    smc_faults = 0;
    sbuf_overflows = 0;
    interrupts_taken = 0;
  }

let pp fmt t =
  Fmt.pf fmt
    "molecules=%d atoms=%d nops=%d loads=%d stores=%d commits=%d \
     rollbacks=%d exits=%d faults[x86=%d alias=%d mmio=%d smc=%d sbuf=%d] \
     irq=%d"
    t.molecules t.atoms t.nops t.loads t.stores t.commits t.rollbacks
    t.exits_taken t.x86_fault_atoms t.alias_faults t.mmio_spec_faults
    t.smc_faults t.sbuf_overflows t.interrupts_taken
