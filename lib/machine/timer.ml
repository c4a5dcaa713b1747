(** Programmable interval timer.

    Counts executed host molecules (the simulator's clock) and latches
    an IRQ line each time the programmed period elapses.  This is the
    source of the asynchronous interrupts that exercise the paper's
    rollback-on-interrupt behaviour (§3.3). *)

type t = {
  irq : Irq.t;
  line : int;
  mutable period : int;  (** molecules between interrupts; 0 = disabled *)
  mutable count : int;
  mutable fired : int;
}

let create irq ~line = { irq; line; period = 0; count = 0; fired = 0 }

let set_period t p =
  t.period <- max 0 p;
  t.count <- 0

let tick t molecules =
  if t.period > 0 then begin
    t.count <- t.count + molecules;
    while t.count >= t.period do
      t.count <- t.count - t.period;
      t.fired <- t.fired + 1;
      Irq.raise_line t.irq t.line
    done
  end

(* Ports: +0 = period low 16 bits, +1 = period high 16 bits (write
   latches), +2 = fired count (read). *)
let attach t bus ~base =
  let lo = ref 0 in
  let h =
    {
      Bus.pread =
        (fun port -> if port = base + 2 then t.fired else t.period);
      pwrite =
        (fun port v ->
          if port = base then lo := v land 0xffff
          else if port = base + 1 then
            set_period t (((v land 0xffff) lsl 16) lor !lo));
    }
  in
  for o = 0 to 2 do
    Bus.add_port bus (base + o) h
  done;
  Bus.add_ticker bus (tick t)
