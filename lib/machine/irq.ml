(** A small interrupt controller (PIC).

    Devices raise numbered lines; the CPU polls for the highest-priority
    unmasked pending line and acknowledges it, receiving the x86 vector
    (line + [base_vector]).  Matches the subset's needs: level-style
    latched lines, a mask register, EOI-free auto-ack. *)

let base_vector = 0x20
let lines = 16

type t = {
  mutable pending : int;  (** bitmask of latched lines *)
  mutable mask : int;  (** 1 = masked (inhibited) *)
  mutable raised_total : int;
  mutable delivered_total : int;
  mutable deferred_total : int;
      (** raises that could not become a fresh delivery immediately:
          the line was already latched, or masked — the raise merged
          into the pending latch instead of producing a new vector *)
}

let create () =
  {
    pending = 0;
    mask = 0;
    raised_total = 0;
    delivered_total = 0;
    deferred_total = 0;
  }

let raise_line t line =
  if line < 0 || line >= lines then invalid_arg "Irq.raise_line";
  let bit = 1 lsl line in
  if t.pending land bit <> 0 || t.mask land bit <> 0 then
    t.deferred_total <- t.deferred_total + 1;
  t.pending <- t.pending lor bit;
  t.raised_total <- t.raised_total + 1

let set_mask t m = t.mask <- m land 0xffff

(** Is any unmasked interrupt pending? *)
let has_pending t = t.pending land lnot t.mask land 0xffff <> 0

(** Acknowledge the highest-priority (lowest-numbered) unmasked pending
    line; returns its x86 vector and clears the latch. *)
let ack t =
  let avail = t.pending land lnot t.mask land 0xffff in
  if avail = 0 then None
  else begin
    let rec lowest i = if avail land (1 lsl i) <> 0 then i else lowest (i + 1) in
    let line = lowest 0 in
    t.pending <- t.pending land lnot (1 lsl line);
    t.delivered_total <- t.delivered_total + 1;
    Some (base_vector + line)
  end
