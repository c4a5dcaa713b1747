(** Port-mapped serial console (16550-flavoured, heavily simplified).

    Writes to the data port append to an output buffer the harness can
    inspect; reads pop an input FIFO.  The input FIFO read has a side
    effect — exactly the kind of device behaviour that makes replaying
    memory/port operations after a rollback unsafe, which is why the CMS
    engine must keep I/O in order (paper §3.4). *)

type t = {
  out_buf : Buffer.t;
  mutable in_fifo : int list;
  mutable data_reads : int;
  mutable data_writes : int;
}

let create () =
  { out_buf = Buffer.create 64; in_fifo = []; data_reads = 0; data_writes = 0 }

let feed_input t bytes = t.in_fifo <- t.in_fifo @ bytes

let output t = Buffer.contents t.out_buf

(* Register layout (relative to the base port):
   +0 data (R: pop input fifo, W: append output)
   +5 line status (bit0: input ready, bit5: tx empty = always) *)
let data_off = 0
let status_off = 5

let port_handler t ~base =
  {
    Bus.pread =
      (fun port ->
        match port - base with
        | o when o = data_off -> (
            t.data_reads <- t.data_reads + 1;
            match t.in_fifo with
            | [] -> 0
            | b :: rest ->
                t.in_fifo <- rest;
                b)
        | o when o = status_off ->
            (if t.in_fifo <> [] then 1 else 0) lor 0x20
        | _ -> 0);
    pwrite =
      (fun port v ->
        if port - base = data_off then begin
          t.data_writes <- t.data_writes + 1;
          Buffer.add_char t.out_buf (Char.chr (v land 0xff))
        end);
  }

let attach t bus ~base =
  let h = port_handler t ~base in
  for o = 0 to 7 do
    Bus.add_port bus (base + o) h
  done
