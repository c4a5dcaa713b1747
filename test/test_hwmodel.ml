(* The flat store buffer and alias slots against reference models.

   [Ref_sbuf] is the list-of-records store buffer and [Ref_alias] the
   option-array alias hardware the flat layouts replaced, kept as they
   were.  Seeded random sequences of operations run against a model and
   the real structure side by side; every result, every memory access
   (address, size and order: a device register must see the same
   accesses) and every counter must agree.  Addresses come from a small
   window so stores overlap partially, fully and many deep. *)

open Vliw

module Ref_sbuf = struct
  type entry = { paddr : int; size : int; value : int }

  type t = {
    capacity : int;
    mutable entries : entry list;  (** newest first *)
    mutable count : int;
    mutable total_buffered : int;
    mutable total_committed : int;
    mutable total_dropped : int;
    mutable overflows : int;
  }

  let create ~capacity =
    {
      capacity;
      entries = [];
      count = 0;
      total_buffered = 0;
      total_committed = 0;
      total_dropped = 0;
      overflows = 0;
    }

  let is_empty t = t.entries = []

  let push t ~paddr ~size ~value =
    if t.count >= t.capacity then begin
      t.overflows <- t.overflows + 1;
      Error `Overflow
    end
    else begin
      t.entries <- { paddr; size; value } :: t.entries;
      t.count <- t.count + 1;
      t.total_buffered <- t.total_buffered + 1;
      Ok ()
    end

  let forwarded_byte t addr =
    let rec find = function
      | [] -> None
      | { paddr; size; value } :: rest ->
          if addr >= paddr && addr < paddr + size then
            Some ((value lsr (8 * (addr - paddr))) land 0xff)
          else find rest
    in
    find t.entries

  let read t ~mem_read ~paddr ~size =
    let overlaps =
      t.entries <> []
      &&
      let rec any i =
        i < size && (forwarded_byte t (paddr + i) <> None || any (i + 1))
      in
      any 0
    in
    if not overlaps then mem_read paddr size
    else begin
      let v = ref 0 in
      for i = 0 to size - 1 do
        let byte =
          match forwarded_byte t (paddr + i) with
          | Some b -> b
          | None -> mem_read (paddr + i) 1
        in
        v := !v lor (byte lsl (8 * i))
      done;
      !v
    end

  let commit t ~mem_write =
    if t.entries != [] then begin
      List.iter
        (fun { paddr; size; value } -> mem_write paddr size value)
        (List.rev t.entries);
      t.total_committed <- t.total_committed + t.count;
      t.entries <- [];
      t.count <- 0
    end

  let rollback t =
    t.total_dropped <- t.total_dropped + t.count;
    t.entries <- [];
    t.count <- 0
end

module Ref_alias = struct
  type t = {
    slots : (int * int) option array;
    mutable any_armed : bool;
    mutable violations : int;
    mutable checks : int;
    mutable arms : int;
  }

  let create ~slots =
    {
      slots = Array.make slots None;
      any_armed = false;
      violations = 0;
      checks = 0;
      arms = 0;
    }

  let arm t ~slot ~paddr ~len =
    t.arms <- t.arms + 1;
    t.any_armed <- true;
    t.slots.(slot) <- Some (paddr, paddr + len)

  let check t ~mask ~paddr ~len =
    t.checks <- t.checks + 1;
    let lo = paddr and hi = paddr + len in
    let n = Array.length t.slots in
    let rec go i =
      if i >= n then None
      else if mask land (1 lsl i) <> 0 then
        match t.slots.(i) with
        | Some (slo, shi) when lo < shi && slo < hi ->
            t.violations <- t.violations + 1;
            Some i
        | _ -> go (i + 1)
      else go (i + 1)
    in
    go 0

  let clear t =
    if t.any_armed then begin
      Array.fill t.slots 0 (Array.length t.slots) None;
      t.any_armed <- false
    end
end

(* A byte-array memory that logs every access, one per model. *)
type logmem = { bytes : Bytes.t; mutable log : (char * int * int * int) list }

let logmem () = { bytes = Bytes.init 64 (fun i -> Char.chr (i * 37 land 0xff)); log = [] }

let mem_read m addr size =
  let v =
    match size with
    | 1 -> Char.code (Bytes.get m.bytes addr)
    | 4 -> Int32.to_int (Bytes.get_int32_le m.bytes addr) land 0xffffffff
    | _ -> assert false
  in
  m.log <- ('r', addr, size, v) :: m.log;
  v

let mem_write m addr size v =
  m.log <- ('w', addr, size, v) :: m.log;
  match size with
  | 1 -> Bytes.set m.bytes addr (Char.chr (v land 0xff))
  | 4 -> Bytes.set_int32_le m.bytes addr (Int32.of_int v)
  | _ -> assert false

let check_sbuf_counters what (r : Ref_sbuf.t) (t : Storebuf.t) =
  let ci = Alcotest.(check int) in
  ci (what ^ ": count") r.Ref_sbuf.count t.Storebuf.count;
  ci (what ^ ": buffered") r.Ref_sbuf.total_buffered t.Storebuf.total_buffered;
  ci (what ^ ": committed") r.Ref_sbuf.total_committed
    t.Storebuf.total_committed;
  ci (what ^ ": dropped") r.Ref_sbuf.total_dropped t.Storebuf.total_dropped;
  ci (what ^ ": overflows") r.Ref_sbuf.overflows t.Storebuf.overflows;
  Alcotest.(check bool) (what ^ ": empty") (Ref_sbuf.is_empty r)
    (Storebuf.is_empty t)

(* One seeded run of [steps] random operations on a buffer of
   [capacity] entries. *)
let sbuf_run ~seed ~capacity ~steps () =
  let st = Random.State.make [| seed; capacity |] in
  let r = Ref_sbuf.create ~capacity and t = Storebuf.create ~capacity () in
  let mr = logmem () and mt = logmem () in
  for step = 1 to steps do
    let what = Printf.sprintf "seed %d step %d" seed step in
    let size () = if Random.State.bool st then 1 else 4 in
    (match Random.State.int st 10 with
    | 0 | 1 | 2 | 3 ->
        let size = size () in
        let paddr = Random.State.int st (64 - size + 1) in
        let value =
          Random.State.bits st lor (Random.State.int st 4 lsl 30)
          land ((1 lsl (8 * size)) - 1)
        in
        let ok = function Ok () -> true | Error `Overflow -> false in
        Alcotest.(check bool) (what ^ ": push")
          (ok (Ref_sbuf.push r ~paddr ~size ~value))
          (ok (Storebuf.push t ~paddr ~size ~value))
    | 4 | 5 | 6 | 7 ->
        let size = size () in
        let paddr = Random.State.int st (64 - size + 1) in
        Alcotest.(check int) (what ^ ": read")
          (Ref_sbuf.read r ~mem_read:(mem_read mr) ~paddr ~size)
          (Storebuf.read t ~mem_read:(mem_read mt) ~paddr ~size)
    | 8 ->
        Ref_sbuf.commit r ~mem_write:(mem_write mr);
        Storebuf.commit t ~mem_write:(mem_write mt)
    | _ ->
        Ref_sbuf.rollback r;
        Storebuf.rollback t);
    check_sbuf_counters what r t;
    if mr.log <> mt.log then Alcotest.failf "%s: memory accesses differ" what
  done;
  Alcotest.(check string) "final memory" (Bytes.to_string mr.bytes)
    (Bytes.to_string mt.bytes)

(* Overflow lands exactly at capacity, leaves the buffer intact, and a
   commit drains the [capacity] stores oldest first. *)
let test_sbuf_capacity () =
  List.iter
    (fun capacity ->
      let t = Storebuf.create ~capacity () in
      for i = 1 to capacity do
        Alcotest.(check bool) "fits" true
          (Storebuf.push t ~paddr:i ~size:1 ~value:i = Ok ())
      done;
      Alcotest.(check bool) "overflow at capacity" true
        (Storebuf.push t ~paddr:0 ~size:1 ~value:0 = Error `Overflow);
      Alcotest.(check int) "overflows" 1 t.Storebuf.overflows;
      Alcotest.(check int) "count" capacity t.Storebuf.count;
      let order = ref [] in
      Storebuf.commit t ~mem_write:(fun p _ _ -> order := p :: !order);
      Alcotest.(check (list int)) "fifo" (List.init capacity (fun i -> i + 1))
        (List.rev !order);
      Alcotest.(check bool) "drained" true (Storebuf.is_empty t);
      Alcotest.(check bool) "room again" true
        (Storebuf.push t ~paddr:0 ~size:1 ~value:0 = Ok ()))
    [ 1; 2; 7; 64 ]

(* Youngest-wins forwarding across overlapping entries; the uncovered
   bytes of a partly forwarded load come from memory one byte at a time,
   in address order. *)
let test_sbuf_multi_overlap () =
  let t = Storebuf.create () in
  ignore (Storebuf.push t ~paddr:0 ~size:4 ~value:0x11111111);
  ignore (Storebuf.push t ~paddr:1 ~size:1 ~value:0x22);
  ignore (Storebuf.push t ~paddr:0 ~size:1 ~value:0x33);
  ignore (Storebuf.push t ~paddr:1 ~size:4 ~value:0x44444444);
  let reads = ref [] in
  let mem_read a s =
    reads := (a, s) :: !reads;
    0xaa
  in
  Alcotest.(check int) "bytes 0-3" 0x44444433
    (Storebuf.read t ~mem_read ~paddr:0 ~size:4);
  Alcotest.(check int) "bytes 3-6" 0xaaaa4444
    (Storebuf.read t ~mem_read ~paddr:3 ~size:4);
  Alcotest.(check (list (pair int int))) "two bytes from memory"
    [ (6, 1); (5, 1) ] !reads;
  Alcotest.(check int) "no overlap: one full read" 0xaa
    (Storebuf.read t ~mem_read ~paddr:8 ~size:4);
  Alcotest.(check (list (pair int int))) "whole word"
    [ (8, 4); (6, 1); (5, 1) ] !reads

let alias_run ~seed ~slots ~steps () =
  let st = Random.State.make [| seed; slots |] in
  let r = Ref_alias.create ~slots and t = Alias.create ~slots () in
  for step = 1 to steps do
    let what = Printf.sprintf "seed %d step %d" seed step in
    (match Random.State.int st 8 with
    | 0 | 1 | 2 ->
        let slot = Random.State.int st slots in
        let paddr = Random.State.int st 48 in
        (* zero-length ranges included *)
        let len = Random.State.int st 9 in
        Ref_alias.arm r ~slot ~paddr ~len;
        Alias.arm t ~slot ~paddr ~len
    | 3 | 4 | 5 | 6 ->
        let mask = Random.State.int st (1 lsl slots) in
        let paddr = Random.State.int st 48 in
        let len = 1 + Random.State.int st 4 in
        let want =
          match Ref_alias.check r ~mask ~paddr ~len with
          | Some i -> i
          | None -> -1
        in
        Alcotest.(check int) (what ^ ": check") want
          (Alias.check t ~mask ~paddr ~len)
    | _ ->
        Ref_alias.clear r;
        Alias.clear t);
    Alcotest.(check bool) (what ^ ": any_armed") r.Ref_alias.any_armed
      t.Alias.any_armed;
    Alcotest.(check int) (what ^ ": violations") r.Ref_alias.violations
      t.Alias.violations;
    Alcotest.(check int) (what ^ ": checks") r.Ref_alias.checks t.Alias.checks;
    Alcotest.(check int) (what ^ ": arms") r.Ref_alias.arms t.Alias.arms
  done

let suites =
  let case name f = Alcotest.test_case name `Quick f in
  [
    ( "vliw.hw-model",
      [
        case "store buffer overflow at capacity" test_sbuf_capacity;
        case "store buffer multi-entry forwarding" test_sbuf_multi_overlap;
      ]
      @ List.concat_map
          (fun capacity ->
            List.map
              (fun seed ->
                case
                  (Printf.sprintf "store buffer vs model, capacity %d seed %d"
                     capacity seed)
                  (sbuf_run ~seed ~capacity ~steps:4_000))
              [ 1; 2; 3 ])
          [ 2; 8; 64 ]
      @ List.map
          (fun slots ->
            case
              (Printf.sprintf "alias slots vs model, %d slots" slots)
              (alias_run ~seed:slots ~slots ~steps:20_000))
          [ 1; 4; 8 ] );
  ]
