(** Replayable corpus cases.

    A corpus file captures a *rendered* case — the assembled image plus
    its injected events — in a stable, diff-friendly text format, so a
    minimized divergence found by one fuzz run becomes a permanent
    regression test independent of later generator changes:

    {v
    cmsfuzz-case v1
    # free-form comment lines
    seed 42
    base 0x10000
    entry 0x10000
    max-insns 200000
    image 8b0425...
    image 90c3...
    event irq 120 2
    event dma 0x41000 deadbeef
    event prot 0x10000 0
    v}

    An optional [chaos <seed>] directive marks a chaos-mode case:
    replay then runs the chaos oracle (translator under the seeded
    host-side injection schedule) instead of the clean differential.

    [image] lines concatenate in order.  Replay loads the bytes at
    [base], boots at [entry], installs the events and runs the full
    differential oracle. *)

module Journal = Cms_persist.Journal

let magic = "cmsfuzz-case v1"

let to_hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun ch -> Buffer.add_string b (Fmt.str "%02x" (Char.code ch))) s;
  Buffer.contents b

let of_hex s =
  if String.length s mod 2 <> 0 then invalid_arg "Corpus.of_hex";
  String.init
    (String.length s / 2)
    (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let write_string (r : Oracle.rendered) ~seed ~comment =
  let b = Buffer.create 4096 in
  Buffer.add_string b (magic ^ "\n");
  List.iter
    (fun line -> Buffer.add_string b ("# " ^ line ^ "\n"))
    comment;
  Buffer.add_string b (Fmt.str "seed %d\n" seed);
  Buffer.add_string b (Fmt.str "base 0x%x\n" r.Oracle.listing.X86.Asm.base);
  Buffer.add_string b (Fmt.str "entry 0x%x\n" r.Oracle.entry);
  Buffer.add_string b (Fmt.str "max-insns %d\n" r.Oracle.max_insns);
  (match r.Oracle.chaos with
  | Some s -> Buffer.add_string b (Fmt.str "chaos %d\n" s)
  | None -> ());
  let hex = to_hex (Bytes.to_string r.Oracle.listing.X86.Asm.image) in
  let n = String.length hex in
  let stride = 128 in
  let rec lines i =
    if i < n then begin
      Buffer.add_string b
        (Fmt.str "image %s\n" (String.sub hex i (min stride (n - i))));
      lines (i + stride)
    end
  in
  lines 0;
  List.iter
    (fun ev ->
      Buffer.add_string b
        (match ev with
        | Journal.Irq { at; line } -> Fmt.str "event irq %d %d\n" at line
        | Journal.Dma { addr; data } ->
            Fmt.str "event dma 0x%x %s\n" addr (to_hex data)
        | Journal.Prot { virt; writable } ->
            Fmt.str "event prot 0x%x %d\n" virt (if writable then 1 else 0)
        | Journal.Pkt { at; data } ->
            Fmt.str "event pkt %d %s\n" at (to_hex data)
        | Journal.Dma_at { at; addr; data } ->
            Fmt.str "event dmaat %d 0x%x %s\n" at addr (to_hex data)))
    r.Oracle.events;
  Buffer.contents b

let save path (r : Oracle.rendered) ~seed ~comment =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (write_string r ~seed ~comment))

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let parse_error path line msg =
  failwith (Fmt.str "%s: corpus parse error at %S: %s" path line msg)

(** Parse a corpus file; returns the rendered case and its recorded
    seed. *)
let load path : Oracle.rendered * int =
  let ic = open_in path in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  (match lines with
  | first :: _ when String.trim first = magic -> ()
  | _ -> failwith (Fmt.str "%s: not a %s file" path magic));
  let seed = ref 0 in
  let base = ref 0 in
  let entry = ref 0 in
  let max_insns = ref Oracle.default_max_insns in
  let chaos = ref None in
  let image = Buffer.create 4096 in
  let events = ref [] in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if i = 0 || line = "" || line.[0] = '#' then ()
      else
        match String.split_on_char ' ' line with
        | [ "seed"; v ] -> seed := int_of_string v
        | [ "base"; v ] -> base := int_of_string v
        | [ "entry"; v ] -> entry := int_of_string v
        | [ "max-insns"; v ] -> max_insns := int_of_string v
        | [ "chaos"; v ] -> chaos := Some (int_of_string v)
        | [ "image"; hex ] -> Buffer.add_string image (of_hex hex)
        | [ "event"; "irq"; at; ln ] ->
            events :=
              Journal.Irq { at = int_of_string at; line = int_of_string ln }
              :: !events
        | [ "event"; "dma"; addr; hex ] ->
            events :=
              Journal.Dma { addr = int_of_string addr; data = of_hex hex }
              :: !events
        | [ "event"; "prot"; virt; w ] ->
            events :=
              Journal.Prot
                { virt = int_of_string virt; writable = int_of_string w <> 0 }
              :: !events
        | [ "event"; "pkt"; at; hex ] ->
            events :=
              Journal.Pkt { at = int_of_string at; data = of_hex hex }
              :: !events
        | [ "event"; "dmaat"; at; addr; hex ] ->
            events :=
              Journal.Dma_at
                { at = int_of_string at;
                  addr = int_of_string addr;
                  data = of_hex hex }
              :: !events
        | _ -> parse_error path line "unrecognized directive")
    lines;
  if Buffer.length image = 0 then parse_error path "(end)" "no image lines";
  let listing =
    {
      X86.Asm.base = !base;
      image = Buffer.to_bytes image;
      labels = [];
      insns = [];
    }
  in
  ( { Oracle.listing; entry = !entry; events = List.rev !events;
      max_insns = !max_insns; chaos = !chaos },
    !seed )

(** Replay one corpus file through the differential oracle. *)
let replay path : Oracle.verdict =
  let r, _seed = load path in
  Oracle.check r

(** All corpus files in [dir], sorted for deterministic order. *)
let files dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".case")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  else []
