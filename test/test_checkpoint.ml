(* Checkpoint cost tracks written pages: the word-wide sparse encoder
   against a byte-at-a-time reference, decoding straight into guest RAM,
   the "unwritten page is all zero" invariant over the whole workload
   suite and a restored fleet machine, and pinned digests of two real
   snapshot images (the encoding must never move). *)

module P = Cms_persist
module Suite = Workloads.Suite
module Fleet = Cms_fleet.Fleet
module Phys = Machine.Phys

let check = Alcotest.check
let chunk = P.Codec.sparse_chunk

(* The sparse encoder as it was first written: every byte tested, one
   at a time.  The production encoder must produce exactly these bytes. *)
let ref_sparse data =
  let b = P.Codec.writer () in
  let total = Bytes.length data in
  P.Codec.w_int b total;
  let chunks = ref [] in
  let off = ref 0 in
  while !off < total do
    let len = min chunk (total - !off) in
    let live = ref false in
    for i = !off to !off + len - 1 do
      if Bytes.get data i <> '\000' then live := true
    done;
    if !live then chunks := (!off, len) :: !chunks;
    off := !off + len
  done;
  P.Codec.w_int b (List.length !chunks);
  List.iter
    (fun (off, len) ->
      P.Codec.w_int b off;
      P.Codec.w_string b (Bytes.sub_string data off len))
    (List.rev !chunks);
  P.Codec.contents b

let encode ?live data =
  let b = P.Codec.writer () in
  P.Codec.w_sparse ?live b data;
  P.Codec.contents b

(* Decode the way [Snapshot.restore] does: chunk by chunk into RAM. *)
let decode_into_phys s =
  let r = P.Codec.reader s in
  let phys =
    P.Codec.r_sparse_into r ~alloc:Phys.create ~blit:(fun p addr s ->
        Phys.blit_string p ~addr s)
  in
  P.Codec.r_end r;
  phys

let npages (phys : Phys.t) = (phys.Phys.size + chunk - 1) / chunk

let page_is_zero (phys : Phys.t) ppn =
  let lo = ppn * chunk in
  let hi = min phys.Phys.size (lo + chunk) in
  let rec go i = i >= hi || (Bytes.get phys.Phys.data i = '\000' && go (i + 1)) in
  go lo

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_word_encoder () =
  let sizes = [ 0; 1; 7; 4095; 4097; (3 * chunk) + 100 ] in
  List.iter
    (fun size ->
      let nchunks = (size + chunk - 1) / chunk in
      (* a lone non-zero byte at the first and last byte of every chunk,
         at the first byte after the chunk's last full word (the
         unaligned tail), and in the middle of a short tail chunk *)
      let positions =
        List.concat_map
          (fun k ->
            let lo = k * chunk in
            let len = min chunk (size - lo) in
            [ lo; lo + len - 1; lo + (len land lnot 7); lo + (len / 2) ])
          (List.init nchunks Fun.id)
        |> List.filter (fun p -> p >= 0 && p < size)
        |> List.sort_uniq compare
      in
      let case name data =
        let expect = ref_sparse data in
        check Alcotest.string (Fmt.str "%s: full scan" name) expect
          (encode data);
        (* the predicate may rule out exactly the all-zero chunks *)
        let exact k =
          let lo = k * chunk in
          let len = min chunk (size - lo) in
          not (Bytes.equal (Bytes.sub data lo len) (Bytes.make len '\000'))
        in
        check Alcotest.string (Fmt.str "%s: live chunks only" name) expect
          (encode ~live:exact data);
        let phys = decode_into_phys expect in
        check Alcotest.bool (Fmt.str "%s: decodes into RAM" name) true
          (Bytes.equal data phys.Phys.data);
        for ppn = 0 to npages phys - 1 do
          check Alcotest.bool
            (Fmt.str "%s: page %d flagged iff decoded" name ppn)
            (exact ppn) (Phys.written phys ppn)
        done
      in
      case (Fmt.str "size %d zero" size) (Bytes.make size '\000');
      List.iter
        (fun p ->
          let d = Bytes.make size '\000' in
          Bytes.set d p '\x5a';
          case (Fmt.str "size %d byte %d" size p) d)
        positions)
    sizes

(* An out-of-range chunk is refused on the restore path too, both from a
   bare sparse stream and inside a well-formed snapshot container. *)
let test_restore_bounds () =
  let sparse total chunks =
    let b = P.Codec.writer () in
    P.Codec.w_int b total;
    P.Codec.w_int b (List.length chunks);
    List.iter
      (fun (off, s) ->
        P.Codec.w_int b off;
        P.Codec.w_string b s)
      chunks;
    P.Codec.contents b
  in
  let refused what s =
    match decode_into_phys s with
    | _ -> Alcotest.failf "%s: out-of-range chunk accepted" what
    | exception P.Codec.Corrupt _ -> ()
  in
  refused "past the end" (sparse 8192 [ (8190, "abcd") ]);
  refused "negative offset" (sparse 8192 [ (-1, "a") ]);
  refused "negative size" (sparse (-1) []);
  let c = Suite.prepare (Test_persist.compress ()) in
  ignore (Cms.run ~max_insns:50_000 c);
  let img = P.Snapshot.capture c in
  let secs =
    P.Codec.read_container ~kind:P.Snapshot.kind ~version:P.Snapshot.version
      img
  in
  let pmem = P.Codec.section secs "PMEM" in
  let ram = (Cms.mem c).Machine.Mem.phys.Phys.size in
  (* a self-consistent container whose PMEM chunk overruns RAM *)
  let bad =
    sparse ram [ (ram - 2, "abcd") ]
    ^ String.sub pmem (String.length pmem - 40) 40
  in
  let forged =
    P.Codec.write_container ~kind:P.Snapshot.kind ~version:P.Snapshot.version
      (List.map (fun (t, p) -> (t, if t = "PMEM" then bad else p)) secs)
  in
  match P.Snapshot.restore forged with
  | _ -> Alcotest.fail "snapshot with an out-of-range RAM chunk restored"
  | exception P.Codec.Corrupt msg ->
      check Alcotest.bool "diagnostic names the chunk" true
        (Test_persist.contains msg "outside image")

(* ------------------------------------------------------------------ *)
(* The written-page invariant                                          *)
(* ------------------------------------------------------------------ *)

let flagged (phys : Phys.t) =
  List.filter (Phys.written phys) (List.init (npages phys) Fun.id)

let test_phys_flags () =
  let pages = Alcotest.(list int) in
  let phys = Phys.create (8 * chunk) in
  check pages "fresh RAM" [] (flagged phys);
  Phys.write8 phys ((2 * chunk) + 5) 0;
  check pages "write8" [ 2 ] (flagged phys);
  Phys.write32 phys (chunk - 2) 0x01020304;
  check pages "write32 straddling a page boundary" [ 0; 1; 2 ] (flagged phys);
  Phys.blit_string phys ~addr:(5 * chunk) "";
  check pages "empty blit" [ 0; 1; 2 ] (flagged phys);
  Phys.blit_bytes phys ~addr:((4 * chunk) - 1) (Bytes.make (chunk + 2) 'x');
  check pages "blit across three pages" [ 0; 1; 2; 3; 4; 5 ] (flagged phys)

(* A released block comes back from [create] all zero and unflagged,
   after zeroing only the pages it flagged.  The pool is process-wide:
   emptied first so earlier tests' blocks neither fill it nor answer a
   [create] here, and emptied again so none of these small blocks sits
   in a slot the fleet tests' RAM needs. *)
let test_phys_release () =
  let pages = Alcotest.(list int) in
  Atomic.set Phys.pool [];
  let size = 8 * chunk in
  let phys = Phys.create size in
  Phys.write8 phys ((2 * chunk) + 5) 0xab;
  Phys.write32 phys (chunk - 2) 0xdeadbeef;
  Phys.blit_string phys ~addr:((5 * chunk) + 7) "recycled";
  Phys.write8 phys (size - 1) 0xff;
  check pages "written" [ 0; 1; 2; 5; 7 ] (flagged phys);
  Phys.release phys;
  let again = Phys.create size in
  check Alcotest.bool "create returns the released block" true (again == phys);
  check pages "no page flagged" [] (flagged again);
  check Alcotest.bool "every byte zero" true
    (Bytes.for_all (fun ch -> ch = '\000') again.Phys.data);
  Phys.release again;
  let other = Phys.create (4 * chunk) in
  check Alcotest.bool "another size gets a fresh block" false (other == phys);
  check Alcotest.int "the released block stays pooled" 1
    (List.length (Atomic.get Phys.pool));
  let blocks = List.init (Phys.pool_cap + 1) (fun _ -> Phys.create chunk) in
  List.iter Phys.release blocks;
  check Alcotest.int "the pool is capped" Phys.pool_cap
    (List.length (Atomic.get Phys.pool));
  let extra = List.nth blocks Phys.pool_cap in
  check Alcotest.bool "a release beyond the cap is not kept" false
    (List.memq extra (Atomic.get Phys.pool));
  Atomic.set Phys.pool []

(* Every page [Phys] calls unwritten is all zero, and the PMEM section
   of a capture equals the full-scan reference encoding. *)
let check_invariant name c =
  let phys = (Cms.mem c).Machine.Mem.phys in
  for ppn = 0 to npages phys - 1 do
    if not (Phys.written phys ppn) && not (page_is_zero phys ppn) then
      Alcotest.failf "%s: page %#x holds data but is not flagged written"
        name ppn
  done;
  let img = P.Snapshot.capture c in
  let pmem =
    P.Codec.section
      (P.Codec.read_container ~kind:P.Snapshot.kind
         ~version:P.Snapshot.version img)
      "PMEM"
  in
  let full = ref_sparse phys.Phys.data in
  check Alcotest.bool
    (name ^ ": PMEM equals the full-scan encoding")
    true
    (String.length pmem = String.length full + 40
    && String.sub pmem 0 (String.length full) = full)

let test_suite_invariant () =
  List.iter
    (fun w -> check_invariant w.Suite.name (Suite.run w))
    (Test_persist.all_workloads ())

exception First_checkpoint

(* Fleet machine 0 of the seed-1 traffic, run in production config until
   its first checkpoint; returns the machine, its spec and the image. *)
let fleet_first_checkpoint () =
  let spec = List.hd (Fleet.traffic_specs ~seed:1 ~machines:4) in
  let c = Suite.prepare ~cfg:Fleet.engine_cfg spec.Fleet.s_workload in
  let inj = P.Journal.install_guest c spec.Fleet.s_events in
  let ck =
    P.Snapshot.arm ~label:"m0" ~injector:inj c
      ~every:Fleet.default_config.Fleet.checkpoint_every
  in
  let prev = c.Cms.Engine.on_boundary in
  c.Cms.Engine.on_boundary <-
    Some
      (fun retired ->
        Option.iter (fun f -> f retired) prev;
        if ck.P.Snapshot.image <> None then raise First_checkpoint);
  (try ignore (Cms.run ~max_insns:spec.Fleet.s_workload.Suite.max_insns c)
   with First_checkpoint -> ());
  match ck.P.Snapshot.image with
  | Some img -> (c, spec, img)
  | None -> Alcotest.fail "fleet machine took no checkpoint"

let test_fleet_restored_invariant () =
  let _, spec, img = fleet_first_checkpoint () in
  let c, meta = P.Snapshot.restore img in
  (* restore flags exactly the pages the image carries *)
  let phys = (Cms.mem c).Machine.Mem.phys in
  let r =
    P.Codec.reader
      (P.Codec.section
         (P.Codec.read_container ~kind:P.Snapshot.kind
            ~version:P.Snapshot.version img)
         "PMEM")
  in
  let carried = ref [] in
  ignore
    (P.Codec.r_sparse_into r ~alloc:ignore ~blit:(fun () off _ ->
         carried := (off / chunk) :: !carried));
  check (Alcotest.list Alcotest.int) "restored pages flagged"
    (List.rev !carried) (flagged phys);
  check_invariant "fleet m0 restored" c;
  ignore
    (P.Journal.install_guest ~irq_cursor:meta.P.Snapshot.irq_cursor
       ~sync_cursor:meta.P.Snapshot.sync_cursor c spec.Fleet.s_events
      : P.Journal.injector);
  (match Cms.run ~max_insns:spec.Fleet.s_workload.Suite.max_insns c with
  | Cms.Engine.Halted -> ()
  | Cms.Engine.Insn_limit -> Alcotest.fail "restored machine did not halt");
  check Alcotest.int "restored machine checksum" spec.Fleet.s_expected_eax
    (Cms.gpr c X86.Regs.eax);
  check_invariant "fleet m0 after running on" c

(* The disk image is scanned by the first capture only; every capture
   still writes the full-scan encoding of it. *)
let test_disk_scanned_once () =
  let w =
    List.find
      (fun w -> w.Suite.disk_image <> None)
      (Test_persist.all_workloads ())
  in
  let c = Suite.prepare w in
  ignore (Cms.run ~max_insns:50_000 c : Cms.Engine.stop);
  let disk = (Cms.platform c).Machine.Platform.disk in
  let disk_sparse () =
    let s =
      P.Codec.section
        (P.Codec.read_container ~kind:P.Snapshot.kind
           ~version:P.Snapshot.version (P.Snapshot.capture c))
        "DISK"
    in
    (* six register words precede the image *)
    String.sub s 48 (String.length s - 48)
  in
  let expect = ref_sparse disk.Machine.Disk.image in
  check Alcotest.string (w.Suite.name ^ ": first capture") expect
    (disk_sparse ());
  check Alcotest.bool "chunk list cached" true
    (disk.Machine.Disk.image_chunks <> None);
  check Alcotest.string (w.Suite.name ^ ": cached capture") expect
    (disk_sparse ())

(* ------------------------------------------------------------------ *)
(* Pinned images                                                       *)
(* ------------------------------------------------------------------ *)

(* Digests of whole snapshot images as a full-RAM scan wrote them
   before written-page tracking existed (re-derived for snapshot
   version 7 by the same full-scan encoder minus the removed
   background-translator fields, and for version 8 from the version 7
   images by dropping the four removed decoder-tier Config booleans
   from CONF and re-sealing the container: nothing else moved).
   Skipping unwritten pages must not change a single byte.  (The fleet
   image depends on the translation verifier the test runner
   installs.) *)
let test_pinned_images () =
  let c = Suite.prepare (Test_persist.compress ()) in
  (match Cms.run ~max_insns:200_000 c with
  | Cms.Engine.Insn_limit -> ()
  | Cms.Engine.Halted -> Alcotest.fail "workload finished too early");
  check Alcotest.string "026.compress at 200k retired"
    "1b92df231cc57fdb0ca56924d4e205e5"
    (Digest.to_hex (Digest.string (P.Snapshot.capture c)));
  let _, _, img = fleet_first_checkpoint () in
  check Alcotest.string "fleet m0 first checkpoint"
    "81d71dd9395b7804ea377c2c428f0822"
    (Digest.to_hex (Digest.string img))

let suites =
  [
    ( "persist written pages",
      [
        Alcotest.test_case "word encoder = byte reference" `Quick
          test_word_encoder;
        Alcotest.test_case "restore path bounds checks" `Quick
          test_restore_bounds;
        Alcotest.test_case "Phys flags written pages" `Quick test_phys_flags;
        Alcotest.test_case "Phys release recycles zeroed RAM" `Quick
          test_phys_release;
        Alcotest.test_case "unwritten pages zero, all workloads" `Slow
          test_suite_invariant;
        Alcotest.test_case "restored fleet machine" `Quick
          test_fleet_restored_invariant;
        Alcotest.test_case "pinned image digests" `Quick test_pinned_images;
        Alcotest.test_case "disk image scanned once" `Quick
          test_disk_scanned_once;
      ] );
  ]
