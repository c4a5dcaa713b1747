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

let encode data =
  let b = P.Codec.writer () in
  P.Codec.w_sparse b data;
  P.Codec.contents b

(* Encode RAM the way PMEM does: only the pages its flags allow. *)
let encode_ram phys =
  let b = P.Codec.writer () in
  P.Snapshot.w_ram b phys;
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
  let rec go i = i >= hi || (Phys.read8 phys i = 0 && go (i + 1)) in
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
        (* decoding flags exactly the non-zero chunks *)
        let exact k =
          let lo = k * chunk in
          let len = min chunk (size - lo) in
          not (Bytes.equal (Bytes.sub data lo len) (Bytes.make len '\000'))
        in
        let phys = decode_into_phys expect in
        check Alcotest.bool (Fmt.str "%s: decodes into RAM" name) true
          (Bytes.equal data (Phys.to_bytes phys));
        for ppn = 0 to npages phys - 1 do
          check Alcotest.bool
            (Fmt.str "%s: page %d flagged iff decoded" name ppn)
            (exact ppn) (Phys.written phys ppn)
        done;
        check Alcotest.string (Fmt.str "%s: live pages only" name) expect
          (encode_ram phys)
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
    (Bytes.for_all (fun ch -> ch = '\000') (Phys.to_bytes again));
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
  let full = ref_sparse (Phys.to_bytes phys) in
  check Alcotest.bool
    (name ^ ": PMEM equals the full-scan encoding")
    true
    (String.length pmem = String.length full + 24
    && String.sub pmem 0 (String.length full) = full)

let test_suite_invariant () =
  List.iter
    (fun w -> check_invariant w.Suite.name (Suite.run w))
    (Workloads.Catalog.all ())

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
        if ck.P.Snapshot.latest <> None then raise First_checkpoint);
  (try ignore (Cms.run ~max_insns:spec.Fleet.s_workload.Suite.max_insns c)
   with First_checkpoint -> ());
  match P.Snapshot.latest_image ck with
  | Some img -> (c, spec, img)
  | None -> Alcotest.fail "fleet machine took no checkpoint"

let test_fleet_restored_invariant () =
  let _, spec, img = fleet_first_checkpoint () in
  let c, _ = P.Snapshot.resume img spec.Fleet.s_events in
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
      (Workloads.Catalog.all ())
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
   from CONF and re-sealing the container: nothing else moved; for
   version 9 from the version 8 images by dropping the removed verifier
   Config boolean from CONF and re-sealing.  The 026.compress image's
   STAT section moved too: its translations_verified, 0 while the
   default config skipped the verifier, now counts all 5 fresh
   compiles, the value a version 8 run with the verifier on recorded.
   Nothing else moved).  The 026.compress image moved once more when
   every translation began reading its region's source bytes at the
   translate instant, the key of its translation group: the MMU's
   tlb_hits and the memory's fast-read counter, in MMUS, PMEM and
   STAT, count those reads (45662 -> 46142 and 310 -> 460), and no
   other byte moved.  The fleet machine's image moved the same way,
   in MMUS and PMEM only (its STAT section holds the counters as last
   synced): tlb_hits +112 and fast reads +70 for its three
   translations.  For version 10 both images moved once more, by a
   section byte diff in CONF, MMUS and PMEM only: CONF lost the
   fourteen fixed budgets and charges, MMUS the TLB's hit and miss
   counts and PMEM the fast path's read and write counts.  For version
   11 both moved by a section byte diff that drops the PROT (32 bytes)
   and TCAC (24 bytes) sections and the ADPT eviction count (one int,
   0 in both), with every other section byte-identical.  Skipping
   unwritten pages must not change a single byte. *)
let test_pinned_images () =
  let c = Suite.prepare (Test_persist.compress ()) in
  (match Cms.run ~max_insns:200_000 c with
  | Cms.Engine.Insn_limit -> ()
  | Cms.Engine.Halted -> Alcotest.fail "workload finished too early");
  check Alcotest.string "026.compress at 200k retired"
    "321d726dde0221d0a14fe586ce1d5f77"
    (Digest.to_hex (Digest.string (P.Snapshot.capture c)));
  let _, _, img = fleet_first_checkpoint () in
  check Alcotest.string "fleet m0 first checkpoint"
    "9d3b8e1c95f9ae1b7d54edbfdac37ff0"
    (Digest.to_hex (Digest.string img))

(* ------------------------------------------------------------------ *)
(* Frozen checkpoints                                                  *)
(* ------------------------------------------------------------------ *)

let on_boundary c f =
  let prev = c.Cms.Engine.on_boundary in
  c.Cms.Engine.on_boundary <-
    Some
      (fun retired ->
        Option.iter (fun g -> g retired) prev;
        f retired)

(* The checkpoint images of one run of [boot ()] to [max_insns], taken
   every [every] retired instructions, twice: through [Snapshot.arm],
   sealing each checkpoint as soon as it is frozen (and its predecessor
   again, which the next freeze must not have overwritten), and by an
   eager [Snapshot.capture] at the same boundaries.  The first list ends with
   the checkpointer's latest image sealed after the run. *)
let checkpoint_images ~every ~max_insns boot =
  let run take =
    let c, injector = boot () in
    let images = ref [] in
    let finish = take c injector images in
    ignore (Cms.run ~max_insns c : Cms.Engine.stop);
    finish ();
    List.rev !images
  in
  let sealed =
    run (fun c injector images ->
        let ck = P.Snapshot.arm ~label:"ck" ?injector c ~every in
        let seen = ref 0 and prev = ref None in
        on_boundary c (fun _ ->
            if ck.P.Snapshot.captures > !seen then begin
              seen := ck.P.Snapshot.captures;
              (* the checkpoint before the newest is still whole *)
              Option.iter
                (fun f ->
                  check Alcotest.bool "previous checkpoint intact" true
                    (P.Snapshot.seal f = List.hd !images))
                !prev;
              prev := ck.P.Snapshot.latest;
              images := Option.get (P.Snapshot.latest_image ck) :: !images
            end);
        fun () ->
          match P.Snapshot.latest_image ck with
          | Some img -> images := img :: !images
          | None -> ())
  in
  let eager =
    run (fun c injector images ->
        let last = ref 0 in
        on_boundary c (fun retired ->
            if retired - !last >= every then begin
              images := P.Snapshot.capture ~label:"ck" ?injector c :: !images;
              last := retired
            end);
        ignore)
  in
  (sealed, eager)

let check_identical name (sealed, eager) =
  check Alcotest.bool (name ^ ": several checkpoints") true
    (List.length eager > 2);
  check Alcotest.int (name ^ ": as many checkpoints")
    (List.length eager + 1)
    (List.length sealed);
  List.iteri
    (fun i img ->
      check Alcotest.string
        (Fmt.str "%s: checkpoint %d (%d bytes) byte-equal" name i
           (String.length img))
        (Digest.to_hex (Digest.string img))
        (Digest.to_hex (Digest.string (List.nth sealed i))))
    eager;
  let n = List.length eager in
  check Alcotest.bool (name ^ ": latest sealed after the run") true
    (List.nth sealed n = List.nth eager (n - 1))

let test_frozen_fleet_identical () =
  let spec = List.hd (Fleet.traffic_specs ~seed:1 ~machines:4) in
  check_identical "fleet m0"
    (checkpoint_images ~every:Fleet.default_config.Fleet.checkpoint_every
       ~max_insns:spec.Fleet.s_workload.Suite.max_insns (fun () ->
         let c = Suite.prepare ~cfg:Fleet.engine_cfg spec.Fleet.s_workload in
         (c, Some (P.Journal.install_guest c spec.Fleet.s_events))))

let test_frozen_compress_identical () =
  let w = Test_persist.compress () in
  check_identical "026.compress"
    (checkpoint_images ~every:50_000 ~max_insns:w.Suite.max_insns (fun () ->
         (Suite.prepare w, None)))

(* A capture that reuses the MMU's and the frame buffer's cached
   encodings must equal one made from a fresh page-table dump and
   frame-buffer scan.  Both captures count themselves in the stats, so
   the counters are put back between them. *)
let check_fresh name c =
  let s = Cms.stats c in
  let written = s.Cms.Stats.snapshots_written
  and bytes = s.Cms.Stats.snapshot_bytes in
  let cached = P.Snapshot.capture c in
  s.Cms.Stats.snapshots_written <- written;
  s.Cms.Stats.snapshot_bytes <- bytes;
  (Cms.mem c).Machine.Mem.mmu.Machine.Mmu.dump_cache <- None;
  (Cms.platform c).Machine.Platform.fb.Machine.Framebuf.chunks <- None;
  check Alcotest.string
    (name ^ ": cached capture = fresh capture")
    (Digest.to_hex (Digest.string (P.Snapshot.capture c)))
    (Digest.to_hex (Digest.string cached));
  cached

let section img tag =
  P.Codec.section
    (P.Codec.read_container ~kind:P.Snapshot.kind ~version:P.Snapshot.version
       img)
    tag

let test_mmu_cache_invalidation () =
  let c = Suite.prepare (Test_persist.compress ()) in
  ignore (Cms.run ~max_insns:50_000 c : Cms.Engine.stop);
  let mmu = (Cms.mem c).Machine.Mem.mmu in
  let module Mmu = Machine.Mmu in
  let before = ref (check_fresh "booted" c) in
  let cache () = Option.map snd mmu.Mmu.dump_cache in
  let kept = cache () in
  ignore (P.Snapshot.capture c : string);
  check Alcotest.bool "unchanged table: encoding reused" true
    (Option.get (cache ()) == Option.get kept);
  ignore (check_fresh "unchanged" c : string);
  let high = 0x3000_0000 in
  List.iter
    (fun (name, mutate) ->
      mutate ();
      let img = check_fresh name c in
      check Alcotest.bool (name ^ ": MMUS moved") false
        (section img "MMUS" = section !before "MMUS");
      before := img)
    [
      ( "set_entry",
        fun () -> Mmu.set_entry mmu ~vpn:0x31000 ~ppn:7 ~writable:true );
      ("map", fun () -> Mmu.map mmu ~virt:high ~phys:0x5000 ~writable:false);
      ( "map_identity",
        fun () ->
          Mmu.map_identity mmu ~virt:(high + 0x10000) ~pages:3 ~writable:true
      );
      ("unmap", fun () -> Mmu.unmap mmu ~virt:high);
      ("set_writable", fun () -> Mmu.set_writable mmu ~virt:0x1000 false);
      ("set_enabled", fun () -> Mmu.set_enabled mmu (not mmu.Mmu.enabled));
      ( "load_entries",
        fun () -> Mmu.load_entries mmu (List.tl (Mmu.dump_entries mmu)) );
    ]

let test_fb_cache_invalidation () =
  let w =
    Option.get (Workloads.Catalog.find "Quake Demo2 (DOS)")
  in
  let c = Suite.prepare w in
  let fb = (Cms.platform c).Machine.Platform.fb in
  let module Fb = Machine.Framebuf in
  let before = ref (check_fresh "booted" c) in
  let limit = ref 0 in
  let drawn = ref 0 in
  while !drawn < 3 do
    let writes = fb.Fb.writes in
    limit := !limit + 100_000;
    (match Cms.run ~max_insns:!limit c with
    | Cms.Engine.Insn_limit -> ()
    | Cms.Engine.Halted -> Alcotest.fail "Quake finished before drawing");
    if fb.Fb.writes > writes then begin
      incr drawn;
      let img = check_fresh (Fmt.str "after %d insns" !limit) c in
      check Alcotest.bool "FBUF moved" false
        (section img "FBUF" = section !before "FBUF");
      before := img
    end
  done;
  (* a restore may bring back the same store count over other bytes:
     take into [c] the FBUF of a copy whose zero bytes were set *)
  let copy = fst (P.Snapshot.restore (P.Snapshot.capture c)) in
  let mem = (Cms.platform copy).Machine.Platform.fb.Fb.mem in
  Bytes.iteri (fun i ch -> if ch = '\000' then Bytes.set mem i '\001') mem;
  let other = section (P.Snapshot.capture copy) "FBUF" in
  let r = P.Codec.reader other in
  ignore (P.Codec.r_fields (List.assoc "FBUF" P.Snapshot.state) r c : Cms.t);
  P.Codec.r_end r;
  check Alcotest.int "same store count" fb.Fb.writes
    (Cms.platform copy).Machine.Platform.fb.Fb.writes;
  let img = check_fresh "restored" c in
  check Alcotest.bool "restore: FBUF as taken" true (section img "FBUF" = other)

(* The software TLB's and the RAM fast path's hit counters are host
   bookkeeping: two machines that differ only in them freeze to the
   same bytes. *)
let test_host_counters_not_frozen () =
  let run () =
    let c = Suite.prepare (Test_persist.compress ()) in
    ignore (Cms.run ~max_insns:50_000 c : Cms.Engine.stop);
    c
  in
  let a = run () and b = run () in
  let mem = Cms.mem b in
  let mmu = mem.Machine.Mem.mmu in
  mmu.Machine.Mmu.tlb_hits <- mmu.Machine.Mmu.tlb_hits + 17;
  mmu.Machine.Mmu.tlb_misses <- mmu.Machine.Mmu.tlb_misses + 3;
  mem.Machine.Mem.fast_reads <- mem.Machine.Mem.fast_reads + 5;
  mem.Machine.Mem.fast_writes <- mem.Machine.Mem.fast_writes + 7;
  check Alcotest.bool "counters differ" true
    ((Cms.mem a).Machine.Mem.fast_reads <> mem.Machine.Mem.fast_reads);
  check Alcotest.string "same frozen bytes"
    (Digest.to_hex (Digest.string (P.Snapshot.seal (P.Snapshot.freeze a))))
    (Digest.to_hex (Digest.string (P.Snapshot.seal (P.Snapshot.freeze b))))

(* The masked RAM digest zeroes the masked bytes in place and puts them
   back: same digest as zeroing a copy, same RAM and written flags
   after. *)
let test_masked_digest_in_place () =
  let w =
    Option.get (Workloads.Catalog.find "RR Kernel")
  in
  let c = Suite.run w in
  let phys = (Cms.mem c).Machine.Mem.phys in
  let ram = Phys.to_bytes phys in
  let flags = Bytes.copy phys.Phys.written in
  let reference mask =
    let d = Bytes.copy ram in
    List.iter (fun (lo, hi) -> Bytes.fill d lo (hi - lo) '\000') mask;
    Digest.bytes d
  in
  let first p = List.find p (List.init (npages phys) Fun.id) * chunk in
  let written = first (Phys.written phys) in
  let unwritten = first (fun ppn -> not (Phys.written phys ppn)) in
  let masks =
    [
      [];
      [ (written + 100, written + chunk + 50) ];
      [ (unwritten + 8, unwritten + 64) ];
      [ (written, written + 300); (written + 100, written + 500) ];
      [ (written + 10, written + 10); (unwritten, unwritten + chunk) ];
      [ (0, phys.Phys.size) ];
    ]
  in
  List.iteri
    (fun i mask ->
      check Alcotest.string
        (Fmt.str "mask %d: digest" i)
        (Digest.to_hex (reference mask))
        (Digest.to_hex (P.Digests.mem_digest ~mask c));
      check Alcotest.bool (Fmt.str "mask %d: RAM unchanged" i) true
        (Bytes.equal ram (Phys.to_bytes phys));
      check Alcotest.bool (Fmt.str "mask %d: written flags unchanged" i) true
        (Bytes.equal flags phys.Phys.written))
    masks;
  let size = phys.Phys.size in
  (match P.Digests.mem_digest ~mask:[ (0, 8); (size - 4, size + 4) ] c with
  | _ -> Alcotest.fail "a mask past the end of RAM was accepted"
  | exception Invalid_argument _ -> ());
  check Alcotest.bool "refused mask: RAM unchanged" true
    (Bytes.equal ram (Phys.to_bytes phys))

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
    ( "persist frozen checkpoints",
      [
        Alcotest.test_case "fleet m0: sealed = eager captures" `Quick
          test_frozen_fleet_identical;
        Alcotest.test_case "026.compress: sealed = eager captures" `Quick
          test_frozen_compress_identical;
        Alcotest.test_case "page-table cache follows every change" `Quick
          test_mmu_cache_invalidation;
        Alcotest.test_case "frame-buffer cache follows stores and restore"
          `Quick test_fb_cache_invalidation;
        Alcotest.test_case "host hit counters are not frozen" `Quick
          test_host_counters_not_frozen;
        Alcotest.test_case "masked RAM digest in place" `Quick
          test_masked_digest_in_place;
      ] );
  ]
