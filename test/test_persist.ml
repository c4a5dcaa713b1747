(* Tests for the checkpoint/restore subsystem: the stable codec and its
   corruption diagnostics, snapshot capture/restore fidelity, the
   kill-and-resume soak drill across the whole workload suite,
   deterministic record-replay (suite, clean fuzz cases, a chaos
   campaign slice), mid-run resume from snapshot + journal suffix, and
   the forensics dump. *)

open Cms_fuzz
module P = Cms_persist

let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let expect_corrupt ?substr (f : unit -> unit) =
  match f () with
  | () -> Alcotest.fail "expected Codec.Corrupt to be raised"
  | exception P.Codec.Corrupt msg -> (
      match substr with
      | Some s when not (contains msg s) ->
          Alcotest.failf "diagnostic %S does not mention %S" msg s
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let b = P.Codec.writer () in
  P.Codec.w_int b 0;
  P.Codec.w_int b (-1);
  P.Codec.w_int b max_int;
  P.Codec.w_bool b true;
  P.Codec.w_bool b false;
  P.Codec.w_string b "";
  P.Codec.w_string b "hello\x00world";
  P.Codec.w_int64 b (-0x1234_5678_9abc_def0L);
  P.Codec.w_list b P.Codec.w_int [ 3; 1; 2 ];
  P.Codec.w_int_array b [| 9; 8 |];
  P.Codec.w_opt b P.Codec.w_string None;
  P.Codec.w_opt b P.Codec.w_string (Some "x");
  let r = P.Codec.reader (P.Codec.contents b) in
  check Alcotest.int "int 0" 0 (P.Codec.r_int r);
  check Alcotest.int "int -1" (-1) (P.Codec.r_int r);
  check Alcotest.int "int max" max_int (P.Codec.r_int r);
  check Alcotest.bool "bool t" true (P.Codec.r_bool r);
  check Alcotest.bool "bool f" false (P.Codec.r_bool r);
  check Alcotest.string "empty string" "" (P.Codec.r_string r);
  check Alcotest.string "string" "hello\x00world" (P.Codec.r_string r);
  check Alcotest.int64 "int64" (-0x1234_5678_9abc_def0L) (P.Codec.r_int64 r);
  check (Alcotest.list Alcotest.int) "list" [ 3; 1; 2 ]
    (P.Codec.r_list r P.Codec.r_int);
  check (Alcotest.array Alcotest.int) "array" [| 9; 8 |]
    (P.Codec.r_int_array r);
  check (Alcotest.option Alcotest.string) "opt none" None
    (P.Codec.r_opt r P.Codec.r_string);
  check (Alcotest.option Alcotest.string) "opt some" (Some "x")
    (P.Codec.r_opt r P.Codec.r_string);
  P.Codec.r_end r

let test_codec_strictness () =
  (* trailing bytes *)
  (let b = P.Codec.writer () in
   P.Codec.w_int b 1;
   let r = P.Codec.reader (P.Codec.contents b ^ "z") in
   ignore (P.Codec.r_int r);
   expect_corrupt ~substr:"trailing" (fun () -> P.Codec.r_end r));
  (* truncation *)
  expect_corrupt ~substr:"truncated" (fun () ->
      ignore (P.Codec.r_int (P.Codec.reader "abc")));
  (* invalid boolean byte *)
  expect_corrupt ~substr:"boolean" (fun () ->
      ignore (P.Codec.r_bool (P.Codec.reader "\x07")));
  (* negative string length *)
  let b = P.Codec.writer () in
  P.Codec.w_int b (-4);
  expect_corrupt (fun () ->
      ignore (P.Codec.r_string (P.Codec.reader (P.Codec.contents b))))

let test_codec_sparse () =
  let roundtrip data =
    let b = P.Codec.writer () in
    P.Codec.w_sparse b data;
    let r = P.Codec.reader (P.Codec.contents b) in
    let out = P.Codec.r_sparse r in
    P.Codec.r_end r;
    Alcotest.(check bool) "sparse roundtrip" true (Bytes.equal data out)
  in
  roundtrip (Bytes.create 0);
  roundtrip (Bytes.make 20_000 '\x00');
  roundtrip (Bytes.make 5000 '\xff');
  (* one live byte per region, zero gaps between *)
  let d = Bytes.make 40_000 '\x00' in
  Bytes.set d 0 'a';
  Bytes.set d 4095 'b';
  Bytes.set d 4096 'c';
  Bytes.set d 39_999 'z';
  roundtrip d;
  (* a 16 MiB image with one live page stays small *)
  let big = Bytes.make (16 * 1024 * 1024) '\x00' in
  Bytes.blit_string "payload" 0 big 0x100000 7;
  let b = P.Codec.writer () in
  P.Codec.w_sparse b big;
  Alcotest.(check bool)
    "sparse compresses zeros" true
    (String.length (P.Codec.contents b) < 16_384)

let test_container () =
  let img =
    P.Codec.write_container ~kind:"TEST" ~version:3
      [ ("AAAA", "alpha"); ("BBBB", "") ]
  in
  let secs = P.Codec.read_container ~kind:"TEST" ~version:3 img in
  check Alcotest.string "section A" "alpha" (P.Codec.section secs "AAAA");
  check Alcotest.string "section B" "" (P.Codec.section secs "BBBB");
  expect_corrupt ~substr:"missing required section" (fun () ->
      ignore (P.Codec.section secs "CCCC"));
  (* every corruption mode produces a diagnostic, never a wrong parse *)
  expect_corrupt ~substr:"magic" (fun () ->
      ignore (P.Codec.read_container ~kind:"TEST" ~version:3 ("X" ^ img)));
  expect_corrupt ~substr:"wrong image kind" (fun () ->
      ignore (P.Codec.read_container ~kind:"OTHR" ~version:3 img));
  expect_corrupt ~substr:"version" (fun () ->
      ignore (P.Codec.read_container ~kind:"TEST" ~version:4 img));
  expect_corrupt (fun () ->
      ignore
        (P.Codec.read_container ~kind:"TEST" ~version:3
           (String.sub img 0 (String.length img - 3))));
  (let flipped = Bytes.of_string img in
   let pos = String.length P.Codec.magic + 4 + 8 + 8 + 4 + 8 + 1 in
   Bytes.set flipped pos
     (Char.chr (Char.code (Bytes.get flipped pos) lxor 0xff));
   expect_corrupt ~substr:"digest mismatch" (fun () ->
       ignore
         (P.Codec.read_container ~kind:"TEST" ~version:3
            (Bytes.to_string flipped))));
  expect_corrupt (fun () ->
      ignore (P.Codec.read_container ~kind:"TEST" ~version:3 (img ^ "junk")))

(* [Codec.write_file] is the one atomic writer: a save over an existing
   file leaves no temp file behind, and a save whose temp file cannot
   be created raises with the old bytes intact. *)
let test_atomic_write_file () =
  let path = Filename.temp_file "codec" ".img" in
  let tmp = path ^ ".tmp" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists tmp then Sys.rmdir tmp)
    (fun () ->
      P.Codec.write_file path "old image";
      P.Codec.write_file path "new image";
      check Alcotest.string "overwritten" "new image" (P.Codec.read_file path);
      check Alcotest.bool "no temp file left behind" false
        (Sys.file_exists tmp);
      (* a directory squatting on the temp name: it cannot be opened *)
      Sys.mkdir tmp 0o700;
      (match P.Codec.write_file path "torn" with
      | () -> Alcotest.fail "save through an uncreatable temp file succeeded"
      | exception Sys_error _ -> ());
      check Alcotest.string "old bytes intact" "new image"
        (P.Codec.read_file path))

let codec_tests =
  [
    Alcotest.test_case "primitive roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "reader strictness" `Quick test_codec_strictness;
    Alcotest.test_case "sparse encoding" `Quick test_codec_sparse;
    Alcotest.test_case "container + corruption" `Quick test_container;
    Alcotest.test_case "atomic file write" `Quick test_atomic_write_file;
  ]

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)
(* ------------------------------------------------------------------ *)

module Suite = Workloads.Suite

let all_workloads () =
  Workloads.Progs_boot.all @ Workloads.Progs_spec.all
  @ Workloads.Progs_apps.all @ Workloads.Progs_quake.all
  @ [ Workloads.Progs_quake.blt_driver () ]
  @ Workloads.Progs_kernel.all

let compress () =
  List.find (fun w -> w.Suite.name = "026.compress (Linux)") (all_workloads ())

let test_inconsistent_capture () =
  let c = Suite.prepare (compress ()) in
  (* dirty the working copy without committing *)
  Vliw.Regfile.set (Cms.Cpu.regs (Cms.cpu c)) (Vliw.Abi.gpr X86.Regs.eax) 42;
  match P.Snapshot.capture c with
  | _ -> Alcotest.fail "capture of inconsistent state must raise"
  | exception P.Snapshot.Inconsistent _ -> ()

(* Capture mid-run, restore, capture again: every section except STAT
   (the restore bumps [resumes]) and PROT (protection is rebuilt cold,
   by design) must be byte-identical — the restore loses nothing it
   promises to keep. *)
let test_snapshot_stability () =
  let c = Suite.prepare (compress ()) in
  (match Cms.run ~max_insns:200_000 c with
  | Cms.Engine.Insn_limit -> ()
  | Cms.Engine.Halted -> Alcotest.fail "workload finished too early");
  let img1 = P.Snapshot.capture ~label:"stability" c in
  let c', meta = P.Snapshot.restore img1 in
  check Alcotest.string "label" "stability" meta.P.Snapshot.label;
  check Alcotest.int "retired clock" (Cms.retired c) meta.P.Snapshot.retired;
  let img2 = P.Snapshot.capture ~label:"stability" c' in
  let secs img =
    P.Codec.read_container ~kind:"SNAP" ~version:P.Snapshot.version img
  in
  List.iter2
    (fun (tag1, pay1) (tag2, pay2) ->
      check Alcotest.string "section order" tag1 tag2;
      if tag1 <> "STAT" && tag1 <> "PROT" then
        Alcotest.(check bool)
          (Fmt.str "section %s byte-identical" tag1)
          true (pay1 = pay2))
    (secs img1) (secs img2)

let test_snapshot_corruption () =
  let c = Suite.prepare (compress ()) in
  ignore (Cms.run ~max_insns:50_000 c);
  let img = P.Snapshot.capture c in
  expect_corrupt (fun () ->
      ignore (P.Snapshot.restore (String.sub img 0 (String.length img / 2))));
  (let flipped = Bytes.of_string img in
   Bytes.set flipped
     (String.length img / 2)
     (Char.chr
        (Char.code (Bytes.get flipped (String.length img / 2)) lxor 0x01));
   expect_corrupt ~substr:"digest mismatch" (fun () ->
       ignore (P.Snapshot.restore (Bytes.to_string flipped))));
  (* kind confusion both ways *)
  let j =
    {
      P.Journal.label = "x";
      cfg = Cms.Config.default;
      guest = [];
      host = [];
      arch_hex = None;
      strict_hex = None;
    }
  in
  expect_corrupt ~substr:"wrong image kind" (fun () ->
      ignore (P.Snapshot.restore (P.Journal.to_string j)));
  expect_corrupt ~substr:"wrong image kind" (fun () ->
      ignore (P.Journal.of_string img))

let test_persist_counters () =
  let c = Suite.prepare (compress ()) in
  ignore (Cms.run ~max_insns:50_000 c);
  let img = P.Snapshot.capture c in
  let s = Cms.stats c in
  check Alcotest.int "snapshots_written" 1 s.Cms.Stats.snapshots_written;
  check Alcotest.int "snapshot_bytes" (String.length img)
    s.Cms.Stats.snapshot_bytes;
  let c', _ = P.Snapshot.restore img in
  let s' = Cms.stats c' in
  check Alcotest.int "resumes after restore" 1 s'.Cms.Stats.resumes;
  (* the image carries pre-capture counters *)
  check Alcotest.int "restored snapshots_written" 0
    s'.Cms.Stats.snapshots_written

let snapshot_tests =
  [
    Alcotest.test_case "inconsistent capture rejected" `Quick
      test_inconsistent_capture;
    Alcotest.test_case "capture/restore/capture stability" `Quick
      test_snapshot_stability;
    Alcotest.test_case "corrupt image rejected" `Quick test_snapshot_corruption;
    Alcotest.test_case "persist counters" `Quick test_persist_counters;
  ]

(* ------------------------------------------------------------------ *)
(* Kill-and-resume soak across the whole suite                         *)
(* ------------------------------------------------------------------ *)

(* Timer-driven workloads are molecule-clock-dependent: a resumed run
   (cold tcache) consumes a different number of molecules to retire the
   same instructions, so jiffy counts, handler-frame stack bytes and
   device-poll counts legitimately differ.  Architectural results (GPRs,
   EIP, EFLAGS, UART, frame buffer) must match regardless. *)
let test_soak_suite () =
  List.iter
    (fun w ->
      let r =
        P.Soak.drill
          ~make:(fun () -> Suite.prepare w)
          ~max_insns:w.Suite.max_insns ~every:100_000
          ~compare_mem:(not w.Suite.uses_timer) ()
      in
      if not (P.Soak.ok r) then
        Alcotest.failf "%s: %a" w.Suite.name P.Soak.pp_result r;
      if r.P.Soak.resumes = 0 && w.Suite.max_insns > 100_000 then ())
    (all_workloads ())

let soak_tests =
  [ Alcotest.test_case "kill-and-resume, all workloads" `Slow test_soak_suite ]

(* ------------------------------------------------------------------ *)
(* Record / replay                                                     *)
(* ------------------------------------------------------------------ *)

(* A suite run is a pure function of its configuration: running twice
   must produce bit-identical arch and strict digests (what cmsrun
   --record / --replay checks end to end). *)
let test_suite_record_replay () =
  List.iter
    (fun w ->
      let digest () =
        let t = Suite.run w in
        ( P.Digests.arch_hex (P.Digests.arch t),
          P.Digests.strict_hex (P.Digests.strict t) )
      in
      let a1, s1 = digest () in
      let a2, s2 = digest () in
      check Alcotest.string (w.Suite.name ^ " arch") a1 a2;
      check Alcotest.string (w.Suite.name ^ " strict") s1 s2)
    (all_workloads ())

let test_journal_roundtrip () =
  let j =
    {
      P.Journal.label = "case-7";
      cfg = { Cms.Config.default with Cms.Config.tcache_capacity = 5 };
      guest =
        [
          P.Journal.Irq { at = 100; line = 3 };
          P.Journal.Dma { addr = 0x2000; data = "\x01\x02" };
          P.Journal.Prot { virt = 0x3000; writable = false };
        ];
      host =
        [
          P.Journal.Kill { nth = 2 };
          P.Journal.Pre_fault { nth = 5; alias = true };
          P.Journal.Spoof { nth = 0 };
          P.Journal.Flush { nth = 9 };
          P.Journal.Evict { nth = 4 };
        ];
      arch_hex = Some "deadbeef";
      strict_hex = None;
    }
  in
  let j' = P.Journal.of_string (P.Journal.to_string j) in
  Alcotest.(check bool) "journal roundtrip" true (j = j');
  (* corruption of the event section is rejected *)
  let img = Bytes.of_string (P.Journal.to_string j) in
  Bytes.set img
    (Bytes.length img - 30)
    (Char.chr (Char.code (Bytes.get img (Bytes.length img - 30)) lxor 0x10));
  expect_corrupt (fun () ->
      ignore (P.Journal.of_string (Bytes.to_string img)))

(* Clean fuzz cases (guest events only): record then replay must be
   bit-identical, including at an instruction-limit cutoff. *)
let test_fuzz_record_replay () =
  let root = Srng.create 11 in
  for index = 0 to 29 do
    let rng = Srng.split root in
    let case = Gen.generate rng ~seed:11 ~index in
    match Oracle.check_record_replay (Oracle.render case) with
    | Oracle.Pass -> ()
    | Oracle.Hang -> ()
    | Oracle.Divergence d -> Alcotest.failf "case %d: %s" index d
  done

(* The chaos campaign slice: translator deaths, forced faults, spoofed
   interrupts and cache storms are journaled as opportunity indices and
   replayed with no RNG at all — and the replay must match the recording
   bit for bit.  Two independent seed streams, so the guarantee is not
   the property of one schedule. *)
let test_chaos_record_replay seed () =
  let root = Srng.create seed in
  for index = 0 to 99 do
    let rng = Srng.split root in
    let case = Gen.generate rng ~seed ~index in
    let chaos_seed = Srng.int32 rng in
    match Oracle.check_record_replay (Oracle.render ~chaos:chaos_seed case) with
    | Oracle.Pass -> ()
    | Oracle.Hang -> ()
    | Oracle.Divergence d -> Alcotest.failf "chaos case %d: %s" index d
  done

(* Mid-run resume: restore the last checkpoint and replay the journal
   *suffix* (delivery cursors from the snapshot metadata); the final
   architectural state must match the uninterrupted recording. *)
let test_fuzz_resume_from_checkpoint () =
  let root = Srng.create 23 in
  let resumed = ref 0 in
  let diag = ref [] in
  for index = 0 to 19 do
    let rng = Srng.split root in
    let case = Gen.generate rng ~seed:23 ~index in
    let r = Oracle.render case in
    (* generated cases are small — checkpoint densely so most runs cut
       at least once mid-flight *)
    let rec_ = Oracle.record ~checkpoint_every:50 ~label:"resume" r in
    diag :=
      Fmt.str "%d:%s,ck=%b" index
        (match rec_.Oracle.outcome.Oracle.stop with
        | Oracle.Halted -> "halt"
        | Oracle.Limit -> "limit"
        | Oracle.Crash m -> "crash:" ^ m)
        (rec_.Oracle.checkpoint <> None)
      :: !diag;
    match (rec_.Oracle.checkpoint, rec_.Oracle.outcome.Oracle.stop) with
    | Some img, Oracle.Halted ->
        incr resumed;
        let c, meta = P.Snapshot.restore img in
        ignore
          (P.Journal.install_guest ~irq_cursor:meta.P.Snapshot.irq_cursor
             ~sync_cursor:meta.P.Snapshot.sync_cursor c
             rec_.Oracle.journal.P.Journal.guest);
        (match Cms.run ~max_insns:r.Oracle.max_insns c with
        | Cms.Engine.Halted -> ()
        | Cms.Engine.Insn_limit ->
            Alcotest.failf "case %d: resumed run hit the limit" index);
        let arch = P.Digests.arch ~mask:Oracle.stack_mask c in
        if arch <> rec_.Oracle.outcome.Oracle.arch then
          Alcotest.failf "case %d resume diverges: %s" index
            (P.Digests.arch_diff rec_.Oracle.outcome.Oracle.arch arch)
    | _ -> ()
  done;
  if !resumed < 5 then
    Alcotest.failf "only %d/20 cases exercised a resume (%s)" !resumed
      (String.concat " " !diag)

let replay_tests =
  [
    Alcotest.test_case "suite digests deterministic" `Slow
      test_suite_record_replay;
    Alcotest.test_case "journal roundtrip + corruption" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "record=replay, clean cases" `Quick
      test_fuzz_record_replay;
    Alcotest.test_case "record=replay, 100-case chaos slice" `Slow
      (test_chaos_record_replay 5);
    Alcotest.test_case "record=replay, 100-case chaos slice, seed 7" `Slow
      (test_chaos_record_replay 7);
    Alcotest.test_case "resume from checkpoint + journal suffix" `Quick
      test_fuzz_resume_from_checkpoint;
  ]

(* ------------------------------------------------------------------ *)
(* Forensics                                                           *)
(* ------------------------------------------------------------------ *)

let test_forensics_dump () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "cms-forensics-%d" (Unix.getpid ()))
  in
  let c = Suite.prepare (compress ()) in
  ignore (Cms.run ~max_insns:50_000 c);
  let snapshot = P.Snapshot.capture c in
  let journal =
    {
      P.Journal.label = "drill";
      cfg = Cms.Config.default;
      guest = [ P.Journal.Irq { at = 5; line = 0 } ];
      host = [];
      arch_hex = None;
      strict_hex = None;
    }
  in
  let d =
    P.Forensics.dump ~dir ~name:"drill-1" ~reason:"unit test" ~snapshot
      ~journal ~case_text:"mov eax, 1" ~engine:c ()
  in
  let report = In_channel.with_open_bin d.P.Forensics.report In_channel.input_all in
  Alcotest.(check bool) "report mentions reason" true
    (contains report "unit test");
  Alcotest.(check bool) "report lists artifacts" true
    (contains report "artifact:");
  List.iter
    (fun (_, path) ->
      Alcotest.(check bool) (path ^ " exists") true (Sys.file_exists path))
    d.P.Forensics.artifacts;
  (* the dumped snapshot restores *)
  let snap_path =
    List.assoc "snapshot" d.P.Forensics.artifacts
  in
  let c', _ = P.Snapshot.restore (In_channel.with_open_bin snap_path In_channel.input_all) in
  check Alcotest.int "dumped snapshot restores at the same clock"
    (Cms.retired c) (Cms.retired c')

let forensics_tests =
  [ Alcotest.test_case "divergence bundle" `Quick test_forensics_dump ]

(* ------------------------------------------------------------------ *)
(* Format versions and the Stats codec                                 *)
(* ------------------------------------------------------------------ *)

(* Re-label a current image as [version], sections untouched: an image
   of an older layout must be refused by its version number, with a
   diagnostic, before any section is parsed field by field. *)
let relabel ~kind ~current ~version data =
  P.Codec.write_container ~kind ~version
    (P.Codec.read_container ~kind ~version:current data)

let test_snapshot_old_version () =
  let c = Suite.prepare (compress ()) in
  ignore (Cms.run ~max_insns:10_000 c);
  let img = P.Snapshot.capture c in
  let v = P.Snapshot.version in
  ignore (P.Snapshot.restore img);
  expect_corrupt ~substr:(Fmt.str "SNAP format version %d" (v - 1)) (fun () ->
      ignore
        (P.Snapshot.restore
           (relabel ~kind:P.Snapshot.kind ~current:v ~version:(v - 1) img)))

let small_journal =
  {
    P.Journal.label = "v";
    cfg = Cms.Config.default;
    guest = [];
    host = [ P.Journal.Kill { nth = 1 } ];
    arch_hex = None;
    strict_hex = None;
  }

let test_journal_old_version () =
  let img = P.Journal.to_string small_journal in
  let v = P.Journal.version in
  expect_corrupt ~substr:(Fmt.str "JRNL format version %d" (v - 1)) (fun () ->
      ignore
        (P.Journal.of_string
           (relabel ~kind:P.Journal.kind ~current:v ~version:(v - 1) img)))

(* Host-event tag 6 was the background-consume boundary; the current
   format has no such event, so a section carrying one is corrupt. *)
let test_journal_retired_host_tag () =
  let v = P.Journal.version in
  let hevt = P.Codec.writer () in
  P.Codec.w_list hevt
    (fun b (entry, at) ->
      P.Codec.w_int b 6;
      P.Codec.w_int b entry;
      P.Codec.w_int b at)
    [ (0x1000, 42) ];
  let sections =
    List.map
      (fun (tag, payload) ->
        if tag = "HEVT" then (tag, P.Codec.contents hevt) else (tag, payload))
      (P.Codec.read_container ~kind:P.Journal.kind ~version:v
         (P.Journal.to_string small_journal))
  in
  expect_corrupt ~substr:"unknown host-event tag 6" (fun () ->
      ignore
        (P.Journal.of_string
           (P.Codec.write_container ~kind:P.Journal.kind ~version:v sections)))

(* Every encoded counter survives a round trip; the three dormant
   [bg_*] fields are not encoded and read back as 0. *)
let test_stats_codec_roundtrip () =
  let c = Suite.prepare (compress ()) in
  ignore (Cms.run ~max_insns:100_000 c);
  let s = Cms.stats c in
  s.Cms.Stats.bg_installed <- 3;
  s.Cms.Stats.bg_overlap_insns <- 5;
  s.Cms.Stats.bg_waits <- 7;
  let b = P.Codec.writer () in
  P.Stable.w_stats b s;
  let r = P.Codec.reader (P.Codec.contents b) in
  let s' = Cms.Stats.create () in
  P.Stable.r_stats_into r s';
  P.Codec.r_end r;
  check Alcotest.int "bg_installed not encoded" 0 s'.Cms.Stats.bg_installed;
  check Alcotest.int "bg_overlap_insns not encoded" 0
    s'.Cms.Stats.bg_overlap_insns;
  check Alcotest.int "bg_waits not encoded" 0 s'.Cms.Stats.bg_waits;
  check Alcotest.bool "translations moved" true (s.Cms.Stats.translations > 0);
  s.Cms.Stats.bg_installed <- 0;
  s.Cms.Stats.bg_overlap_insns <- 0;
  s.Cms.Stats.bg_waits <- 0;
  check Alcotest.bool "encoded counters round-trip" true (s = s')

let format_tests =
  [
    Alcotest.test_case "snapshot refuses the previous version" `Quick
      test_snapshot_old_version;
    Alcotest.test_case "journal refuses the previous version" `Quick
      test_journal_old_version;
    Alcotest.test_case "journal refuses host-event tag 6" `Quick
      test_journal_retired_host_tag;
    Alcotest.test_case "stats codec round-trip" `Quick
      test_stats_codec_roundtrip;
  ]

let suites =
  [
    ("persist codec", codec_tests);
    ("persist snapshot", snapshot_tests);
    ("persist soak", soak_tests);
    ("persist replay", replay_tests);
    ("persist forensics", forensics_tests);
    ("persist format", format_tests);
  ]
