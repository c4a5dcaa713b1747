(* Tests for the checkpoint/restore subsystem: the stable codec and its
   corruption diagnostics, snapshot capture/restore fidelity, the
   kill-and-resume soak drill across the whole workload suite, the
   levels of the outcome verdict,
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

let compress () =
  Option.get (Workloads.Catalog.find "026.compress (Linux)")

let test_inconsistent_capture () =
  let c = Suite.prepare (compress ()) in
  (* dirty the working copy without committing *)
  Vliw.Regfile.set (Cms.Cpu.regs (Cms.cpu c)) (Vliw.Abi.gpr X86.Regs.eax) 42;
  match P.Snapshot.capture c with
  | _ -> Alcotest.fail "capture of inconsistent state must raise"
  | exception P.Snapshot.Inconsistent _ -> ()

(* Capture mid-run, restore, capture again: every section except STAT
   (the restore bumps [resumes]) must be byte-identical — the restore
   loses nothing it promises to keep. *)
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
      if tag1 <> "STAT" then
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
  let j = P.Journal.unrecorded ~label:"x" ~cfg:Cms.Config.default [] in
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

(* The translation cache's and the adaptation table's counters live in
   Stats alone, so a resumed machine carries them on from the image: a
   run resumed from a checkpoint taken after chain unlinks, an eviction
   and a flush ends with each of them at least where the image left
   it. *)
let test_resume_continues_counters () =
  let w = compress () in
  let cfg = { Cms.Config.default with Cms.Config.adapt_capacity = 4 } in
  let c = Suite.prepare ~cfg w in
  ignore (Cms.run ~max_insns:150_000 c : Cms.Engine.stop);
  let tc = c.Cms.Engine.tcache in
  check Alcotest.bool "a chained exit to cut" true
    (Cms.Tcache.unlink_nth tc ~k:0);
  check Alcotest.bool "a generation to evict" true
    (Cms.Tcache.evict_coldest tc > 0);
  Cms.Tcache.flush tc;
  for i = 0 to 5 do
    Cms.Adapt.set_no_reorder c.Cms.Engine.adapt (0x7f0000 + i)
  done;
  (match Cms.run ~max_insns:250_000 c with
  | Cms.Engine.Insn_limit -> ()
  | Cms.Engine.Halted -> Alcotest.fail "workload finished too early");
  let c', _ = P.Snapshot.restore (P.Snapshot.capture c) in
  let image = Cms.Stats.copy (Cms.stats c') in
  ignore (Suite.run_prepared w c' : Cms.t);
  let carried (k : Cms.Stats.counter) =
    String.starts_with ~prefix:"chain_unlinks_" k.Cms.Stats.name
    || String.starts_with ~prefix:"tcache_" k.Cms.Stats.name
    || k.Cms.Stats.name = "adapt_evictions"
  in
  List.iter
    (fun (k : Cms.Stats.counter) ->
      if carried k then
        check Alcotest.bool
          (Fmt.str "%s: %d in the image, %d at the end" k.Cms.Stats.name
             (k.Cms.Stats.get image) (k.Cms.Stats.get (Cms.stats c')))
          true
          (k.Cms.Stats.get (Cms.stats c') >= k.Cms.Stats.get image))
    Cms.Stats.counters;
  List.iter
    (fun name ->
      let k = List.find (fun k -> k.Cms.Stats.name = name) Cms.Stats.counters in
      check Alcotest.bool (name ^ " in the image") true (k.Cms.Stats.get image > 0))
    [ "chain_unlinks_evict"; "chain_unlinks_chaos"; "tcache_flushes";
      "tcache_evictions"; "tcache_evicted"; "adapt_evictions" ]

let snapshot_tests =
  [
    Alcotest.test_case "inconsistent capture rejected" `Quick
      test_inconsistent_capture;
    Alcotest.test_case "capture/restore/capture stability" `Quick
      test_snapshot_stability;
    Alcotest.test_case "corrupt image rejected" `Quick test_snapshot_corruption;
    Alcotest.test_case "persist counters" `Quick test_persist_counters;
    Alcotest.test_case "resume continues the tcache counters" `Quick
      test_resume_continues_counters;
  ]

(* ------------------------------------------------------------------ *)
(* Kill-and-resume soak across the whole suite                         *)
(* ------------------------------------------------------------------ *)

(* Timer-driven workloads are molecule-clock-dependent: a resumed run
   (cold tcache) consumes a different number of molecules to retire the
   same instructions, so jiffy counts, handler-frame stack bytes and
   device-poll counts legitimately differ; their clock-free state (GPRs,
   EIP, EFLAGS, UART, frame buffer) must match regardless.  Every
   workload retires more than one segment, so every one resumes (the
   drill fails one that does not). *)
let test_soak_suite () =
  List.iter
    (fun w ->
      match P.Trial.soak w ~cfg:Cms.Config.default with
      | _, Error e -> Alcotest.failf "%s: %s" w.Suite.name e
      | _, Ok () -> ())
    (Workloads.Catalog.all ())

let soak_tests =
  [ Alcotest.test_case "kill-and-resume, all workloads" `Slow test_soak_suite ]

(* ------------------------------------------------------------------ *)
(* Record / replay                                                     *)
(* ------------------------------------------------------------------ *)

(* cmsrun's --record and --replay path, for every workload: record the
   run (refused if it fails its self-check), save the journal, load it
   back and replay it against its recorded digests and the clean
   outcome it stands for. *)
let temp_journal name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Fmt.str "cms-%s-%d.journal" name (Unix.getpid ()))

let record_to_disk w path =
  match P.Trial.record_suite ~cfg:Cms.Config.default w with
  | Ok r -> P.Journal.save path r.P.Trial.journal
  | Error e -> Alcotest.failf "record: %s" e

let replay_from_disk w path =
  snd (P.Trial.check_journal (P.Trial.of_suite w) (P.Journal.load path))

let test_suite_record_replay () =
  let path = temp_journal "suite" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      List.iter
        (fun w ->
          record_to_disk w path;
          match replay_from_disk w path with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" w.Suite.name e)
        (Workloads.Catalog.all ()))

(* A saved 026.compress journal, tampered three ways and saved again:
   each replay must fail and name the field that moved.  Chaining is
   architecturally invisible, so a flipped [enable_chaining] moves the
   strict digest, which covers the counters.  The untampered bytes are
   pinned: they are what a journal recorded by an earlier build holds,
   so it keeps replaying. *)
let test_suite_journal_tamper () =
  let w = compress () in
  let path = temp_journal "tamper" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      record_to_disk w path;
      check Alcotest.string "default-config compress journal bytes"
        "41015b4b2c2030b93be8b904e357debb"
        (Digest.to_hex (Digest.file path));
      let j = P.Journal.load path in
      let flip = function
        | Some h -> Some (String.map (function '0' -> '1' | _ -> '0') h)
        | None -> Alcotest.fail "journal carries no digest"
      in
      List.iter
        (fun (what, field, j') ->
          P.Journal.save path j';
          match replay_from_disk w path with
          | Ok () -> Alcotest.failf "%s: tampered journal replayed" what
          | Error e ->
              if not (contains e field) then
                Alcotest.failf "%s: %S does not name %s" what e field)
        [
          ("altered arch_hex", "arch_hex",
           { j with P.Journal.arch_hex = flip j.P.Journal.arch_hex });
          ("altered strict_hex", "strict_hex",
           { j with P.Journal.strict_hex = flip j.P.Journal.strict_hex });
          ("chaining flipped off", "strict_hex",
           {
             j with
             P.Journal.cfg =
               { j.P.Journal.cfg with Cms.Config.enable_chaining = false };
           });
        ])

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
    let r = Oracle.render case in
    match P.Trial.check_replay (Oracle.subject r) (Oracle.record r) with
    | Ok () -> ()
    | Error d -> Alcotest.failf "case %d: %s" index d
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
    let r = Oracle.render ~chaos:chaos_seed case in
    match P.Trial.check_replay (Oracle.subject r) (Oracle.record r) with
    | Ok () -> ()
    | Error d -> Alcotest.failf "chaos case %d: %s" index d
  done

(* Mid-run resume: {!P.Snapshot.resume} the last checkpoint (restore,
   then the journal *suffix* from the snapshot's delivery cursors) and
   run it through Trial; it must share the uninterrupted recording's
   architectural state, stop, speculation flag and diagnostic count. *)
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
        (match rec_.P.Trial.outcome.P.Trial.stop with
        | P.Trial.Halted -> "halt"
        | P.Trial.Limit -> "limit"
        | P.Trial.Crash m -> "crash:" ^ m)
        (rec_.P.Trial.checkpoint <> None)
      :: !diag;
    match (rec_.P.Trial.checkpoint, rec_.P.Trial.outcome.P.Trial.stop) with
    | Some img, P.Trial.Halted -> (
        incr resumed;
        let guest = rec_.P.Trial.journal.P.Journal.guest in
        let resumed_leg =
          {
            (Oracle.subject r) with
            P.Trial.boot =
              (fun ~cfg:_ ~on_diag -> fst (P.Snapshot.resume ~on_diag img guest));
          }
        in
        let o, _ =
          P.Trial.execute resumed_leg ~cfg:Cms.Config.default ~setup:ignore
        in
        match
          P.Trial.verdict ~what:"resume" P.Trial.Arch
            (P.Trial.Outcome rec_.P.Trial.outcome) o
        with
        | Ok () -> ()
        | Error e -> Alcotest.failf "case %d: %s" index e)
    | _ -> ()
  done;
  if !resumed < 5 then
    Alcotest.failf "only %d/20 cases exercised a resume (%s)" !resumed
      (String.concat " " !diag)

(* The differential must notice a journal that no longer matches its
   recording.  Dropping one injected pre-execution fault makes the
   replay roll back once less: the same architectural state, so only
   the strict digest moves.  Moving a guest interrupt earlier lands it
   on different code: the architectural state moves. *)
let test_trial_tamper () =
  let module Trial = P.Trial in
  let module J = P.Journal in
  let root = Srng.create 5 in
  let rec find index =
    if index > 50 then Alcotest.fail "no chaos case with a fault and an IRQ";
    let rng = Srng.split root in
    let case = Gen.generate rng ~seed:5 ~index in
    let r = Oracle.render ~chaos:(Srng.int32 rng) case in
    let rec_ = Oracle.record r in
    let j = rec_.Trial.journal in
    if
      List.exists (function J.Pre_fault _ -> true | _ -> false) j.J.host
      && List.exists (function J.Irq _ -> true | _ -> false) j.J.guest
      && rec_.Trial.outcome.Trial.stop = Trial.Halted
    then (Oracle.subject r, rec_)
    else find (index + 1)
  in
  let s, rec_ = find 0 in
  let j = rec_.Trial.journal in
  let replay j' =
    match Trial.check_replay s { rec_ with Trial.journal = j' } with
    | Ok () -> "ok"
    | Error e -> e
  in
  check Alcotest.string "untampered" "ok" (replay j);
  let rec drop_fault = function
    | J.Pre_fault _ :: tl -> tl
    | ev :: tl -> ev :: drop_fault tl
    | [] -> []
  in
  check Alcotest.string "one host event dropped" "record/replay strict digest"
    (replay { j with J.host = drop_fault j.J.host });
  let rec move_irq = function
    | J.Irq { at; line } :: tl -> J.Irq { at = at / 2; line } :: tl
    | ev :: tl -> ev :: move_irq tl
    | [] -> []
  in
  let e = replay { j with J.guest = move_irq j.J.guest } in
  if not (contains e "record/replay arch:") then
    Alcotest.failf "one guest event moved: %s" e

(* What each verdict level compares, on outcomes edited from one real
   run: memory and bus counters are outside the clock-free state, stats
   only in the strict digest, and a register in all three. *)
let test_verdict_levels () =
  let module T = P.Trial in
  let module D = P.Digests in
  let o, c =
    T.execute (T.of_suite (compress ())) ~cfg:Cms.Config.default
      ~setup:ignore
  in
  (* an outcome whose state is [arch], its strict digest taken over
     [arch] and [c]'s current counters, as [T.execute] takes it *)
  let with_arch arch = { o with T.arch; strict = D.strict arch c } in
  let bus =
    with_arch
      {
        o.T.arch with
        D.mem = Digest.string "elsewhere";
        mmio_reads = o.T.arch.D.mmio_reads + 1;
        port_ops = o.T.arch.D.port_ops + 1;
      }
  in
  let s = Cms.stats c in
  s.Cms.Stats.translations <- s.Cms.Stats.translations + 1;
  let stats = with_arch o.T.arch in
  let eax =
    with_arch
      {
        o.T.arch with
        D.gprs =
          List.mapi
            (fun i v -> if i = X86.Regs.eax then v + 1 else v)
            o.T.arch.D.gprs;
      }
  in
  let verdict share got =
    match T.verdict ~what:"v" share (T.Outcome o) got with
    | Ok () -> "ok"
    | Error e -> e
  in
  let fails_naming share got field =
    let e = verdict share got in
    if not (contains e field) then
      Alcotest.failf "expected a failure naming %S, got %S" field e
  in
  check Alcotest.string "bus: clock-free" "ok" (verdict T.Clock_free bus);
  fails_naming T.Arch bus "mem";
  fails_naming T.Strict bus "mem";
  check Alcotest.string "stats: clock-free" "ok" (verdict T.Clock_free stats);
  check Alcotest.string "stats: arch" "ok" (verdict T.Arch stats);
  check Alcotest.string "stats: strict" "v strict digest"
    (verdict T.Strict stats);
  List.iter
    (fun share -> fails_naming share eax "eax=")
    [ T.Clock_free; T.Arch; T.Strict ]

let replay_tests =
  [
    Alcotest.test_case "suite digests deterministic" `Slow
      test_suite_record_replay;
    Alcotest.test_case "tampered suite journal names the field" `Quick
      test_suite_journal_tamper;
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
    Alcotest.test_case "tampered journal fails the differential" `Quick
      test_trial_tamper;
    Alcotest.test_case "verdict levels" `Quick test_verdict_levels;
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
    P.Journal.unrecorded ~label:"drill" ~cfg:Cms.Config.default
      [ P.Journal.Irq { at = 5; line = 0 } ]
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
  P.Journal.unrecorded ~label:"v" ~cfg:Cms.Config.default
    ~host:[ P.Journal.Kill { nth = 1 } ]
    []

let test_journal_old_version () =
  let img = P.Journal.to_string small_journal in
  let v = P.Journal.version in
  expect_corrupt ~substr:(Fmt.str "JRNL format version %d" (v - 1)) (fun () ->
      ignore
        (P.Journal.of_string
           (relabel ~kind:P.Journal.kind ~current:v ~version:(v - 1) img)))

let test_tstore_old_version () =
  let store = P.Tstore.create () in
  ignore (P.Tstore.publish store ~key:"1000:k" ~blob:"blob" : bool);
  let img = P.Tstore.to_string store in
  let v = P.Tstore.version in
  check Alcotest.int "current version reads back" 1
    (P.Tstore.size (P.Tstore.of_string img));
  expect_corrupt ~substr:(Fmt.str "TSTO format version %d" (v - 1)) (fun () ->
      ignore
        (P.Tstore.of_string
           (relabel ~kind:P.Tstore.kind ~current:v ~version:(v - 1) img)))

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

(* The counter table is complete: every record field is reached by
   exactly one entry's accessors, except the three dormant
   background-translator fields [bg_installed], [bg_overlap_insns] and
   [bg_waits], which the table leaves out.  A record field added
   without a table entry fails here. *)
let test_stats_table_complete () =
  let module S = Cms.Stats in
  let fields s = Array.init (Obj.size (Obj.repr s)) (Obj.field (Obj.repr s)) in
  let s = S.create () in
  check Alcotest.int "record fields = table entries + 3 bg_* fields"
    (List.length S.counters + 3)
    (Array.length (fields s));
  let names = List.map (fun c -> c.S.name) S.counters in
  check Alcotest.int "counter names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iteri (fun i c -> c.S.set s (1000 + i)) S.counters;
  List.iteri
    (fun i c ->
      check Alcotest.int (c.S.name ^ " get/set") (1000 + i) (c.S.get s))
    S.counters;
  check Alcotest.int "fields the table never sets (the bg_* three)" 3
    (Array.fold_left
       (fun n f -> if (Obj.obj f : int) = 0 then n + 1 else n)
       0 (fields s));
  let printed =
    List.concat_map
      (fun g ->
        match String.split_on_char ' ' (Fmt.str "%a" (S.pp_group g) s) with
        | head :: items ->
            check Alcotest.string "group prefix" (g ^ ":") head;
            items
        | [] -> [])
      S.groups
  in
  List.iter
    (fun c ->
      let item = Fmt.str "%s=%d" c.S.name (c.S.get s) in
      check Alcotest.int (c.S.name ^ " printed once") 1
        (List.length (List.filter (String.equal item) printed)))
    S.counters;
  check Alcotest.int "nothing printed twice" (List.length S.counters)
    (List.length printed)

(* Every counter survives a round trip with a value of its own; the
   three dormant [bg_*] fields are not encoded and read back as 0. *)
let test_stats_codec_roundtrip () =
  let module S = Cms.Stats in
  let s = S.create () in
  List.iteri (fun i c -> c.S.set s ((i * 7919) + 1)) S.counters;
  s.S.bg_installed <- 3;
  s.S.bg_overlap_insns <- 5;
  s.S.bg_waits <- 7;
  let b = P.Codec.writer () in
  P.Codec.w_fields P.Stable.stats b s;
  let r = P.Codec.reader (P.Codec.contents b) in
  let s' = P.Codec.r_fields P.Stable.stats r (S.create ()) in
  P.Codec.r_end r;
  List.iter
    (fun c -> check Alcotest.int c.S.name (c.S.get s) (c.S.get s'))
    S.counters;
  check Alcotest.int "bg_installed not encoded" 0 s'.S.bg_installed;
  check Alcotest.int "bg_overlap_insns not encoded" 0 s'.S.bg_overlap_insns;
  check Alcotest.int "bg_waits not encoded" 0 s'.S.bg_waits

(* The counters strict digests zero: host-side bookkeeping only (host
   caches, persistence, AOT, closures and chain unlinks, the shared
   store).  [chain_patches] and [lookups] are cost-model counters and
   stay in the digest. *)
let host_side =
  [ "tlb_hits"; "tlb_misses"; "dcache_hits"; "dcache_misses";
    "dcache_invalidations"; "ram_fast_reads"; "ram_fast_writes";
    "snapshots_written"; "snapshot_bytes"; "journal_events"; "resumes";
    "aot_loaded"; "aot_rejected"; "aot_hits"; "aot_x86_retired";
    "aot_invalidated"; "closures_compiled"; "chained_exits_taken";
    "chain_unlinks_evict"; "chain_unlinks_demote"; "chain_unlinks_smc";
    "chain_unlinks_aot"; "chain_unlinks_chaos"; "store_hits";
    "store_misses"; "store_rejects"; "store_quarantines";
    "store_published" ]

let test_strict_normalization () =
  let module S = Cms.Stats in
  let s = S.create () in
  List.iteri (fun i c -> c.S.set s (i + 1)) S.counters;
  let n = P.Digests.normalized_stats s in
  List.iteri
    (fun i c ->
      let zeroed = List.mem c.S.name host_side in
      check Alcotest.int (c.S.name ^ " normalized")
        (if zeroed then 0 else i + 1)
        (c.S.get n);
      check Alcotest.int (c.S.name ^ " untouched in the original") (i + 1)
        (c.S.get s))
    S.counters;
  check Alcotest.int "every host-side name is a counter"
    (List.length host_side)
    (List.length (List.filter (fun c -> c.S.host) S.counters))

(* Pinned digests: they move if the STAT encoding order or the set of
   zeroed counters drifts.  Corpus runs leave many counters at 0, so a
   synthetic record whose every counter holds a value derived from its
   name pins the order of all of them. *)
let test_strict_digest_pins () =
  let module S = Cms.Stats in
  let s = S.create () in
  List.iter
    (fun c ->
      c.S.set s
        (Int64.to_int (String.get_int64_le (Digest.string c.S.name) 0)
        land 0xffffff))
    S.counters;
  let stat s =
    let b = P.Codec.writer () in
    P.Codec.w_fields P.Stable.stats b s;
    Digest.to_hex (Digest.string (P.Codec.contents b))
  in
  check Alcotest.string "STAT bytes" "dc97ad38cef0f2522f46d7bac4f1b9b7"
    (stat s);
  check Alcotest.string "STAT bytes, normalized"
    "c2749582c936b570f3bb441bcff35837"
    (stat (P.Digests.normalized_stats s));
  let strict c =
    P.Digests.strict_hex (P.Digests.strict (P.Digests.arch c) c)
  in
  let c = Suite.prepare (compress ()) in
  (match Cms.run ~max_insns:200_000 c with
  | Cms.Engine.Insn_limit -> ()
  | Cms.Engine.Halted -> Alcotest.fail "workload finished too early");
  check Alcotest.string "026.compress (Linux) at 200k"
    "5bff6e413bfd977b6d6258cb4c518819" (strict c);
  let echo =
    Option.get (Workloads.Catalog.find "Packet Echo Kernel")
  in
  check Alcotest.string "Packet Echo Kernel"
    "6ae69b4bffe539aa036ddec18c962caf"
    (strict (Suite.run echo))

let format_tests =
  [
    Alcotest.test_case "snapshot refuses the previous version" `Quick
      test_snapshot_old_version;
    Alcotest.test_case "journal refuses the previous version" `Quick
      test_journal_old_version;
    Alcotest.test_case "store refuses the previous version" `Quick
      test_tstore_old_version;
    Alcotest.test_case "journal refuses host-event tag 6" `Quick
      test_journal_retired_host_tag;
    Alcotest.test_case "stats codec round-trip" `Quick
      test_stats_codec_roundtrip;
    Alcotest.test_case "stats table complete" `Quick test_stats_table_complete;
    Alcotest.test_case "strict normalization zeroes host-side counters"
      `Quick test_strict_normalization;
    Alcotest.test_case "strict digest pins" `Quick test_strict_digest_pins;
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
