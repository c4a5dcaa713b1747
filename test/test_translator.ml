(* The translator's output, pinned.  Every compile the engine makes in a
   default run of each corpus workload and each checked-in fuzz case is
   captured at the fresh-translation seam as its inputs (region, policy,
   source bytes), then compiled again under the default configuration
   and under the Figure 2 (no reordering) and Figure 3 (no alias
   hardware) configurations.  One MD5 covers the outcome of every one
   of those compiles: the code block through the translation store's
   wire encoding, or [Too_big], or the verifier's rejection.  A change
   to lowering, optimization, scheduling or register allocation that
   moves one byte of one molecule moves the digest. *)

module Suite = Workloads.Suite
module Tstore = Cms_persist.Tstore
module Codec = Cms_persist.Codec
module Trial = Cms_persist.Trial
module Oracle = Cms_fuzz.Oracle

type input = { region : Cms.Region.t; policy : Cms.Policy.t; bytes : Bytes.t }

(* Route every fresh compile of [c] into [acc], newest first. *)
let hook acc (c : Cms.t) =
  c.Cms.Engine.on_fresh_translation <-
    Some
      (fun ~entry:_ ~region ~policy ~bytes_ ~compiled:_ ->
        acc := { region; policy; bytes = Bytes.copy bytes_ } :: !acc)

let of_workload (w : Suite.t) =
  let c = Suite.prepare w in
  let acc = ref [] in
  hook acc c;
  ignore (Suite.run_prepared w c : Cms.t);
  Cms.release c;
  List.rev !acc

let of_case path =
  let r, _seed = Cms_fuzz.Corpus.load path in
  let acc = ref [] in
  let setup c =
    ignore (Cms_persist.Journal.install_guest c r.Oracle.events
      : Cms_persist.Journal.injector);
    hook acc c
  in
  let _, c = Trial.execute (Oracle.subject r) ~cfg:Cms.Config.default ~setup in
  Cms.release c;
  List.rev !acc

(* The coldstart programs: the OS boots, Quake Demo2 and the BLT driver,
   whose code is spread over many regions, some of hundreds of IR
   items.  The allocation gates compile these. *)
let coldstart_programs () =
  Workloads.Progs_boot.all @ Workloads.Progs_quake.all
  @ [ Workloads.Progs_quake.blt_driver () ]

let coldstart_inputs = lazy (List.concat_map of_workload (coldstart_programs ()))

(* The checked-in fuzz cases, read relative to the working directory
   (dune runs the suite in a copy of test/ that holds corpus/*.case).
   A missing corpus fails here, by name, rather than as a short count
   of captured compiles. *)
let corpus_files () =
  match Cms_fuzz.Corpus.files "corpus" with
  | [] ->
      Alcotest.failf "fuzz corpus %s is empty or missing"
        (Filename.concat (Sys.getcwd ()) "corpus")
  | files -> files

let all_inputs =
  lazy
    (List.concat_map of_workload (Workloads.Catalog.all ())
    @ List.concat_map of_case (corpus_files ()))

let configs =
  let d = Cms.Config.default in
  [
    d;
    { d with Cms.Config.enable_reorder = false };
    { d with Cms.Config.enable_alias_hw = false };
  ]

(* One compile's outcome, appended to [w]. *)
let encode_outcome w ~cfg (i : input) =
  match Cms.Codegen.compile_presnapped ~cfg ~policy:i.policy ~bytes:i.bytes i.region with
  | compiled ->
      Codec.w_int w 0;
      Tstore.w_code w compiled.Cms.Codegen.code;
      Codec.w_bool w compiled.Cms.Codegen.unprotected
  | exception Cms.Codegen.Too_big -> Codec.w_int w 1
  | exception Cms.Codegen.Verify_failed msg ->
      Codec.w_int w 2;
      Codec.w_string w msg

let test_output () =
  let inputs = Lazy.force all_inputs in
  Alcotest.(check int) "captured compiles" 468 (List.length inputs);
  let w = Codec.writer ~capacity:Codec.image_capacity () in
  List.iter (fun cfg -> List.iter (encode_outcome w ~cfg) inputs) configs;
  Alcotest.(check string) "translator output" "d2a8803a092e3c0512383ee80008b98e"
    (Digest.to_hex (Codec.digest w))

let suites =
  [
    ( "translator.output",
      [
        Alcotest.test_case "every compile under three configurations"
          `Quick test_output;
      ] );
  ]
