(* Translation verifier tests: a hand-built block that must verify
   clean, seeded mutations that must each trip their rule, IR lint unit
   tests, and the translator's acceptance rule ([Codegen.check]). *)

module A = Vliw.Atom
module C = Vliw.Code
module Asm = X86.Asm
module I = Cms.Ir
module D = Cms.Diag
module M = Cms_analysis.Mutate
module Tverify = Cms.Tverify
module Irlint = Cms.Irlint

let ci = Alcotest.int
let cb = Alcotest.bool
let check = Alcotest.check

let entry = 0x1000
let cfg = { Cms.Config.default with Cms.Config.sbuf_capacity = 4 }

let pp_diags diags =
  String.concat "; " (List.map D.to_string diags)

let has_rule rule diags = List.exists (fun d -> d.D.rule = rule) diags

(* A hand-built translation exercising every atom class the verifier
   tracks: an armed alias range, a protected speculative load, a
   checked store, guest-register updates committed before the loop
   back-edge and before the final exit. *)
let clean_code () =
  {
    C.molecules =
      [|
        [| A.MovI { rd = 12; imm = 0x2000 } |];
        [| A.ArmRange { slot = 7; base = 12; disp = 0; len = 16 } |];
        [|
          A.Load
            {
              rd = 13; base = 12; disp = 0; size = 4; spec = true;
              protect = Some 0; check = 0;
            };
        |];
        [| A.Nop |];
        [|
          A.Store
            {
              rs = A.R 13; base = 12; disp = 4; size = 4; spec = false;
              check = 1 lsl 7;
            };
        |];
        [| A.Alu { op = A.HAdd; rd = 0; a = 0; b = A.I 1 } |];
        [| A.MovI { rd = Vliw.Abi.eip; imm = 0x1003 } |];
        [| A.Commit 3 |];
        [| A.BrCmp { cmp = A.Cne; a = 0; b = A.I 10; target = 0 } |];
        [| A.MovI { rd = Vliw.Abi.eip; imm = 0x1010 } |];
        [| A.Commit 0 |];
        [| A.Exit 0 |];
      |];
    exits =
      [|
        {
          C.target = C.Const 0x1010; kind = C.Enext; x86_retired = 3;
          chain = C.Unchained;
        };
      |];
  }

let verify code = Tverify.verify ~cfg ~entry ~ninsns:3 code

let test_crafted_clean () =
  match verify (clean_code ()) with
  | [] -> ()
  | diags -> Alcotest.failf "clean block flagged: %s" (pp_diags diags)

(* Every seeded mutation must apply to the crafted block and trip its
   designated rule (extra collateral diagnostics are fine: corrupting
   one invariant often perturbs others). *)
let test_mutation m () =
  match M.apply ~cfg (clean_code ()) m with
  | None -> Alcotest.failf "mutation %s not applicable to crafted block" (M.name m)
  | Some bad ->
      let diags = verify bad in
      let want = M.expected_rule m in
      if not (has_rule want diags) then
        Alcotest.failf "mutation %s: expected rule %s, got [%s]" (M.name m)
          want (pp_diags diags)

(* The same mutations against a real self-checking translation of a
   guest loop, produced by the actual Lower/Opt/Sched pipeline. *)
let compile_loop () =
  let t = Cms.create ~cfg:Cms.Config.default () in
  Cms.boot t ~entry:0x10000;
  let prog =
    Asm.(
      assemble ~base:0x10000
        [ mov_ri edx 5; label "l"; add_ri eax 1; dec_r edx; jne "l"; hlt ])
  in
  Cms.load t prog;
  let policy =
    {
      (Cms.Policy.default Cms.Config.default) with
      Cms.Policy.self_check = true;
    }
  in
  match
    Cms.Region.select ~mem:(Cms.mem t) ~profile:(Cms.Profile.create ())
      ~policy 0x10000
  with
  | None -> Alcotest.fail "no region"
  | Some region ->
      let compiled =
        Cms.Codegen.compile ~cfg:Cms.Config.default ~policy ~mem:(Cms.mem t)
          region
      in
      (region, compiled.Cms.Codegen.code)

let test_real_translation_mutations () =
  let region, code = compile_loop () in
  let entry = region.Cms.Region.entry in
  let ninsns = Cms.Region.instruction_count region in
  let verify c = Tverify.verify ~cfg:Cms.Config.default ~entry ~ninsns c in
  (match verify code with
  | [] -> ()
  | diags -> Alcotest.failf "real translation flagged: %s" (pp_diags diags));
  let applied = ref 0 in
  List.iter
    (fun m ->
      match M.apply ~cfg:Cms.Config.default code m with
      | None -> ()
      | Some bad ->
          incr applied;
          let want = M.expected_rule m in
          if not (has_rule want (verify bad)) then
            Alcotest.failf "real code, mutation %s: %s not flagged (got [%s])"
              (M.name m) want (pp_diags (verify bad)))
    M.all;
  check cb "most mutations applicable to real code" true (!applied >= 6)

(* ------------------------------------------------------------------ *)
(* Latency                                                             *)
(* ------------------------------------------------------------------ *)

let block molecules =
  {
    C.molecules = Array.of_list (List.map Array.of_list molecules);
    exits =
      [|
        { C.target = C.Const 0; kind = C.Enext; x86_retired = 0;
          chain = C.Unchained };
      |];
  }

let latency_at code =
  List.map
    (fun d -> Option.value d.D.molecule ~default:(-1))
    (Tverify.latency ~entry code)

let load rd =
  A.Load
    { rd; base = 63; disp = 0x100; size = 4; spec = false; protect = None;
      check = 0 }

(* A load's result used in the very next molecule: latency 2 violated.
   With one molecule of padding it is fine. *)
let test_latency_straight () =
  let bad =
    block
      [ [ load 20 ]; [ A.MovR { rd = 21; rs = 20 } ]; [ A.Exit 0 ] ]
  in
  check (Alcotest.list ci) "flagged at the reading molecule" [ 1 ]
    (latency_at bad);
  check cb "reported by verify" true (has_rule "latency" (verify bad));
  let ok =
    block
      [ [ load 20 ]; [ A.Nop ]; [ A.MovR { rd = 21; rs = 20 } ]; [ A.Exit 0 ] ]
  in
  check (Alcotest.list ci) "padded block is clean" [] (latency_at ok);
  check cb "not reported by verify" false (has_rule "latency" (verify ok));
  (* a divide's latency of 8 counts down through unrelated molecules *)
  let div pad =
    block
      ([ [ A.DivX { signed = false; size = X86.Flags.S32; rd_q = 20; rd_r = 21;
                    hi = 22; lo = 23; divisor = A.I 3 } ] ]
      @ List.init pad (fun _ -> [ A.Nop ])
      @ [ [ A.MovR { rd = 24; rs = 21 } ]; [ A.Exit 0 ] ])
  in
  check (Alcotest.list ci) "divide read one molecule early" [ 7 ]
    (latency_at (div 6));
  check (Alcotest.list ci) "divide read on time" [] (latency_at (div 7));
  (* a redefinition in between replaces the pending result *)
  let redefined =
    block
      [
        [ A.DivX { signed = false; size = X86.Flags.S32; rd_q = 20; rd_r = 21;
                   hi = 22; lo = 23; divisor = A.I 3 } ];
        [ A.MovI { rd = 21; imm = 0 } ];
        [ A.MovR { rd = 24; rs = 21 } ];
        [ A.Exit 0 ];
      ]
  in
  check (Alcotest.list ci) "redefined before the read" [] (latency_at redefined);
  (* only molecules reachable from the entry count *)
  let dead =
    block [ [ A.Exit 0 ]; [ load 20 ]; [ A.MovR { rd = 21; rs = 20 } ] ]
  in
  check (Alcotest.list ci) "unreachable code is not flagged" [] (latency_at dead);
  (* the last control effect of a molecule wins: an exit after the load
     leaves no fallthrough *)
  let exits = block [ [ load 20; A.Exit 0 ]; [ A.MovR { rd = 21; rs = 20 } ] ] in
  check (Alcotest.list ci) "no fallthrough past an exit" [] (latency_at exits)

(* The load and the loop back-edge share a molecule, and the loop head
   reads the result: the layout path is clean, and only the back-edge
   arrives one molecule early. *)
let test_latency_backedge () =
  let loop head =
    block
      ([ [ A.MovI { rd = 12; imm = 0x2000 }; A.MovI { rd = 14; imm = 0 } ] ]
      @ head
      @ [
          [ load 14; A.BrCmp { cmp = A.Cne; a = 12; b = A.I 0; target = 1 } ];
          [ A.Exit 0 ];
        ])
  in
  let bad = loop [ [ A.MovR { rd = 13; rs = 14 } ] ] in
  check (Alcotest.list ci) "flagged at the loop head" [ 1 ] (latency_at bad);
  (* dropping the back-edge leaves only the layout path: clean *)
  let straight =
    {
      bad with
      C.molecules =
        Array.map
          (Array.map (function A.BrCmp _ -> A.Nop | a -> a))
          bad.C.molecules;
    }
  in
  check (Alcotest.list ci) "layout path alone is clean" []
    (latency_at straight);
  let ok = loop [ [ A.Nop ]; [ A.MovR { rd = 13; rs = 14 } ] ] in
  check (Alcotest.list ci) "padded loop head is clean" [] (latency_at ok)

(* The early-read mutant trips [latency] and nothing else, on the
   crafted block and on a real translation. *)
let test_early_read_only_latency () =
  let rules diags = List.sort_uniq compare (List.map (fun d -> d.D.rule) diags) in
  (match M.apply ~cfg (clean_code ()) M.Early_read with
  | None -> Alcotest.fail "early-read not applicable to the crafted block"
  | Some bad ->
      check (Alcotest.list Alcotest.string) "crafted: only latency"
        [ "latency" ] (rules (verify bad)));
  let region, code = compile_loop () in
  match M.apply ~cfg:Cms.Config.default code M.Early_read with
  | None -> ()
  | Some bad ->
      check (Alcotest.list Alcotest.string) "real: only latency" [ "latency" ]
        (rules
           (Tverify.verify ~cfg:Cms.Config.default
              ~entry:region.Cms.Region.entry
              ~ninsns:(Cms.Region.instruction_count region) bad))

(* ------------------------------------------------------------------ *)
(* IR lint                                                             *)
(* ------------------------------------------------------------------ *)

let lint ir = Irlint.lint ~stage:"test" ~entry ~ir (I.items ir)

let test_lint_clean () =
  let ir = I.create () in
  let v0 = I.fresh_vreg ir in
  let v1 = I.fresh_vreg ir in
  let e0 = I.add_exit ir ~target:(C.Const 0x1005) ~kind:C.Enext ~x86_retired:1 in
  I.emit ir ~x86_idx:0 (A.MovI { rd = v0; imm = 0x2000 });
  I.emit ir ~x86_idx:0
    (A.Load
       { rd = v1; base = v0; disp = 0; size = 4; spec = false; protect = None;
         check = 0 });
  I.emit ir ~x86_idx:0
    (A.Store { rs = A.R v1; base = v0; disp = 4; size = 4; spec = false; check = 0 });
  I.emit ir ~x86_idx:0 (A.MovI { rd = Vliw.Abi.eip; imm = 0x1005 });
  I.emit ir ~x86_idx:0 (A.Commit 1);
  I.emit ir ~x86_idx:0 (A.Exit e0);
  match lint ir with
  | [] -> ()
  | diags -> Alcotest.failf "clean IR flagged: %s" (pp_diags diags)

let test_lint_vreg_undef () =
  let ir = I.create () in
  let v0 = I.fresh_vreg ir in
  let v1 = I.fresh_vreg ir in
  I.emit ir ~x86_idx:0 (A.Alu { op = A.HAdd; rd = v0; a = v1; b = A.I 1 });
  check cb "flags use-before-def" true (has_rule "ir-vreg-undef" (lint ir))

let test_lint_backedge_barrier () =
  let ir = I.create () in
  let l = I.fresh_label ir in
  I.emit_label ir l;
  I.emit ir ~x86_idx:0 (A.MovI { rd = I.vreg_base; imm = 1 });
  (* back-edge with neither the barrier flag nor a preceding commit *)
  I.emit ir ~x86_idx:0 (A.Br { target = l });
  check cb "flags unbarriered back-edge" true
    (has_rule "ir-backedge-barrier" (lint ir));
  (* a commit immediately before the branch serializes just as hard *)
  let ir2 = I.create () in
  let l2 = I.fresh_label ir2 in
  I.emit_label ir2 l2;
  I.emit ir2 ~x86_idx:0 (A.MovI { rd = I.vreg_base; imm = 1 });
  I.emit ir2 ~x86_idx:0 (A.Commit 1);
  I.emit ir2 ~x86_idx:0 (A.Br { target = l2 });
  check ci "commit-then-branch is clean" 0 (List.length (lint ir2))

let test_lint_exit_eip () =
  let ir = I.create () in
  let e0 = I.add_exit ir ~target:(C.Const 0x1005) ~kind:C.Enext ~x86_retired:1 in
  I.emit ir ~x86_idx:0 (A.Exit e0);
  check cb "flags exit without committed EIP" true
    (has_rule "ir-exit-eip" (lint ir))

let test_lint_memseq () =
  let ir = I.create () in
  let op atom mem_seq =
    I.Op
      { I.atom; x86_idx = 0; mem_seq; base_ver = 0; barrier = false;
        base_abs = None }
  in
  let load seq =
    op
      (A.Load
         { rd = 12; base = 0; disp = 0; size = 4; spec = false; protect = None;
           check = 0 })
      seq
  in
  (* sequence numbers out of program order *)
  let diags = Irlint.lint ~stage:"test" ~entry ~ir [ load 1; load 0 ] in
  check cb "flags non-monotone mem_seq" true (has_rule "ir-memseq" diags)

(* ------------------------------------------------------------------ *)
(* Codegen wiring                                                      *)
(* ------------------------------------------------------------------ *)

(* The one acceptance rule, [Codegen.check]: any non-advisory
   diagnostic rejects with [Verify_failed], advisory ones pass, and the
   observer sees every diagnostic without changing the verdict. *)
let latency_diag = D.v ~rule:"latency" ~entry ~stage:"code" ~molecule:3 "early"
let sbuf_diag = D.v ~rule:"sbuf-overflow" ~entry ~stage:"code" "full"

let test_check_rejects () =
  Alcotest.check_raises "non-advisory diagnostic rejects"
    (Cms.Codegen.Verify_failed (D.to_string latency_diag)) (fun () ->
      Cms.Codegen.check [ sbuf_diag; latency_diag ])

let test_check_advisory_passes () =
  Cms.Codegen.check [ sbuf_diag ];
  Cms.Codegen.check []

let test_check_observer () =
  let seen = ref [] in
  let on_diag d = seen := d.D.rule :: !seen in
  Cms.Codegen.check ~on_diag [ sbuf_diag ];
  (match Cms.Codegen.check ~on_diag [ sbuf_diag; latency_diag ] with
  | () -> Alcotest.fail "observed check accepted a latency violation"
  | exception Cms.Codegen.Verify_failed _ -> ());
  check (Alcotest.list Alcotest.string) "observer saw every diagnostic"
    [ "sbuf-overflow"; "sbuf-overflow"; "latency" ]
    (List.rev !seen)

(* The production config verifies every fresh compile: a corpus
   workload under [Config.default] counts one verified translation per
   compile that reached the fresh-translation seam (zero-instruction
   stubs never do). *)
let test_default_verifies_every_compile () =
  let c = Workloads.Suite.prepare Workloads.Progs_spec.compress in
  let fresh = ref 0 in
  c.Cms.Engine.on_fresh_translation <-
    Some (fun ~entry:_ ~region:_ ~policy:_ ~bytes_:_ ~compiled:_ -> incr fresh);
  ignore (Cms.run ~max_insns:200_000 c : Cms.Engine.stop);
  let s = Cms.stats c in
  check cb "translations verified" true (s.Cms.Stats.translations_verified > 0);
  check ci "every fresh compile verified" !fresh
    s.Cms.Stats.translations_verified

let suites =
  [
    ( "verify",
      [
        Alcotest.test_case "crafted block is clean" `Quick test_crafted_clean;
        Alcotest.test_case "real translation survives mutation sweep" `Quick
          test_real_translation_mutations;
        Alcotest.test_case "latency: straight-line read" `Quick
          test_latency_straight;
        Alcotest.test_case "latency: loop back-edge" `Quick
          test_latency_backedge;
        Alcotest.test_case "latency: early-read trips only latency" `Quick
          test_early_read_only_latency;
        Alcotest.test_case "lint: clean IR" `Quick test_lint_clean;
        Alcotest.test_case "lint: vreg use before def" `Quick
          test_lint_vreg_undef;
        Alcotest.test_case "lint: back-edge barrier" `Quick
          test_lint_backedge_barrier;
        Alcotest.test_case "lint: exit needs committed EIP" `Quick
          test_lint_exit_eip;
        Alcotest.test_case "lint: mem_seq monotone" `Quick test_lint_memseq;
        Alcotest.test_case "check rejects non-advisory diagnostic" `Quick
          test_check_rejects;
        Alcotest.test_case "check passes advisory-only diagnostics" `Quick
          test_check_advisory_passes;
        Alcotest.test_case "check observer sees every diagnostic" `Quick
          test_check_observer;
        Alcotest.test_case "default config verifies every compile" `Quick
          test_default_verifies_every_compile;
      ]
      @ List.map
          (fun m ->
            Alcotest.test_case
              (Fmt.str "mutation %s -> %s" (M.name m) (M.expected_rule m))
              `Quick (test_mutation m))
          M.all );
  ]
