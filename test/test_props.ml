(* Additional property and edge-case tests: decoder robustness on
   arbitrary byte soup, the policy lattice laws the adaptive machinery
   depends on, region-selection invariants, translation-cache behavior
   under pressure, and interpreter corner cases. *)

open X86

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Decoder: total on arbitrary bytes                                   *)
(* ------------------------------------------------------------------ *)

(* The decoder runs on whatever bytes the guest jumps to; it must
   either produce an instruction or raise an architectural fault (#UD,
   or #PF surfaced by the fetch callback) — never an OCaml error. *)
let prop_decode_total =
  QCheck.Test.make ~count:2000 ~name:"decoder total on random bytes"
    QCheck.(list_of_size (Gen.return 16) (int_bound 255))
    (fun bytes ->
      let arr = Array.of_list bytes in
      let fetch a =
        if a - 0x1000 < Array.length arr then arr.(a - 0x1000)
        else raise (Exn.Fault (Exn.PF { addr = a; write = false; present = false }))
      in
      match Decode.decode ~fetch 0x1000 with
      | f -> f.Decode.len > 0 && f.Decode.len <= Decode.max_len
      | exception Exn.Fault _ -> true)

(* Decoding a decoded instruction's bytes is stable (idempotent). *)
let prop_decode_stable =
  QCheck.Test.make ~count:1000 ~name:"decode of encode of decode stable"
    QCheck.(list_of_size (Gen.return 16) (int_bound 255))
    (fun bytes ->
      let arr = Array.of_list bytes in
      let fetch a =
        if a - 0x1000 < Array.length arr then arr.(a - 0x1000)
        else raise (Exn.Fault (Exn.PF { addr = a; write = false; present = false }))
      in
      match Decode.decode ~fetch 0x1000 with
      | exception Exn.Fault _ -> true
      | f1 -> (
          let { Encode.bytes = b; _ } = Encode.encode ~at:0x1000 f1.Decode.insn in
          let fetch2 a = Char.code (Bytes.get b (a - 0x1000)) in
          match Decode.decode ~fetch:fetch2 0x1000 with
          | f2 -> f2.Decode.insn = f1.Decode.insn
          | exception Exn.Fault _ -> false))

(* ------------------------------------------------------------------ *)
(* Policy lattice laws                                                 *)
(* ------------------------------------------------------------------ *)

let cfg = Cms.Config.default

let gen_policy =
  let open QCheck.Gen in
  let* no_reorder = bool and* no_alias = bool in
  let* self_check = bool and* self_reval = bool in
  let* interp_only = bool in
  let* max_insns = oneofl [ 4; 10; 50; 200 ] in
  let* unroll = oneofl [ 1; 2; 4 ] in
  let* interp = list_size (int_bound 3) (int_range 0x1000 0x1010) in
  let* stylized = list_size (int_bound 3) (int_range 0x2000 0x2010) in
  return
    {
      Cms.Policy.no_reorder;
      no_alias;
      self_check;
      self_reval;
      interp_only;
      max_insns;
      unroll;
      interp_insns = Cms.Policy.ISet.of_list interp;
      stylized_imms = Cms.Policy.ISet.of_list stylized;
    }

let arb_policy = QCheck.make gen_policy

let prop_merge_monotone =
  QCheck.Test.make ~count:500 ~name:"policy merge is an upper bound"
    (QCheck.pair arb_policy arb_policy)
    (fun (a, b) ->
      let m = Cms.Policy.merge a b in
      Cms.Policy.geq m a && Cms.Policy.geq m b)

let prop_merge_idempotent_commutative =
  QCheck.Test.make ~count:500 ~name:"policy merge idempotent + commutative"
    (QCheck.pair arb_policy arb_policy)
    (fun (a, b) ->
      Cms.Policy.equal (Cms.Policy.merge a a) a
      && Cms.Policy.equal (Cms.Policy.merge a b) (Cms.Policy.merge b a))

let prop_merge_associative =
  QCheck.Test.make ~count:300 ~name:"policy merge associative"
    (QCheck.triple arb_policy arb_policy arb_policy)
    (fun (a, b, c) ->
      Cms.Policy.equal
        (Cms.Policy.merge a (Cms.Policy.merge b c))
        (Cms.Policy.merge (Cms.Policy.merge a b) c))

(* The adaptive table never gets less conservative — the paper's
   "avoid bouncing between incomparable policies" property. *)
let prop_adapt_monotone =
  QCheck.Test.make ~count:200 ~name:"adaptive upgrades only tighten"
    (QCheck.list_of_size (QCheck.Gen.int_range 1 8) arb_policy)
    (fun ps ->
      let t = Cms.Adapt.create cfg in
      List.for_all
        (fun p ->
          let before = Cms.Adapt.get t 0x1234 in
          Cms.Adapt.upgrade t 0x1234 p;
          Cms.Policy.geq (Cms.Adapt.get t 0x1234) before)
        ps)

(* ------------------------------------------------------------------ *)
(* Region selection invariants                                         *)
(* ------------------------------------------------------------------ *)

let mk_engine () =
  let t = Cms.create ~cfg:Cms.Config.default () in
  Cms.boot t ~entry:0x10000;
  t

let test_region_respects_caps () =
  let t = mk_engine () in
  let prog =
    Asm.(
      assemble ~base:0x10000
        [
          label "l"; add_ri eax 1; add_ri ebx 2; xor_rr ecx eax; dec_r edx;
          jne "l"; hlt;
        ])
  in
  Cms.load t prog;
  List.iter
    (fun (max_insns, unroll) ->
      let policy =
        { (Cms.Policy.default Cms.Config.default) with
          Cms.Policy.max_insns; unroll }
      in
      match
        Cms.Region.select ~mem:(Cms.mem t)
          ~profile:(Cms.Profile.create ()) ~policy 0x10000
      with
      | None -> Alcotest.fail "no region"
      | Some r ->
          check cb
            (Fmt.str "count %d <= %d" (Cms.Region.instruction_count r) max_insns)
            true
            (Cms.Region.instruction_count r <= max_insns);
          (* merged, sorted, non-overlapping ranges *)
          let rec sorted = function
            | (_, h1) :: ((l2, _) :: _ as rest) -> h1 < l2 && sorted rest
            | _ -> true
          in
          check cb "ranges sorted/merged" true (sorted r.Cms.Region.src_ranges))
    [ (3, 1); (5, 1); (10, 2); (200, 4) ]

let test_region_stops_at_interp_insn () =
  let t = mk_engine () in
  let prog =
    Asm.(
      assemble ~base:0x10000
        [ add_ri eax 1; cli; add_ri eax 2; hlt ])
  in
  Cms.load t prog;
  match
    Cms.Region.select ~mem:(Cms.mem t) ~profile:(Cms.Profile.create ())
      ~policy:(Cms.Policy.default Cms.Config.default) 0x10000
  with
  | None -> Alcotest.fail "no region"
  | Some r ->
      (* region is exactly the one instruction before CLI *)
      check ci "stops before cli" 1 (Cms.Region.instruction_count r)

(* ------------------------------------------------------------------ *)
(* Translation cache under pressure                                    *)
(* ------------------------------------------------------------------ *)

let test_tcache_flush_on_capacity () =
  (* a program with many distinct hot blocks and a tiny cache *)
  let open Asm in
  let blocks =
    List.concat
      (List.init 24 (fun i ->
           [ label (Fmt.str "b%d" i); add_ri eax i; add_ri ebx 1 ]))
  in
  let prog =
    assemble ~base:0x10000
      ([ mov_ri ecx 60; mov_ri eax 0; mov_ri ebx 0; label "loop" ]
      @ blocks
      @ [ dec_r ecx; jne "loop"; hlt ])
  in
  let cfg =
    { Cms.Config.default with
      Cms.Config.tcache_capacity = 4;
      translate_threshold = 3;
      max_region_insns = 6;
      unroll_limit = 1 }
  in
  let t, _ = Cms.run_listing ~cfg ~max_insns:1_000_000 prog ~entry:0x10000 in
  (* correctness survives cache pressure (generational eviction, with
     the full flush as last resort) *)
  check ci "ebx counts blocks" (60 * 24) (Cms.gpr t X86.Regs.ebx);
  let tc = t.Cms.Engine.tcache in
  check cb "cache shed translations at least once" true
    (tc.Cms.Tcache.flushes > 0 || tc.Cms.Tcache.evictions > 0);
  check cb "count stays within capacity" true
    (tc.Cms.Tcache.count <= tc.Cms.Tcache.capacity)

(* ------------------------------------------------------------------ *)
(* Interpreter corner cases                                            *)
(* ------------------------------------------------------------------ *)

let test_insn_straddles_pages () =
  (* place a 5-byte instruction across a page boundary *)
  let open Asm in
  let prog =
    assemble ~base:0x10ffd
      [ mov_ri eax 0x1234567; hlt ]
  in
  let t, _ =
    Cms.run_listing ~cfg:Cms.interp_only_cfg prog ~entry:0x10ffd
  in
  check ci "value loaded across pages" 0x1234567 (Cms.gpr t X86.Regs.eax)

let test_division_edge_cases () =
  let open Asm in
  (* INT_MIN / -1 must fault #DE, handler skips via recorded next *)
  let prog =
    assemble ~base:0x10000
      [
        mov_rl eax "de";
        mov_mr (m 0x1000) eax;
        mov_mi (m 0x5000) 0x1000;
        lidt (m 0x5000);
        mov_ri ebx 0;
        mov_ri eax 0x80000000;
        mov_ri edx 0xffffffff;
        mov_ri ecx 0xffffffff;
        I (Insn.Idiv (Insn.S32, Insn.R ecx));
        label "after";
        hlt;
        label "de";
        inc_r ebx;
        pop_r edx; (* faulting eip *)
        push_l "after";
        iret;
      ]
  in
  let t, _ = Cms.run_listing ~cfg:Cms.interp_only_cfg prog ~entry:0x10000 in
  check ci "overflow faulted" 1 (Cms.gpr t X86.Regs.ebx)

let test_wraparound_address () =
  (* effective addresses wrap at 2^32 *)
  let open Asm in
  let prog =
    assemble ~base:0x10000
      [
        mov_mi (m 0x20000) 0xabcd;
        mov_ri esi 0xffffffff;
        mov_rm eax (mbd esi 0x20001); (* 0xffffffff + 0x20001 = 0x20000 mod 2^32 *)
        hlt;
      ]
  in
  let t, _ = Cms.run_listing ~cfg:Cms.interp_only_cfg prog ~entry:0x10000 in
  check ci "wrapped ea" 0xabcd (Cms.gpr t X86.Regs.eax)

(* ------------------------------------------------------------------ *)
(* Translation verifier over the whole suite                           *)
(* ------------------------------------------------------------------ *)

(* Every translation produced while running every workload — at an
   aggressive translate threshold so nearly all guest code goes through
   the translator — must pass the static verifier with zero
   diagnostics.  The observer sees every diagnostic, advisory ones
   included, so one run reports them all; a rejected translation falls
   back to the interpreter and the sweep carries on. *)
let test_suite_verifier_clean () =
  let workloads =
    Workloads.Progs_boot.all @ Workloads.Progs_spec.all
    @ Workloads.Progs_apps.all @ Workloads.Progs_quake.all
    @ [ Workloads.Progs_quake.blt_driver () ]
  @ Workloads.Progs_kernel.all
  in
  let cfg = { Cms.Config.default with Cms.Config.translate_threshold = 4 } in
  let translations = ref 0 in
  let diags = ref [] in
  let on_diag d = diags := d :: !diags in
  List.iter
    (fun w ->
      let t = Workloads.Suite.run ~on_diag ~cfg w in
      translations := !translations + (Cms.stats t).Cms.Stats.translations)
    workloads;
  (match List.rev !diags with
  | [] -> ()
  | d :: _ ->
      Alcotest.failf "%d violations, first: %s" (List.length !diags)
        (Cms.Diag.to_string d));
  check cb "suite produced translations" true (!translations > 500)

let suites =
  [
    ( "props.decode",
      List.map QCheck_alcotest.to_alcotest
        [ prop_decode_total; prop_decode_stable ] );
    ( "props.policy",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_merge_monotone;
          prop_merge_idempotent_commutative;
          prop_merge_associative;
          prop_adapt_monotone;
        ] );
    ( "props.region",
      [
        Alcotest.test_case "caps respected" `Quick test_region_respects_caps;
        Alcotest.test_case "stops at interp-only insn" `Quick
          test_region_stops_at_interp_insn;
      ] );
    ( "props.tcache",
      [ Alcotest.test_case "flush under pressure" `Quick test_tcache_flush_on_capacity ] );
    ( "props.interp",
      [
        Alcotest.test_case "insn straddles pages" `Quick test_insn_straddles_pages;
        Alcotest.test_case "idiv overflow faults" `Quick test_division_edge_cases;
        Alcotest.test_case "address wraparound" `Quick test_wraparound_address;
      ] );
    ( "props.verify",
      [
        Alcotest.test_case "whole suite verifier-clean" `Slow
          test_suite_verifier_clean;
      ] );
  ]
