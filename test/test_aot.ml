(* Tests for the static code-discovery pass and the ahead-of-time
   translation images: classification of the statically-unresolvable
   (indirect control flow, write-reachable pages), overlapping decode
   starts, entry into the middle of a discovered region, image
   round-trip determinism and corruption rejection, stale-digest
   refusal, runtime SMC invalidation of installed AOT entries, and the
   whole-suite AOT-on/AOT-off architectural differential. *)

module P = Cms_persist
module A = Cms_analysis
module Suite = Workloads.Suite

let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Fetch from an assembled listing, faulting outside it — discovery
   must treat the edge of the image like undecodable bytes. *)
let fetch_of (l : X86.Asm.listing) a =
  let base = l.X86.Asm.base and img = l.X86.Asm.image in
  if a >= base && a < base + Bytes.length img then
    Char.code (Bytes.get img (a - base))
  else raise (X86.Exn.Fault (X86.Exn.GP 0))

let discover listing ~entry =
  A.Discover.discover ~fetch:(fetch_of listing) ~entry ()

let reasons_at (d : A.Discover.t) why =
  List.filter_map
    (fun (s : A.Discover.site) ->
      if s.A.Discover.why = why then Some s.A.Discover.addr else None)
    d.A.Discover.deferred

(* ------------------------------------------------------------------ *)
(* Discovery classification                                            *)
(* ------------------------------------------------------------------ *)

let test_indirect_jump_deferred () =
  let l =
    X86.Asm.(
      assemble ~base:0x1000
        [
          mov_ri eax 0x1100;
          jmp_r eax;
          (* never decoded statically: behind the indirect jump *)
          label "dead";
          hlt;
        ])
  in
  let d = discover l ~entry:0x1000 in
  (match reasons_at d A.Discover.Indirect_jump with
  | [ _ ] -> ()
  | sites ->
      Alcotest.failf "expected one indirect-jump site, got %d"
        (List.length sites));
  (* the jump's *target* was never guessed: 0x1100 is not a leader *)
  check Alcotest.bool "target not guessed" false
    (List.mem 0x1100 d.A.Discover.leaders)

let test_indirect_call_continues () =
  let l =
    X86.Asm.(
      assemble ~base:0x1000
        [ mov_ri ebx 0x1200; call_r ebx; mov_ri eax 7; hlt ])
  in
  let d = discover l ~entry:0x1000 in
  check Alcotest.int "one indirect-call site" 1
    (List.length (reasons_at d A.Discover.Indirect_call));
  (* the return point after the call is still walked *)
  check Alcotest.bool "return point is a leader" true
    (List.exists
       (fun (b : A.Discover.block) -> b.A.Discover.stop > 0x1007)
       d.A.Discover.blocks)

let test_decode_fault_deferred () =
  (* 0x0F 0xFF is not a decodable instruction in this subset *)
  let l = X86.Asm.(assemble ~base:0x1000 [ mov_ri eax 1; raw "\x0f\xff" ]) in
  let d = discover l ~entry:0x1000 in
  check Alcotest.int "decode fault deferred" 1
    (List.length (reasons_at d A.Discover.Decode_fault))

let test_overlapping_decode_starts () =
  (* Two leaders decode overlapping byte ranges: 0x1005 starts a
     mov eax, 0xf4909090 and 0x1006 starts inside its immediate
     (nop; nop; nop; hlt).  Both runs must coexist.

       0x1000  jmp  0x1010
       0x1005  mov  eax, 0xf4909090   (imm bytes: 90 90 90 f4)
       0x100a  ret
       0x100b  5 x nop
       0x1010  call 0x1005
       0x1015  jmp  0x1006 *)
  let l =
    X86.Asm.(
      assemble ~base:0x1000
        [
          raw "\xe9\x0b\x00\x00\x00";
          raw "\xb8\x90\x90\x90\xf4";
          raw "\xc3";
          raw "\x90\x90\x90\x90\x90";
          raw "\xe8\xf0\xff\xff\xff";
          raw "\xe9\xec\xff\xff\xff";
        ])
  in
  let d = discover l ~entry:0x1000 in
  check Alcotest.bool "outer start is a leader" true
    (List.mem 0x1005 d.A.Discover.leaders);
  check Alcotest.bool "overlapping inner start is a leader" true
    (List.mem 0x1006 d.A.Discover.leaders);
  (* the inner decode saw the nops and the hlt as distinct insns *)
  check Alcotest.bool "both decodes counted" true
    (d.A.Discover.insn_count >= 8);
  List.iter
    (fun (b : A.Discover.block) ->
      if b.A.Discover.stop <= b.A.Discover.start then
        Alcotest.failf "degenerate block %#x..%#x" b.A.Discover.start
          b.A.Discover.stop)
    d.A.Discover.blocks

let test_entry_into_middle_of_region () =
  (* 0x1005 is in the middle of the entry block and also a branch
     target: it must become its own leader without re-walking. *)
  let l =
    X86.Asm.(
      assemble ~base:0x1000
        [
          mov_ri eax 1;
          (* 0x1005: *)
          label "mid";
          mov_ri ebx 2;
          cmp_ri eax 0;
          jne "mid";
          hlt;
        ])
  in
  let d = discover l ~entry:0x1000 in
  check Alcotest.bool "mid-region target is a leader" true
    (List.mem 0x1005 d.A.Discover.leaders);
  check Alcotest.bool "mid leader is statically translatable" true
    (List.mem 0x1005 (A.Discover.static_leaders d))

let test_smc_page_demoted () =
  (* a statically-resolved store lands on the code's own page: every
     leader there is demoted to dynamic-only *)
  let l =
    X86.Asm.(
      assemble ~base:0x1000
        [ mov_mi (m 0x1040) 0x90; mov_ri eax 3; hlt ])
  in
  let d = discover l ~entry:0x1000 in
  check (Alcotest.list Alcotest.int) "code page demoted" [ 1 ]
    d.A.Discover.smc_pages;
  check (Alcotest.list Alcotest.int) "nothing static" []
    (A.Discover.static_leaders d);
  check Alcotest.bool "smc-page deferral recorded" true
    (reasons_at d A.Discover.Smc_page <> []);
  check Alcotest.int "all bytes dynamic-only" 0 d.A.Discover.bytes_static

let test_region_straddling_smc_page () =
  (* code on page 1 stores into page 2, which also holds code the walk
     reaches: page 2 is demoted, page 1 stays static *)
  let l =
    X86.Asm.(
      assemble ~base:0x1000
        [
          mov_mi (m 0x2800) 0x1234;
          jmp "over";
          label "over";
          mov_ri eax 9;
          jmp_abs 0x2000;
          align 4096;
          (* 0x2000: *)
          hlt;
        ])
  in
  let d = discover l ~entry:0x1000 in
  check (Alcotest.list Alcotest.int) "written page demoted" [ 2 ]
    d.A.Discover.smc_pages;
  check Alcotest.bool "entry page stays static" true
    (List.mem 0x1000 (A.Discover.static_leaders d));
  check Alcotest.bool "leader on written page deferred" false
    (List.mem 0x2000 (A.Discover.static_leaders d));
  check Alcotest.bool "deferred bytes accounted" true
    (d.A.Discover.bytes_deferred > 0)

let test_blind_store_counted () =
  let l =
    X86.Asm.(
      assemble ~base:0x1000
        [ mov_ri edi 0x8000; mov_mr (mb edi) eax; hlt ])
  in
  let d = discover l ~entry:0x1000 in
  check Alcotest.bool "blind store counted" true
    (d.A.Discover.blind_stores >= 1);
  (* a through-register store must NOT demote any page statically *)
  check (Alcotest.list Alcotest.int) "no page demoted" []
    d.A.Discover.smc_pages

let test_walk_budget_truncates () =
  let l =
    X86.Asm.(
      assemble ~base:0x1000
        (List.concat (List.init 64 (fun _ -> [ inc_r eax ])) @ [ hlt ]))
  in
  let d = A.Discover.discover ~max_insns:8 ~fetch:(fetch_of l) ~entry:0x1000 () in
  check Alcotest.bool "truncated flagged" true d.A.Discover.truncated;
  check Alcotest.bool "budget respected" true (d.A.Discover.insn_count <= 9)

(* ------------------------------------------------------------------ *)
(* Image round-trip and rejection                                      *)
(* ------------------------------------------------------------------ *)

let counted_loop ~iters =
  X86.Asm.(
    assemble ~base:0x1000
      [
        mov_ri ecx iters;
        mov_ri eax 0;
        label "l";
        add_ri eax 3;
        dec_r ecx;
        jne "l";
        hlt;
      ])

let build_image ?(cfg = Cms.Config.default) ?(listing = counted_loop ~iters:50)
    () =
  let c = Cms.create ~cfg () in
  Cms.load c listing;
  Cms.boot c ~entry:0x1000;
  (c, (A.Aotgen.build ~label:"test" c ~entry:0x1000).A.Aotgen.image)

let test_image_roundtrip_deterministic () =
  let _, img1 = build_image () in
  let _, img2 = build_image () in
  let s1 = P.Aot.to_string img1 and s2 = P.Aot.to_string img2 in
  check Alcotest.bool "two builds byte-identical" true (s1 = s2);
  let s1' = P.Aot.to_string (P.Aot.of_string s1) in
  check Alcotest.bool "decode/encode is the identity" true (s1 = s1')

let test_image_corruption_rejected () =
  let _, img = build_image () in
  let s = Bytes.of_string (P.Aot.to_string img) in
  let i = Bytes.length s / 2 in
  Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0x41));
  match P.Aot.of_string (Bytes.to_string s) with
  | _ -> Alcotest.fail "corrupted image was accepted"
  | exception P.Codec.Corrupt _ -> ()

(* An image of the previous format version is refused by its version
   number before any section is decoded. *)
let test_old_version_refused () =
  let _, img = build_image () in
  let v = P.Aot.version in
  let old =
    P.Codec.write_container ~kind:P.Aot.kind ~version:(v - 1)
      (P.Codec.read_container ~kind:P.Aot.kind ~version:v (P.Aot.to_string img))
  in
  match P.Aot.of_string old with
  | _ -> Alcotest.fail "previous-version image was accepted"
  | exception P.Codec.Corrupt msg ->
      check Alcotest.bool
        (Fmt.str "diagnostic names the version: %s" msg)
        true
        (msg = Fmt.str "unsupported AOTC format version %d (this build reads version %d)"
                 (v - 1) v)

let test_stale_digest_refused () =
  let _, img = build_image () in
  let c2 = Cms.create ~cfg:Cms.Config.default () in
  Cms.load c2 (counted_loop ~iters:50);
  Cms.boot c2 ~entry:0x1000;
  (* one changed code byte: the whole image must be refused, naming the
     page *)
  let phys = (Cms.mem c2).Machine.Mem.phys in
  Machine.Phys.write8 phys 0x1003 (Machine.Phys.read8 phys 0x1003 lxor 1);
  match P.Aot.install c2 img with
  | _ -> Alcotest.fail "stale image was installed"
  | exception P.Aot.Stale msg ->
      if not (contains msg "page 0x1") then
        Alcotest.failf "diagnostic %S does not name the stale page" msg

let test_config_conflict_refused () =
  let _, img = build_image () in
  let cfg = { Cms.Config.default with Cms.Config.enable_reorder = false } in
  let c2 = Cms.create ~cfg () in
  Cms.load c2 (counted_loop ~iters:50);
  Cms.boot c2 ~entry:0x1000;
  match P.Aot.install c2 img with
  | _ -> Alcotest.fail "config-mismatched image was installed"
  | exception P.Aot.Stale msg ->
      if not (contains msg "config") then
        Alcotest.failf "diagnostic %S does not mention the config" msg

let test_install_and_run_from_image () =
  let listing = counted_loop ~iters:50 in
  let _, img = build_image ~listing () in
  let c = Cms.create ~cfg:Cms.Config.default () in
  Cms.load c listing;
  Cms.boot c ~entry:0x1000;
  let rep = P.Aot.install c img in
  check Alcotest.bool "something installed" true (rep.P.Aot.installed > 0);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "nothing rejected" [] rep.P.Aot.rejected;
  let s = Cms.stats c in
  check Alcotest.int "aot_loaded matches report" rep.P.Aot.installed
    s.Cms.Stats.aot_loaded;
  (match Cms.run ~max_insns:10_000 c with
  | Cms.Engine.Halted -> ()
  | _ -> Alcotest.fail "workload did not halt");
  check Alcotest.int "checksum" 150 (Cms.gpr c X86.Regs.eax);
  check Alcotest.bool "AOT entries actually ran" true
    (s.Cms.Stats.aot_hits > 0);
  check Alcotest.bool "no dynamic translation needed" true
    (s.Cms.Stats.translations = 0);
  check Alcotest.bool "retired charged to AOT" true
    (s.Cms.Stats.aot_x86_retired > 0)

(* A consistently re-encoded image whose native code names a register
   outside the host register file must be refused per translation at
   install, with a diagnostic naming the register, and the machine then
   runs correctly without it. *)
let test_forged_register_rejected () =
  let listing = counted_loop ~iters:50 in
  let _, img = build_image ~listing () in
  let forge (t : P.Aot.tran) =
    let mols = Array.copy t.P.Aot.code.Vliw.Code.molecules in
    mols.(0) <- Array.append mols.(0) [| Vliw.Atom.MovI { rd = 99; imm = 1 } |];
    { t with P.Aot.code = { t.P.Aot.code with Vliw.Code.molecules = mols } }
  in
  let forged =
    P.Aot.of_string
      (P.Aot.to_string { img with P.Aot.trans = List.map forge img.P.Aot.trans })
  in
  let c = Cms.create ~cfg:Cms.Config.default () in
  Cms.load c listing;
  Cms.boot c ~entry:0x1000;
  let rep = P.Aot.install c forged in
  check Alcotest.int "nothing installed" 0 rep.P.Aot.installed;
  check Alcotest.int "every translation rejected"
    (List.length img.P.Aot.trans)
    (List.length rep.P.Aot.rejected);
  List.iter
    (fun (e, why) ->
      if not (contains why "r99") then
        Alcotest.failf "rejection of %#x does not name r99: %s" e why)
    rep.P.Aot.rejected;
  (match Cms.run ~max_insns:10_000 c with
  | Cms.Engine.Halted -> ()
  | _ -> Alcotest.fail "workload did not halt");
  check Alcotest.int "checksum" 150 (Cms.gpr c X86.Regs.eax);
  check Alcotest.int "no AOT entry ran" 0 (Cms.stats c).Cms.Stats.aot_hits

(* An image entry whose code passes [Code.validate] but reads a load's
   result before its latency has passed must be refused at install by the
   translator's own verifier, with a reason naming the rule; the
   dynamic tier then covers that entry and the run is still right. *)
let test_verifier_violation_rejected () =
  (* the counted loop, adding its 3 from memory: the load is what the
     early-read mutant reads too soon *)
  let listing =
    X86.Asm.(
      assemble ~base:0x1000
        [
          mov_rl ebx "three";
          mov_ri ecx 50;
          mov_ri eax 0;
          label "l";
          add_rm eax (mb ebx);
          dec_r ecx;
          jne "l";
          hlt;
          label "three";
          dd [ 3 ];
        ])
  in
  let _, img = build_image ~listing () in
  let mutated = ref None in
  let trans =
    List.map
      (fun (t : P.Aot.tran) ->
        if !mutated <> None then t
        else
          match
            A.Mutate.apply ~cfg:img.P.Aot.cfg t.P.Aot.code A.Mutate.Early_read
          with
          | None -> t
          | Some code ->
              mutated := Some t.P.Aot.tentry;
              { t with P.Aot.code })
      img.P.Aot.trans
  in
  let bad_entry =
    match !mutated with
    | Some e -> e
    | None -> Alcotest.fail "early-read applies to no image entry"
  in
  let img' = P.Aot.of_string (P.Aot.to_string { img with P.Aot.trans }) in
  let c = Cms.create ~cfg:Cms.Config.default () in
  Cms.load c listing;
  Cms.boot c ~entry:0x1000;
  let rep = P.Aot.install c img' in
  (match rep.P.Aot.rejected with
  | [ (e, why) ] ->
      check Alcotest.int "the mutated entry is the one rejected" bad_entry e;
      if not (contains why "latency") then
        Alcotest.failf "rejection does not name the latency rule: %s" why
  | l -> Alcotest.failf "expected one rejection, got %d" (List.length l));
  check Alcotest.int "counted in aot_rejected" 1
    (Cms.stats c).Cms.Stats.aot_rejected;
  (match Cms.run ~max_insns:10_000 c with
  | Cms.Engine.Halted -> ()
  | _ -> Alcotest.fail "workload did not halt");
  check Alcotest.int "checksum" 150 (Cms.gpr c X86.Regs.eax)

let test_smc_invalidates_aot_entry () =
  (* The entry block patches the immediate of an instruction inside a
     *second* pre-minted region, through a register (invisible to the
     static scan, so both regions ARE pre-minted), then jumps there.
     The write must invalidate the stale AOT translation exactly like
     a dynamic one: the run retires the *patched* semantics. *)
  let listing =
    X86.Asm.(
      assemble ~base:0x1000
        [
          mov_ri edi 0x1101;  (* imm byte of f's mov_ri eax *)
          mov8_mi (mb edi) 42;
          jmp_abs 0x1100;
          align 256;
          (* 0x1100, region f: *)
          mov_ri eax 41;
          hlt;
        ])
  in
  let c = Cms.create ~cfg:Cms.Config.default () in
  Cms.load c listing;
  Cms.boot c ~entry:0x1000;
  let _, img = build_image ~listing () in
  let rep = P.Aot.install c img in
  check Alcotest.bool "both regions pre-minted despite blind store" true
    (rep.P.Aot.installed >= 2);
  (match Cms.run ~max_insns:10_000 c with
  | Cms.Engine.Halted -> ()
  | _ -> Alcotest.fail "did not halt");
  check Alcotest.int "patched semantics retired, not the stale image" 42
    (Cms.gpr c X86.Regs.eax);
  check Alcotest.bool "AOT entry invalidated by SMC" true
    ((Cms.stats c).Cms.Stats.aot_invalidated > 0)

(* ------------------------------------------------------------------ *)
(* Whole-suite differential and coverage                               *)
(* ------------------------------------------------------------------ *)

let all_workloads () =
  Workloads.Progs_boot.all @ Workloads.Progs_spec.all
  @ Workloads.Progs_apps.all @ Workloads.Progs_quake.all
  @ [ Workloads.Progs_quake.blt_driver () ]
  @ Workloads.Progs_kernel.all

let run_warm ?(cfg = Cms.Config.default) (w : Suite.t) =
  let c = Suite.prepare ~cfg w in
  let img = (A.Aotgen.build ~label:w.Suite.name c ~entry:w.Suite.entry).A.Aotgen.image in
  let img = P.Aot.of_string (P.Aot.to_string img) in
  ignore (P.Aot.install c img : P.Aot.install_report);
  Suite.run_prepared w c

let test_suite_aot_differential () =
  List.iter
    (fun (w : Suite.t) ->
      let cold = Suite.run ~cfg:Cms.Config.default w in
      let warm = run_warm w in
      if w.Suite.uses_timer then
        (* interrupt delivery lands on consistent exits (§3.3), and AOT
           regions tile the code differently than profile-guided
           dynamic ones, so timer-driven runs are compared by their
           architectural checksum — the soak drill's policy
           ([compare_mem:(not uses_timer)]) *)
        check Alcotest.int
          (Fmt.str "%s: checksum, aot on vs off" w.Suite.name)
          (Cms.gpr cold X86.Regs.eax)
          (Cms.gpr warm X86.Regs.eax)
      else
        let ah t = P.Digests.arch_hex (P.Digests.arch t) in
        check Alcotest.string
          (Fmt.str "%s: arch digest, aot on vs off" w.Suite.name)
          (ah cold) (ah warm))
    (all_workloads ())

let test_compute_workload_coverage () =
  let w =
    List.find
      (fun w -> w.Suite.name = "026.compress (Linux)")
      (all_workloads ())
  in
  let t = run_warm w in
  let s = Cms.stats t in
  let cover =
    float_of_int s.Cms.Stats.aot_x86_retired /. float_of_int (Cms.retired t)
  in
  if cover < 0.9 then
    Alcotest.failf "AOT coverage %.1f%% < 90%% (retired=%d from-aot=%d)"
      (cover *. 100.0) (Cms.retired t) s.Cms.Stats.aot_x86_retired

let suites =
  [
    ( "aot-discovery",
      [
        Alcotest.test_case "indirect jump deferred" `Quick
          test_indirect_jump_deferred;
        Alcotest.test_case "indirect call continues past" `Quick
          test_indirect_call_continues;
        Alcotest.test_case "decode fault deferred" `Quick
          test_decode_fault_deferred;
        Alcotest.test_case "overlapping decode starts" `Quick
          test_overlapping_decode_starts;
        Alcotest.test_case "entry into middle of region" `Quick
          test_entry_into_middle_of_region;
        Alcotest.test_case "store demotes code page" `Quick
          test_smc_page_demoted;
        Alcotest.test_case "region straddling written page" `Quick
          test_region_straddling_smc_page;
        Alcotest.test_case "blind store counted, not demoted" `Quick
          test_blind_store_counted;
        Alcotest.test_case "walk budget truncates" `Quick
          test_walk_budget_truncates;
      ] );
    ( "aot-image",
      [
        Alcotest.test_case "round-trip deterministic" `Quick
          test_image_roundtrip_deterministic;
        Alcotest.test_case "corruption rejected" `Quick
          test_image_corruption_rejected;
        Alcotest.test_case "previous version refused" `Quick
          test_old_version_refused;
        Alcotest.test_case "stale digest refused" `Quick
          test_stale_digest_refused;
        Alcotest.test_case "config conflict refused" `Quick
          test_config_conflict_refused;
        Alcotest.test_case "install and run from image" `Quick
          test_install_and_run_from_image;
        Alcotest.test_case "SMC invalidates AOT entry" `Quick
          test_smc_invalidates_aot_entry;
        Alcotest.test_case "forged register rejected" `Quick
          test_forged_register_rejected;
        Alcotest.test_case "verifier violation rejected at install" `Quick
          test_verifier_violation_rejected;
      ] );
    ( "aot-suite",
      [
        Alcotest.test_case "28-workload aot on/off differential" `Slow
          test_suite_aot_differential;
        Alcotest.test_case "compute workload >=90% from AOT" `Quick
          test_compute_workload_coverage;
      ] );
  ]
