(* Tests for the static code-discovery pass and the ahead-of-time
   translation images: classification of the statically-unresolvable
   (indirect control flow, write-reachable pages), overlapping decode
   starts, entry into the middle of a discovered region, image
   round-trip determinism and corruption rejection, stale-digest
   refusal, runtime SMC invalidation of installed AOT entries, forged
   entries refused for the same reason by an image install and a fleet
   store hit, the compile's page-protection mode kept at install, and
   the whole-suite AOT-on/AOT-off architectural differential. *)

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

let decode (k, e) = P.Tstore.decode ~entry:(P.Tstore.key_entry k) e

(* [img] with [f] applied to every entry's translation, each re-minted
   consistently (fresh blob MD5). *)
let map_trans f (img : P.Aot.t) =
  let store = P.Tstore.create () in
  List.iter
    (fun ((k, _) as b) ->
      ignore
        (P.Tstore.publish store ~key:k ~blob:(P.Tstore.blob (f (decode b)))
          : bool))
    (P.Tstore.bindings img.P.Aot.store);
  { img with P.Aot.store }

(* [code] with a write to a register outside the host register file. *)
let with_reg rd (code : Vliw.Code.t) =
  let mols = Array.copy code.Vliw.Code.molecules in
  mols.(0) <- Array.append mols.(0) [| Vliw.Atom.MovI { rd; imm = 1 } |];
  { code with Vliw.Code.molecules = mols }

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
  let forged =
    P.Aot.of_string
      (P.Aot.to_string
         (map_trans
            (fun t -> { t with P.Tstore.code = with_reg 99 t.P.Tstore.code })
            img))
  in
  let c = Cms.create ~cfg:Cms.Config.default () in
  Cms.load c listing;
  Cms.boot c ~entry:0x1000;
  let rep = P.Aot.install c forged in
  check Alcotest.int "nothing installed" 0 rep.P.Aot.installed;
  check Alcotest.int "every translation rejected"
    (P.Tstore.size img.P.Aot.store)
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

(* The counted loop, adding its 3 from memory: the load is what the
   early-read mutant reads too soon. *)
let memory_loop () =
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

(* An image entry whose code is well formed but reads a load's result
   before its latency has passed must be refused at install by the
   translator's own verifier, with a reason naming the rule; the
   dynamic tier then covers that entry and the run is still right. *)
let test_verifier_violation_rejected () =
  let listing = memory_loop () in
  let _, img = build_image ~listing () in
  let mutated = ref None in
  let img' =
    map_trans
      (fun t ->
        if !mutated <> None then t
        else
          match
            A.Mutate.apply ~cfg:img.P.Aot.cfg t.P.Tstore.code A.Mutate.Early_read
          with
          | None -> t
          | Some code ->
              mutated := Some t.P.Tstore.tentry;
              { t with P.Tstore.code })
      img
  in
  let bad_entry =
    match !mutated with
    | Some e -> e
    | None -> Alcotest.fail "early-read applies to no image entry"
  in
  let img' = P.Aot.of_string (P.Aot.to_string img') in
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

(* One rejection table for both consumers: each forgery of one entry is
   refused by a fleet store hit and by an AOT install, for the same
   reason, because both run the same walk. *)
let test_one_rejection_table () =
  let listing = memory_loop () in
  let _, img = build_image ~listing () in
  let cfg = Cms.Config.default in
  let bindings = P.Tstore.bindings img.P.Aot.store in
  let (k, e), t, early =
    match
      List.find_map
        (fun b ->
          let t = decode b in
          Option.map
            (fun code -> (b, t, code))
            (A.Mutate.apply ~cfg t.P.Tstore.code A.Mutate.Early_read))
        bindings
    with
    | Some found -> found
    | None -> Alcotest.fail "early-read applies to no image entry"
  in
  let entry = t.P.Tstore.tentry in
  let other =
    match List.find_opt (fun (k', _) -> k' <> k) bindings with
    | Some (_, e') -> e'
    | None -> Alcotest.fail "image holds a single entry"
  in
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x41));
    Bytes.to_string b
  in
  let fresh blob = { P.Tstore.blob; sum = Digest.string blob } in
  let remint t = fresh (P.Tstore.blob t) in
  let past_end =
    List.fold_left (fun m (_, hi) -> max m hi) 0 t.P.Tstore.src_ranges + 0x100
  in
  let forgeries =
    [
      ( "flipped blob byte, old MD5",
        { e with P.Tstore.blob = flip e.P.Tstore.blob 20 },
        "blob digest mismatch" );
      ("trailing bytes", fresh (e.P.Tstore.blob ^ "\000"), "trailing bytes");
      ("wrong entry", other, "blob is for entry");
      ( "changed source bytes",
        remint
          {
            t with
            P.Tstore.snapshot =
              Bytes.of_string (flip (Bytes.to_string t.P.Tstore.snapshot) 0);
          },
        "source bytes differ" );
      ( "undecodable source bytes",
        remint
          {
            t with
            P.Tstore.insns =
              (match t.P.Tstore.insns with
              | i :: rest -> { i with P.Tstore.addr = past_end } :: rest
              | [] -> []);
          },
        "undecodable source bytes" );
      ( "source ranges past the source bytes",
        remint
          {
            t with
            P.Tstore.src_ranges =
              List.map (fun (lo, hi) -> (lo, hi + 0x40)) t.P.Tstore.src_ranges;
            insns =
              t.P.Tstore.insns
              @ [
                  {
                    P.Tstore.addr = past_end - 0xf0;
                    len = 1;
                    follow = Cms.Region.FEnd;
                    loops = false;
                    imm32_addr = None;
                  };
                ];
          },
        "source ranges" );
      ( "inverted source range",
        remint
          {
            t with
            P.Tstore.src_ranges =
              List.map (fun (lo, hi) -> (hi, lo)) t.P.Tstore.src_ranges;
          },
        "source ranges" );
      ( "register out of range",
        remint { t with P.Tstore.code = with_reg 99 t.P.Tstore.code },
        "r99" );
      ( "negative register",
        remint { t with P.Tstore.code = with_reg (-1) t.P.Tstore.code },
        "r-1" );
      ("early read", remint { t with P.Tstore.code = early }, "latency");
    ]
  in
  let machine () =
    let c = Cms.create ~cfg () in
    Cms.load c listing;
    Cms.boot c ~entry:0x1000;
    c
  in
  (* a fleet consumer asking for [entry] with the image build's
     canonical inputs, against a store holding only [forged] *)
  let store_reason forged =
    let c = machine () in
    let mem = Cms.mem c and policy = Cms.Policy.default cfg in
    let region =
      Option.get
        (Cms.Region.select ~mem ~profile:(Cms.Profile.create ()) ~policy entry)
    in
    let bytes_ = Cms.Codegen.take_snapshot mem region in
    check Alcotest.string "consumer computes the image's key" k
      (P.Tstore.key ~entry ~bytes:bytes_ ~policy);
    let store = P.Tstore.create () in
    Hashtbl.replace store.P.Tstore.entries k forged;
    ignore (Cms_fleet.Share.attach c store : Cms_fleet.Share.t);
    (match
       (Option.get c.Cms.Engine.shared_source) ~entry ~region ~policy ~bytes_
     with
    | Some _ -> Alcotest.fail "store served a forged entry"
    | None -> ());
    match Hashtbl.find_opt store.P.Tstore.poisoned k with
    | Some why -> why
    | None -> Alcotest.fail "forged entry was not poisoned"
  in
  let aot_reason forged =
    let store = P.Tstore.create () in
    List.iter
      (fun (k', e') -> Hashtbl.replace store.P.Tstore.entries k' e')
      bindings;
    Hashtbl.replace store.P.Tstore.entries k forged;
    let rep = P.Aot.install (machine ()) { img with P.Aot.store } in
    check Alcotest.int "the others install" (List.length bindings - 1)
      rep.P.Aot.installed;
    match rep.P.Aot.rejected with
    | [ (e', why) ] ->
        check Alcotest.int "the forged entry is the one rejected" entry e';
        why
    | l -> Alcotest.failf "expected one rejection, got %d" (List.length l)
  in
  List.iter
    (fun (name, forged, expect) ->
      let s = store_reason forged and a = aot_reason forged in
      if not (contains s expect) then
        Alcotest.failf "%s: store reason %S does not say %S" name s expect;
      check Alcotest.string (name ^ ": same reason") s a)
    forgeries;
  (* policy drift is a store-hit check: the consumer's own policy *)
  let drift =
    remint
      {
        t with
        P.Tstore.policy =
          { t.P.Tstore.policy with
            Cms.Policy.max_insns = t.P.Tstore.policy.Cms.Policy.max_insns / 2 };
      }
  in
  let s = store_reason drift in
  if not (contains s "policy drift") then
    Alcotest.failf "policy drift: store reason %S" s

(* An image built under [force_self_check] installs each entry with the
   page-protection mode its compile chose: guard-checked translations
   stay unprotected, as they are when compiled at run time. *)
let test_install_keeps_unprotected () =
  let cfg = { Cms.Config.default with Cms.Config.force_self_check = true } in
  let w = Option.get (Workloads.Catalog.find "026.compress (Linux)") in
  let img =
    A.Aotgen.warm_image (P.Trial.of_suite w) ~cfg ~label:w.Suite.name
      ~entry:w.Suite.entry
  in
  let c = Suite.prepare ~cfg w in
  let rep = P.Aot.install c img in
  check Alcotest.int "every entry installed" (P.Tstore.size img.P.Aot.store)
    rep.P.Aot.installed;
  let unprotected =
    List.fold_left
      (fun n (k, _) ->
        let entry = P.Tstore.key_entry k in
        let tr = Option.get (Cms.Tcache.lookup c.Cms.Engine.tcache entry) in
        let compiled =
          Cms.Codegen.compile_presnapped ~cfg ~policy:tr.Cms.Tcache.policy
            ~bytes:(Cms.Codegen.take_snapshot (Cms.mem c) tr.Cms.Tcache.region)
            tr.Cms.Tcache.region
        in
        check Alcotest.bool
          (Fmt.str "%#x installed as compiled" entry)
          compiled.Cms.Codegen.unprotected tr.Cms.Tcache.unprotected;
        if tr.Cms.Tcache.unprotected then n + 1 else n)
      0
      (P.Tstore.bindings img.P.Aot.store)
  in
  check Alcotest.bool "some entry is guard-checked" true (unprotected > 0)

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

(* Boot [w] from its warm image (built from a pristine machine and
   round-tripped through the codec) and run it to completion. *)
let run_warm ?(cfg = Cms.Config.default) (w : Suite.t) =
  let s = P.Trial.of_suite w in
  let img =
    A.Aotgen.warm_image s ~cfg ~label:w.Suite.name ~entry:w.Suite.entry
  in
  let _, o, c = P.Trial.execute_aot s ~cfg img in
  (o, c)

(* Every workload through the shared AOT differential: both runs
   self-check, then the whole architectural digest must match, or the
   clock-free state (no memory digest or bus counters) for timer-driven
   workloads. *)
let test_suite_aot_differential () =
  List.iter
    (fun (w : Suite.t) ->
      let cfg = Cms.Config.default in
      match P.Trial.check_aot w ~cfg (fst (run_warm ~cfg w)) with
      | _, Ok () -> ()
      | _, Error e -> Alcotest.failf "%s: %s" w.Suite.name e)
    (Workloads.Catalog.all ())

let test_compute_workload_coverage () =
  let w = Option.get (Workloads.Catalog.find "026.compress (Linux)") in
  let o, t = run_warm w in
  (match P.Trial.suite_check w o with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
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
        Alcotest.test_case "one rejection table for store and image" `Quick
          test_one_rejection_table;
        Alcotest.test_case "install keeps the compile's unprotected flag"
          `Quick test_install_keeps_unprotected;
      ] );
    ( "aot-suite",
      [
        Alcotest.test_case "28-workload aot on/off differential" `Slow
          test_suite_aot_differential;
        Alcotest.test_case "compute workload >=90% from AOT" `Quick
          test_compute_workload_coverage;
      ] );
  ]
