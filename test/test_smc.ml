(* Tests for the adaptive machinery: self-modifying code (page /
   fine-grain protection, self-revalidation, stylized immediates,
   translation groups, DMA invalidation), memory-mapped I/O
   speculation recovery, alias-violation recovery, and store-buffer
   overflow adaptation.  Each asserts both *correct results* and that
   the intended mechanism actually fired (via the stats counters). *)

open X86

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let hot_cfg =
  { Cms.Config.default with Cms.Config.translate_threshold = 3 }

let run ?(cfg = hot_cfg) ?max_insns prog ~entry =
  Cms.run_listing ~cfg ?max_insns prog ~entry

(* ------------------------------------------------------------------ *)
(* Doom/Quake-style stylized SMC: patch an immediate, rerun the loop   *)
(* ------------------------------------------------------------------ *)

(* eax += IMM, 50 times per outer iteration; outer patches IMM = 1..8.
   Expected eax = 50 * (1+2+..+8) = 1800.  Two-pass assembly with the
   SAME item list so the layout (and thus the immediate field address)
   is identical between passes. *)
let smc_imm_items imm_addr =
  let open Asm in
  [
    mov_ri eax 0;
    mov_ri esi 1;
    label "outer";
    mov_mr (m imm_addr) esi;
    mov_ri ecx 50;
    label "inner";
    label "patch_me";
    add_ri eax 0x0;
    dec_r ecx;
    jne "inner";
    inc_r esi;
    cmp_ri esi 9;
    jne "outer";
    hlt;
  ]

let smc_imm_prog_fixed () =
  let open Asm in
  let l = assemble ~base:0x10000 (smc_imm_items 0) in
  let patch_addr = label_addr l "patch_me" in
  let info =
    List.find (fun (i : insn_info) -> i.addr = patch_addr) l.insns
  in
  assemble ~base:0x10000 (smc_imm_items (Option.get info.imm32_addr))

let test_stylized_smc () =
  let prog = smc_imm_prog_fixed () in
  let t, _ = run prog ~entry:0x10000 in
  check ci "sum" 1800 (Cms.gpr t Regs.eax);
  let s = Cms.stats t in
  check cb "smc invalidations happened" true (s.Cms.Stats.invalidations > 0)

let test_stylized_smc_disabled () =
  (* without stylized support it must still be correct, just slower *)
  let cfg = { hot_cfg with Cms.Config.enable_stylized = false } in
  let prog = smc_imm_prog_fixed () in
  let t, _ = run ~cfg prog ~entry:0x10000 in
  check ci "sum" 1800 (Cms.gpr t Regs.eax)

let test_stylized_reduces_invalidations () =
  let prog = smc_imm_prog_fixed () in
  let t_with, _ = run prog ~entry:0x10000 in
  let t_without, _ =
    run
      ~cfg:
        {
          hot_cfg with
          Cms.Config.enable_stylized = false;
          Cms.Config.enable_groups = false;
          Cms.Config.enable_self_check = false;
        }
      prog ~entry:0x10000
  in
  check ci "same result" (Cms.gpr t_without Regs.eax) (Cms.gpr t_with Regs.eax);
  let i_with = (Cms.stats t_with).Cms.Stats.invalidations
  and i_without = (Cms.stats t_without).Cms.Stats.invalidations in
  check cb
    (Fmt.str "fewer invalidations with stylized (%d vs %d)" i_with i_without)
    true (i_with <= i_without)

(* ------------------------------------------------------------------ *)
(* Mixed code and data on one page: fine-grain protection (§3.6.1)     *)
(* ------------------------------------------------------------------ *)

(* Hot loop whose counter lives on the same page as the code, but in a
   different 64-byte chunk.  Two-pass: assemble once to learn the
   counter's address, then again with it folded in. *)
let mixed_page_items counter =
  let open Asm in
  [
    jmp "code";
    align 64;
    label "counter";
    dd [ 0 ];
    align 64;
    label "code";
    mov_ri ecx 2000;
    mov_ri eax 0;
    label "loop";
    inc_m (m counter);
    add_ri eax 1;
    dec_r ecx;
    jne "loop";
    hlt;
  ]

let mixed_page_prog_fixed () =
  let open Asm in
  let l = assemble ~base:0x10000 (mixed_page_items 0) in
  assemble ~base:0x10000 (mixed_page_items (label_addr l "counter"))

let test_fine_grain_filters_faults () =
  let prog = mixed_page_prog_fixed () in
  let t_fg, _ = run prog ~entry:0x10000 in
  let t_nofg, _ =
    run ~cfg:{ hot_cfg with Cms.Config.enable_fine_grain = false } prog
      ~entry:0x10000
  in
  (* both correct *)
  check ci "fg result" 2000 (Cms.gpr t_fg Regs.eax);
  check ci "nofg result" 2000 (Cms.gpr t_nofg Regs.eax);
  check ci "counter fg" 2000
    (Cms.read_mem t_fg ~size:4
       (Asm.label_addr (mixed_page_prog_fixed ()) "counter"));
  (* fine grain takes orders of magnitude fewer protection faults *)
  let f_fg = (Cms.mem t_fg).Machine.Mem.smc_events
  and f_nofg = (Cms.mem t_nofg).Machine.Mem.smc_events in
  check cb
    (Fmt.str "fault ratio (%d vs %d)" f_fg f_nofg)
    true
    (f_nofg > 10 * max 1 f_fg);
  (* and costs fewer molecules per instruction *)
  check cb "fg is faster" true (Cms.mpi t_fg < Cms.mpi t_nofg)

(* ------------------------------------------------------------------ *)
(* Self-revalidation: data in the same chunk as code (§3.6.2)          *)
(* ------------------------------------------------------------------ *)

let same_chunk_items counter =
  let open Asm in
  [
    jmp "code";
    label "counter";
    dd [ 0 ];
    (* counter immediately followed by hot code: same 64B chunk *)
    label "code";
    mov_ri ecx 1500;
    mov_ri eax 0;
    label "loop";
    inc_m (m counter);
    add_ri eax 1;
    dec_r ecx;
    jne "loop";
    hlt;
  ]

let same_chunk_prog () =
  let open Asm in
  let l = assemble ~base:0x10000 (same_chunk_items 0) in
  assemble ~base:0x10000 (same_chunk_items (label_addr l "counter"))

let test_self_revalidation () =
  let prog = same_chunk_prog () in
  let t, _ = run prog ~entry:0x10000 in
  check ci "result" 1500 (Cms.gpr t Regs.eax);
  let s = Cms.stats t in
  check cb "revalidation used" true (s.Cms.Stats.reval_checks > 0);
  check cb "revalidations succeed" true
    (s.Cms.Stats.reval_hits = s.Cms.Stats.reval_checks);
  (* and it pays: disabling self-reval must not be faster *)
  let t2, _ =
    run ~cfg:{ hot_cfg with Cms.Config.enable_self_reval = false } prog
      ~entry:0x10000
  in
  check ci "result without reval" 1500 (Cms.gpr t2 Regs.eax)

(* ------------------------------------------------------------------ *)
(* Translation groups: multi-version SMC (§3.6.5)                      *)
(* ------------------------------------------------------------------ *)

(* The "BLT driver" pattern: one function whose immediate alternates
   between two recurring versions; each version should be reusable from
   the translation group instead of retranslating. *)
let groups_items imm_addr =
  let open Asm in
  [
    label "start";
    mov_ri eax 0;
    mov_ri esi 0;
    label "outer";
    mov_rr edx esi;
    and_ri edx 1;
    inc_r edx;
    mov_mr (m imm_addr) edx; (* patch fn's immediate to 1 or 2 *)
    mov_ri ecx 100;
    label "inner";
    call "fn";
    dec_r ecx;
    jne "inner";
    inc_r esi;
    cmp_ri esi 10;
    jne "outer";
    hlt;
    align 16;
    label "fn";
    label "patch_insn";
    add_ri eax 0x1;
    ret;
  ]

let groups_prog () =
  let open Asm in
  let l = assemble ~base:0x10000 (groups_items 0) in
  let patch_addr = label_addr l "patch_insn" in
  let info =
    List.find (fun (i : insn_info) -> i.addr = patch_addr) l.insns
  in
  assemble ~base:0x10000 (groups_items (Option.get info.imm32_addr))

let test_translation_groups () =
  let prog = groups_prog () in
  (* 10 outer iterations: odd esi -> imm 2 (5 times), even -> imm 1
     (5 times)... esi runs 0..9: edx = (esi&1)+1: five 1s, five 2s.
     eax = 100 * (5*1 + 5*2) = 1500 *)
  let t, _ = run prog ~entry:0x10000 in
  check ci "result" 1500 (Cms.gpr t Regs.eax);
  (* disable groups: same result *)
  let t2, _ =
    run ~cfg:{ hot_cfg with Cms.Config.enable_groups = false } prog
      ~entry:0x10000
  in
  check ci "result sans groups" 1500 (Cms.gpr t2 Regs.eax)

(* ------------------------------------------------------------------ *)
(* DMA invalidation                                                    *)
(* ------------------------------------------------------------------ *)

let test_dma_invalidation () =
  let payload =
    X86.Asm.assemble ~base:0x40000
      [ X86.Asm.mov_ri X86.Asm.eax 0x77; X86.Asm.I X86.Insn.Hlt ]
  in
  let image = Bytes.make 4096 '\x00' in
  Bytes.blit payload.X86.Asm.image 0 image 0
    (Bytes.length payload.X86.Asm.image);
  let open Asm in
  let prog =
    assemble ~base:0x10000
      [
        mov_ri ecx 30;
        label "warm";
        call "target_call";
        dec_r ecx;
        jne "warm";
        mov_ri edx Machine.Platform.disk_base;
        mov_ri eax 0;
        I (Insn.Out (Insn.S32, Insn.PortDx));
        mov_ri edx (Machine.Platform.disk_base + 1);
        mov_ri eax 0x40000;
        I (Insn.Out (Insn.S32, Insn.PortDx));
        mov_ri edx (Machine.Platform.disk_base + 2);
        mov_ri eax 1;
        I (Insn.Out (Insn.S32, Insn.PortDx));
        mov_ri edx (Machine.Platform.disk_base + 3);
        mov_ri eax 1;
        I (Insn.Out (Insn.S32, Insn.PortDx));
        label "wait";
        mov_ri edx (Machine.Platform.disk_base + 3);
        I (Insn.In (Insn.S32, Insn.PortDx));
        test_ri eax 1;
        jne "wait";
        jmp_abs 0x40000;
        label "target_call";
        jmp_abs 0x40000;
      ]
  in
  (* initial stub at 0x40000: mov eax,0x11; ret *)
  let stub = assemble ~base:0x40000 [ mov_ri eax 0x11; ret ] in
  let t = Cms.create ~cfg:hot_cfg ~disk_image:image () in
  Cms.load t prog;
  Cms.load t stub;
  Cms.boot t ~entry:0x10000;
  let _ = Cms.run ~max_insns:1_000_000 t in
  check ci "new code ran after DMA" 0x77 (Cms.gpr t Regs.eax)

(* ------------------------------------------------------------------ *)
(* MMIO speculation and recovery (§3.4)                                *)
(* ------------------------------------------------------------------ *)

let test_mmio_known_insn () =
  (* a hot loop that writes the framebuffer: the interpreter profiles
     the MMIO instruction, so the translation carves it out *)
  let open Asm in
  let prog =
    assemble ~base:0x10000
      [
        mov_ri edi Machine.Platform.fb_base;
        mov_ri ecx 500;
        mov_ri eax 0;
        label "loop";
        mov_mr (mb edi) eax; (* MMIO store *)
        add_rm eax (mb edi); (* MMIO load back *)
        add_ri edi 4;
        dec_r ecx;
        jne "loop";
        hlt;
      ]
  in
  let t, _ = run prog ~entry:0x10000 in
  (* eax = sum of fibonacci-ish accumulation; just check against
     interpreter-only reference *)
  let t2, _ = run ~cfg:Cms.interp_only_cfg prog ~entry:0x10000 in
  check ci "matches interp" (Cms.gpr t2 Regs.eax) (Cms.gpr t Regs.eax);
  check cb "fb written" true
    ((Cms.platform t).Machine.Platform.fb.Machine.Framebuf.writes > 0)

let test_mmio_spec_fault_recovery () =
  (* an address-sliding loop: profiled on RAM, later slides into the
     framebuffer window — speculative accesses then fault and CMS
     adapts *)
  let open Asm in
  let prog =
    assemble ~base:0x10000
      [
        mov_ri edi (Machine.Platform.fb_base - 512);
        mov_ri ecx 256;
        mov_ri eax 0;
        label "loop";
        mov_mr (mb edi) ecx; (* store (forces a st->ld pair) *)
        add_rm eax (mb edi); (* load, reordering candidate *)
        add_ri edi 4;
        dec_r ecx;
        jne "loop";
        hlt;
      ]
  in
  let t, _ = run prog ~entry:0x10000 in
  let t2, _ = run ~cfg:Cms.interp_only_cfg prog ~entry:0x10000 in
  check ci "matches interp" (Cms.gpr t2 Regs.eax) (Cms.gpr t Regs.eax)

(* ------------------------------------------------------------------ *)
(* Store buffer overflow + alias recovery                               *)
(* ------------------------------------------------------------------ *)

let test_sbuf_overflow_adapts () =
  (* straight-line code with ~100 stores exceeds the 64-entry gated
     store buffer; CMS must retranslate with smaller regions *)
  let open Asm in
  let body =
    List.concat_map
      (fun i -> [ mov_mi (m (0x20000 + (4 * i))) i ])
      (List.init 100 (fun i -> i))
  in
  let prog =
    assemble ~base:0x10000
      ([ mov_ri edx 20; label "loop" ] @ body
      @ [ dec_r edx; jne "loop"; mov_rm eax (m 0x2018c); hlt ])
  in
  let t, _ = run prog ~entry:0x10000 in
  check ci "last store visible" 99 (Cms.gpr t Regs.eax);
  check ci "first store" 0 (Cms.read_mem t ~size:4 0x20000)

let test_alias_recovery () =
  (* store through esi, load through edi, same address: the reordered
     load keeps faulting on the alias hardware until CMS retranslates *)
  let open Asm in
  let prog =
    assemble ~base:0x10000
      [
        mov_ri esi 0x20000;
        mov_ri edi 0x20000;
        mov_ri ecx 500;
        mov_ri eax 0;
        label "loop";
        mov_mr (mb esi) ecx;
        add_rm eax (mb edi);
        dec_r ecx;
        jne "loop";
        hlt;
      ]
  in
  let t, _ = run prog ~entry:0x10000 in
  (* eax = sum 500..1 = 125250 *)
  check ci "sum" 125250 (Cms.gpr t Regs.eax)

(* ------------------------------------------------------------------ *)
(* Chaining                                                            *)
(* ------------------------------------------------------------------ *)

let test_chaining () =
  let open Asm in
  (* calls end translation regions, so the call sites chain to the
     callee translations and the fallthrough chains back *)
  let prog =
    assemble ~base:0x10000
      [
        mov_ri eax 0;
        mov_ri ecx 300;
        label "loop";
        call "f1";
        call "f2";
        dec_r ecx;
        jne "loop";
        hlt;
        align 16;
        label "f1";
        add_ri eax 1;
        ret;
        align 16;
        label "f2";
        add_ri eax 2;
        ret;
      ]
  in
  let t, _ = run prog ~entry:0x10000 in
  check ci "result" 900 (Cms.gpr t Regs.eax);
  check cb "chains were patched" true
    ((Cms.stats t).Cms.Stats.chain_patches > 0)

(* ------------------------------------------------------------------ *)
(* Translation groups for every translation: Quake Demo2               *)
(* ------------------------------------------------------------------ *)

(* Quake's patched inner loops flip between versions; every SMC
   invalidation parks its translation, so most of the flips reactivate
   a parked member instead of retranslating.  Reuse must not move what
   the guest sees: retired count and arch digest stay the golden row's.
   Without groups every flip retranslates, as before groups covered
   every translation. *)
let test_quake_reuse () =
  let w =
    List.find
      (fun (w : Workloads.Suite.t) -> w.Workloads.Suite.name = "Quake Demo2 (DOS)")
      (Workloads.Catalog.all ())
  in
  let _, retired, _, arch =
    List.find (fun (n, _, _, _) -> n = w.Workloads.Suite.name) Test_golden.golden
  in
  let c = Workloads.Suite.run w in
  let s = Cms.stats c in
  check cb "at most 150 translations" true (s.Cms.Stats.translations <= 150);
  check cb "at least 340 group hits" true (s.Cms.Stats.group_hits >= 340);
  check ci "retired" retired (Cms.retired c);
  check Alcotest.string "arch digest" arch
    Cms_persist.Digests.(arch_hex (arch c));
  Cms.release c;
  let c =
    Workloads.Suite.run
      ~cfg:{ Cms.Config.default with Cms.Config.enable_groups = false }
      w
  in
  check ci "translations without groups" 498
    (Cms.stats c).Cms.Stats.translations;
  check ci "no group hits without groups" 0 (Cms.stats c).Cms.Stats.group_hits;
  Cms.release c

(* A member parks only under its entry's current policy: the SMC
   escalations upgrade the policy and then invalidate, and policies only
   ratchet, so a member minted under the old one could never be
   reactivated and would only hold tcache capacity.  Quake Demo2, the
   BLT driver and Windows 98 Boot each hit that path. *)
let test_parked_keep_policy () =
  List.iter
    (fun name ->
      let c = Workloads.Suite.run (Option.get (Workloads.Catalog.find name)) in
      let tc = c.Cms.Engine.tcache in
      let parked, stale =
        Hashtbl.fold
          (fun _ (tr : Cms.Tcache.trans) (p, s) ->
            if tr.Cms.Tcache.valid then (p, s)
            else
              ( p + 1,
                if
                  Cms.Policy.equal tr.Cms.Tcache.policy
                    (Cms.Adapt.peek c.Cms.Engine.adapt tr.Cms.Tcache.entry)
                then s
                else s + 1 ))
          tc.Cms.Tcache.by_id (0, 0)
      in
      check cb (name ^ ": invalidated") true
        ((Cms.stats c).Cms.Stats.invalidations > 0);
      check ci
        (Fmt.str "%s: parked under a left policy (of %d parked)" name parked)
        0 stale;
      Cms.release c)
    [ "Quake Demo2 (DOS)"; "BLT driver (8 versions)"; "Windows 98 Boot" ]

let suites =
  [
    ( "smc.groups",
      [
        Alcotest.test_case "quake flips reuse parked translations" `Quick
          test_quake_reuse;
        Alcotest.test_case "members park under the current policy" `Quick
          test_parked_keep_policy;
      ] );
    ( "smc.stylized",
      [
        Alcotest.test_case "patched immediates correct" `Quick test_stylized_smc;
        Alcotest.test_case "correct without stylized" `Quick
          test_stylized_smc_disabled;
        Alcotest.test_case "stylized reduces invalidations" `Quick
          test_stylized_reduces_invalidations;
      ] );
    ( "smc.protection",
      [
        Alcotest.test_case "fine-grain filters faults" `Quick
          test_fine_grain_filters_faults;
        Alcotest.test_case "self-revalidation" `Quick test_self_revalidation;
        Alcotest.test_case "translation groups" `Quick test_translation_groups;
        Alcotest.test_case "dma invalidation" `Quick test_dma_invalidation;
      ] );
    ( "smc.mmio",
      [
        Alcotest.test_case "known mmio insn" `Quick test_mmio_known_insn;
        Alcotest.test_case "spec fault recovery" `Quick
          test_mmio_spec_fault_recovery;
      ] );
    ( "smc.limits",
      [
        Alcotest.test_case "store buffer overflow" `Quick
          test_sbuf_overflow_adapts;
        Alcotest.test_case "alias recovery" `Quick test_alias_recovery;
        Alcotest.test_case "chaining" `Quick test_chaining;
      ] );
  ]
