(** Ahead-of-time translation images.

    A persistent container (kind ["AOTC"]) holding the output of the
    static discovery + pre-translation pass: per-entry scheduled native
    code, the policy and region shape it was minted under, the exact
    source bytes it translates, and an MD5 digest of every code page it
    depends on.  The digests key the image to the workload: installing
    against memory whose code pages differ raises {!Stale} with the
    precise pages at fault — a stale image is refused, never trusted.

    Install is copy-on-validate: each entry's recorded source bytes are
    re-read from the target machine and its instructions re-decoded,
    and its code must pass {!Vliw.Code.validate} and the translator's
    own acceptance check ({!Cms.Codegen.check_code}); any divergence or
    verifier violation rejects that entry (counted in
    [Stats.aot_rejected]) and the dynamic tier covers it.  Installed
    entries live in the tcache as ordinary translations — SMC
    invalidation and eviction treat them exactly like dynamic ones.

    The guest instructions themselves are *not* serialized: they are
    re-decoded from the digest-validated source bytes at install, so the
    image format cannot smuggle in an instruction stream that disagrees
    with memory. *)

exception Stale of string
(** the image does not match the current machine (code-page digest or
    config mismatch); the diagnostic lists exactly what differs *)

let stale fmt = Format.kasprintf (fun s -> raise (Stale s)) fmt

let kind = "AOTC"

(* version 2: the embedded Config grew closure_exec/chain_exits.
   version 3: Config grew the background-translator knob and queue bound.
   version 4: Config lost them again (background translator removed).
   version 5: Config lost closure_exec, chain_exits, validate_molecules
   and enforce_latency (decoder tier removed).
   version 6: Config lost the verifier knob (the verifier runs on
   every translation, and on every entry at install). *)
let version = 6

(* ------------------------------------------------------------------ *)
(* Image model                                                         *)
(* ------------------------------------------------------------------ *)

type meta = {
  label : string;  (** workload name the image was built for *)
  entry : int;
  leaders : int;  (** discovered region entry points *)
  insn_count : int;  (** distinct decoded instruction starts *)
  bytes_static : int;
  bytes_deferred : int;
  deferred : (int * string) list;  (** dynamic-only sites: addr, reason *)
  demoted_verify : int;  (** regions the verifier refused to ship *)
  demoted_select : int;  (** leaders with no translatable region *)
  blind_stores : int;
  truncated : bool;
}

(* The region shape, minus the instructions (re-decoded at install). *)
type insn_wire = {
  addr : int;
  len : int;
  follow : int;  (** 0 = FNext, 1 = FTarget, 2 = FEnd *)
  loops : bool;
  imm32_addr : int option;
}

type tran = {
  tentry : int;
  policy : Cms.Policy.t;
  cont : int option;
  src_ranges : (int * int) list;
  insns : insn_wire list;
  snapshot : Bytes.t;  (** source bytes at build time, in range order *)
  code : Vliw.Code.t;
}

type t = {
  meta : meta;
  cfg : Cms.Config.t;  (** full build config (compat-checked at install) *)
  pages : (int * string) list;  (** (ppn, MD5 of the page's bytes) *)
  trans : tran list;
}

(* ------------------------------------------------------------------ *)
(* Atom / code codec                                                   *)
(* ------------------------------------------------------------------ *)

module A = Vliw.Atom

let w_src b = function
  | A.R r ->
      Codec.w_int b 0;
      Codec.w_int b r
  | A.I i ->
      Codec.w_int b 1;
      Codec.w_int b i

let r_src r =
  match Codec.r_int r with
  | 0 -> A.R (Codec.r_int r)
  | 1 -> A.I (Codec.r_int r)
  | t -> Codec.corrupt "aot: bad src tag %d" t

let host_ops =
  [| A.HAdd; A.HSub; A.HAnd; A.HOr; A.HXor; A.HShl; A.HShr; A.HSar; A.HMul |]

let xops =
  [|
    A.XAdd; A.XAdc; A.XSub; A.XSbb; A.XAnd; A.XOr; A.XXor; A.XShl; A.XShr;
    A.XSar; A.XRol; A.XRor; A.XInc; A.XDec; A.XNeg; A.XNot; A.XTest; A.XCmp;
  |]

let cmps = [| A.Ceq; A.Cne; A.Cult; A.Cule; A.Cslt; A.Csle |]

let index_of what a arr =
  let rec go i =
    if i >= Array.length arr then
      invalid_arg (Printf.sprintf "Aot: unknown %s" what)
    else if arr.(i) = a then i
    else go (i + 1)
  in
  go 0

let of_index what r arr =
  let i = Codec.r_int r in
  if i < 0 || i >= Array.length arr then Codec.corrupt "aot: bad %s tag %d" what i
  else arr.(i)

let w_size b (s : X86.Flags.size) =
  Codec.w_bool b (match s with X86.Flags.S32 -> true | S8 -> false)

let r_size r : X86.Flags.size =
  if Codec.r_bool r then X86.Flags.S32 else X86.Flags.S8

let w_cond b c = Codec.w_int b (X86.Cond.to_code c)

let r_cond r =
  let c = Codec.r_int r in
  if c < 0 || c > 0xf then Codec.corrupt "aot: bad condition code %d" c
  else X86.Cond.of_code c

let w_atom b (a : A.t) =
  let tag n = Codec.w_int b n in
  match a with
  | A.Nop -> tag 0
  | A.MovI { rd; imm } ->
      tag 1;
      Codec.w_int b rd;
      Codec.w_int b imm
  | A.MovR { rd; rs } ->
      tag 2;
      Codec.w_int b rd;
      Codec.w_int b rs
  | A.Alu { op; rd; a; b = src } ->
      tag 3;
      Codec.w_int b (index_of "host op" op host_ops);
      Codec.w_int b rd;
      Codec.w_int b a;
      w_src b src
  | A.AluX { op; size; rd; a; b = src; fr; fw } ->
      tag 4;
      Codec.w_int b (index_of "xop" op xops);
      w_size b size;
      Codec.w_opt b Codec.w_int rd;
      w_src b a;
      w_src b src;
      Codec.w_int b fr;
      Codec.w_int b fw
  | A.MulX { signed; size; rd_lo; rd_hi; a; b = src; fr; fw } ->
      tag 5;
      Codec.w_bool b signed;
      w_size b size;
      Codec.w_int b rd_lo;
      Codec.w_opt b Codec.w_int rd_hi;
      w_src b a;
      w_src b src;
      Codec.w_int b fr;
      Codec.w_int b fw
  | A.DivX { signed; size; rd_q; rd_r; hi; lo; divisor } ->
      tag 6;
      Codec.w_bool b signed;
      w_size b size;
      Codec.w_int b rd_q;
      Codec.w_int b rd_r;
      Codec.w_int b hi;
      Codec.w_int b lo;
      w_src b divisor
  | A.SetCond { rd; cond; fr } ->
      tag 7;
      Codec.w_int b rd;
      w_cond b cond;
      Codec.w_int b fr
  | A.ExtField { rd; rs; shift; width; sign } ->
      tag 8;
      Codec.w_int b rd;
      Codec.w_int b rs;
      Codec.w_int b shift;
      Codec.w_int b width;
      Codec.w_bool b sign
  | A.InsField { rd; rs; shift; width } ->
      tag 9;
      Codec.w_int b rd;
      Codec.w_int b rs;
      Codec.w_int b shift;
      Codec.w_int b width
  | A.Load { rd; base; disp; size; spec; protect; check } ->
      tag 10;
      Codec.w_int b rd;
      Codec.w_int b base;
      Codec.w_int b disp;
      Codec.w_int b size;
      Codec.w_bool b spec;
      Codec.w_opt b Codec.w_int protect;
      Codec.w_int b check
  | A.Store { rs; base; disp; size; spec; check } ->
      tag 11;
      w_src b rs;
      Codec.w_int b base;
      Codec.w_int b disp;
      Codec.w_int b size;
      Codec.w_bool b spec;
      Codec.w_int b check
  | A.Br { target } ->
      tag 12;
      Codec.w_int b target
  | A.BrCond { cond; fr; target } ->
      tag 13;
      w_cond b cond;
      Codec.w_int b fr;
      Codec.w_int b target
  | A.BrCmp { cmp; a; b = src; target } ->
      tag 14;
      Codec.w_int b (index_of "cmp" cmp cmps);
      Codec.w_int b a;
      w_src b src;
      Codec.w_int b target
  | A.ArmRange { slot; base; disp; len } ->
      tag 15;
      Codec.w_int b slot;
      Codec.w_int b base;
      Codec.w_int b disp;
      Codec.w_int b len
  | A.Commit n ->
      tag 16;
      Codec.w_int b n
  | A.Exit i ->
      tag 17;
      Codec.w_int b i

let r_atom r : A.t =
  match Codec.r_int r with
  | 0 -> A.Nop
  | 1 ->
      let rd = Codec.r_int r in
      let imm = Codec.r_int r in
      A.MovI { rd; imm }
  | 2 ->
      let rd = Codec.r_int r in
      let rs = Codec.r_int r in
      A.MovR { rd; rs }
  | 3 ->
      let op = of_index "host op" r host_ops in
      let rd = Codec.r_int r in
      let a = Codec.r_int r in
      let b = r_src r in
      A.Alu { op; rd; a; b }
  | 4 ->
      let op = of_index "xop" r xops in
      let size = r_size r in
      let rd = Codec.r_opt r Codec.r_int in
      let a = r_src r in
      let b = r_src r in
      let fr = Codec.r_int r in
      let fw = Codec.r_int r in
      A.AluX { op; size; rd; a; b; fr; fw }
  | 5 ->
      let signed = Codec.r_bool r in
      let size = r_size r in
      let rd_lo = Codec.r_int r in
      let rd_hi = Codec.r_opt r Codec.r_int in
      let a = r_src r in
      let b = r_src r in
      let fr = Codec.r_int r in
      let fw = Codec.r_int r in
      A.MulX { signed; size; rd_lo; rd_hi; a; b; fr; fw }
  | 6 ->
      let signed = Codec.r_bool r in
      let size = r_size r in
      let rd_q = Codec.r_int r in
      let rd_r = Codec.r_int r in
      let hi = Codec.r_int r in
      let lo = Codec.r_int r in
      let divisor = r_src r in
      A.DivX { signed; size; rd_q; rd_r; hi; lo; divisor }
  | 7 ->
      let rd = Codec.r_int r in
      let cond = r_cond r in
      let fr = Codec.r_int r in
      A.SetCond { rd; cond; fr }
  | 8 ->
      let rd = Codec.r_int r in
      let rs = Codec.r_int r in
      let shift = Codec.r_int r in
      let width = Codec.r_int r in
      let sign = Codec.r_bool r in
      A.ExtField { rd; rs; shift; width; sign }
  | 9 ->
      let rd = Codec.r_int r in
      let rs = Codec.r_int r in
      let shift = Codec.r_int r in
      let width = Codec.r_int r in
      A.InsField { rd; rs; shift; width }
  | 10 ->
      let rd = Codec.r_int r in
      let base = Codec.r_int r in
      let disp = Codec.r_int r in
      let size = Codec.r_int r in
      let spec = Codec.r_bool r in
      let protect = Codec.r_opt r Codec.r_int in
      let check = Codec.r_int r in
      A.Load { rd; base; disp; size; spec; protect; check }
  | 11 ->
      let rs = r_src r in
      let base = Codec.r_int r in
      let disp = Codec.r_int r in
      let size = Codec.r_int r in
      let spec = Codec.r_bool r in
      let check = Codec.r_int r in
      A.Store { rs; base; disp; size; spec; check }
  | 12 -> A.Br { target = Codec.r_int r }
  | 13 ->
      let cond = r_cond r in
      let fr = Codec.r_int r in
      let target = Codec.r_int r in
      A.BrCond { cond; fr; target }
  | 14 ->
      let cmp = of_index "cmp" r cmps in
      let a = Codec.r_int r in
      let b = r_src r in
      let target = Codec.r_int r in
      A.BrCmp { cmp; a; b; target }
  | 15 ->
      let slot = Codec.r_int r in
      let base = Codec.r_int r in
      let disp = Codec.r_int r in
      let len = Codec.r_int r in
      A.ArmRange { slot; base; disp; len }
  | 16 -> A.Commit (Codec.r_int r)
  | 17 -> A.Exit (Codec.r_int r)
  | t -> Codec.corrupt "aot: unknown atom tag %d" t

let w_exit b (e : Vliw.Code.exit) =
  (match e.Vliw.Code.target with
  | Vliw.Code.Const c ->
      Codec.w_int b 0;
      Codec.w_int b c
  | Vliw.Code.FromReg r ->
      Codec.w_int b 1;
      Codec.w_int b r);
  Codec.w_int b
    (match e.Vliw.Code.kind with
    | Vliw.Code.Enext -> 0
    | Vliw.Code.Einterp_one -> 1
    | Vliw.Code.Eselfcheck_fail -> 2);
  Codec.w_int b e.Vliw.Code.x86_retired;
  (* chaining state is engine-local: normalize to the unchained /
     never-chain distinction so image bytes are deterministic *)
  Codec.w_bool b (e.Vliw.Code.chain = Vliw.Code.NoChain)

let r_exit r : Vliw.Code.exit =
  let target =
    match Codec.r_int r with
    | 0 -> Vliw.Code.Const (Codec.r_int r)
    | 1 -> Vliw.Code.FromReg (Codec.r_int r)
    | t -> Codec.corrupt "aot: bad exit target tag %d" t
  in
  let kind =
    match Codec.r_int r with
    | 0 -> Vliw.Code.Enext
    | 1 -> Vliw.Code.Einterp_one
    | 2 -> Vliw.Code.Eselfcheck_fail
    | t -> Codec.corrupt "aot: bad exit kind tag %d" t
  in
  let x86_retired = Codec.r_int r in
  let nochain = Codec.r_bool r in
  {
    Vliw.Code.target;
    kind;
    x86_retired;
    chain = (if nochain then Vliw.Code.NoChain else Vliw.Code.Unchained);
  }

let w_molecule b (m : Vliw.Molecule.t) =
  Codec.w_int b (Array.length m);
  Array.iter (w_atom b) m

let r_molecule r : Vliw.Molecule.t =
  let n = Codec.r_int r in
  if n < 0 || n > 64 then Codec.corrupt "aot: implausible molecule width %d" n
  else Array.init n (fun _ -> r_atom r)

let w_code b (c : Vliw.Code.t) =
  Codec.w_int b (Array.length c.Vliw.Code.molecules);
  Array.iter (w_molecule b) c.Vliw.Code.molecules;
  Codec.w_int b (Array.length c.Vliw.Code.exits);
  Array.iter (w_exit b) c.Vliw.Code.exits

let r_code r : Vliw.Code.t =
  let nm = Codec.r_int r in
  if nm < 0 || nm > 1_000_000 then
    Codec.corrupt "aot: implausible molecule count %d" nm;
  let molecules = Array.init nm (fun _ -> r_molecule r) in
  let nx = Codec.r_int r in
  if nx < 0 || nx > 1_000_000 then
    Codec.corrupt "aot: implausible exit count %d" nx;
  let exits = Array.init nx (fun _ -> r_exit r) in
  { Vliw.Code.molecules; exits }

(* ------------------------------------------------------------------ *)
(* Section codecs                                                      *)
(* ------------------------------------------------------------------ *)

let w_meta b (m : meta) =
  Codec.w_string b m.label;
  Codec.w_int b m.entry;
  Codec.w_int b m.leaders;
  Codec.w_int b m.insn_count;
  Codec.w_int b m.bytes_static;
  Codec.w_int b m.bytes_deferred;
  Codec.w_list b
    (fun b (a, why) ->
      Codec.w_int b a;
      Codec.w_string b why)
    m.deferred;
  Codec.w_int b m.demoted_verify;
  Codec.w_int b m.demoted_select;
  Codec.w_int b m.blind_stores;
  Codec.w_bool b m.truncated

let r_meta r : meta =
  let label = Codec.r_string r in
  let entry = Codec.r_int r in
  let leaders = Codec.r_int r in
  let insn_count = Codec.r_int r in
  let bytes_static = Codec.r_int r in
  let bytes_deferred = Codec.r_int r in
  let deferred =
    Codec.r_list r (fun r ->
        let a = Codec.r_int r in
        let why = Codec.r_string r in
        (a, why))
  in
  let demoted_verify = Codec.r_int r in
  let demoted_select = Codec.r_int r in
  let blind_stores = Codec.r_int r in
  let truncated = Codec.r_bool r in
  {
    label;
    entry;
    leaders;
    insn_count;
    bytes_static;
    bytes_deferred;
    deferred;
    demoted_verify;
    demoted_select;
    blind_stores;
    truncated;
  }

let w_insn_wire b (i : insn_wire) =
  Codec.w_int b i.addr;
  Codec.w_int b i.len;
  Codec.w_int b i.follow;
  Codec.w_bool b i.loops;
  Codec.w_opt b Codec.w_int i.imm32_addr

let r_insn_wire r : insn_wire =
  let addr = Codec.r_int r in
  let len = Codec.r_int r in
  let follow = Codec.r_int r in
  if follow < 0 || follow > 2 then
    Codec.corrupt "aot: bad follow tag %d" follow;
  let loops = Codec.r_bool r in
  let imm32_addr = Codec.r_opt r Codec.r_int in
  { addr; len; follow; loops; imm32_addr }

let w_tran b (t : tran) =
  Codec.w_int b t.tentry;
  Stable.w_policy b t.policy;
  Codec.w_opt b Codec.w_int t.cont;
  Codec.w_list b
    (fun b (lo, hi) ->
      Codec.w_int b lo;
      Codec.w_int b hi)
    t.src_ranges;
  Codec.w_list b w_insn_wire t.insns;
  Codec.w_bytes b t.snapshot;
  w_code b t.code

let r_tran r : tran =
  let tentry = Codec.r_int r in
  let policy = Stable.r_policy r in
  let cont = Codec.r_opt r Codec.r_int in
  let src_ranges =
    Codec.r_list r (fun r ->
        let lo = Codec.r_int r in
        let hi = Codec.r_int r in
        (lo, hi))
  in
  let insns = Codec.r_list r r_insn_wire in
  let snapshot = Codec.r_bytes r in
  let code = r_code r in
  { tentry; policy; cont; src_ranges; insns; snapshot; code }

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let to_string (img : t) =
  Codec.container ~kind ~version (fun sec ->
      sec "META" (fun b -> w_meta b img.meta);
      sec "CONF" (fun b -> Stable.w_config b img.cfg);
      sec "PAGE" (fun b ->
          Codec.w_list b
            (fun b (ppn, d) ->
              Codec.w_int b ppn;
              Codec.w_string b d)
            img.pages);
      sec "TRAN" (fun b -> Codec.w_list b w_tran img.trans))

let of_string data =
  let sections = Codec.read_container ~kind ~version data in
  let rd tag f =
    let r = Codec.reader ~ctx:("aot/" ^ tag) (Codec.section sections tag) in
    let v = f r in
    Codec.r_end r;
    v
  in
  let meta = rd "META" r_meta in
  let cfg = rd "CONF" Stable.r_config in
  let pages =
    rd "PAGE" (fun r ->
        Codec.r_list r (fun r ->
            let ppn = Codec.r_int r in
            let d = Codec.r_string r in
            if String.length d <> 16 then
              Codec.corrupt "aot: page %#x digest has %d bytes (want 16)" ppn
                (String.length d);
            (ppn, d)))
  in
  let trans = rd "TRAN" (fun r -> Codec.r_list r r_tran) in
  { meta; cfg; pages; trans }

let save path img = Codec.write_file path (to_string img)
let load path = of_string (Codec.read_file path)

(* ------------------------------------------------------------------ *)
(* Install (copy-on-validate)                                          *)
(* ------------------------------------------------------------------ *)

(* Config fields that change what code the translator emits; images are
   only compatible with an engine that agrees on all of them.  Runtime
   knobs (cost model, thresholds, capacities) are deliberately free. *)
let config_conflicts (a : Cms.Config.t) (b : Cms.Config.t) =
  let open Cms.Config in
  List.filter_map
    (fun (name, eq) -> if eq then None else Some name)
    [
      ("enable_reorder", a.enable_reorder = b.enable_reorder);
      ("enable_alias_hw", a.enable_alias_hw = b.enable_alias_hw);
      ("alias_slots", a.alias_slots = b.alias_slots);
      ("enable_self_check", a.enable_self_check = b.enable_self_check);
      ("enable_self_reval", a.enable_self_reval = b.enable_self_reval);
      ("enable_stylized", a.enable_stylized = b.enable_stylized);
      ("force_self_check", a.force_self_check = b.force_self_check);
      ("max_region_insns", a.max_region_insns = b.max_region_insns);
      ("unroll_limit", a.unroll_limit = b.unroll_limit);
    ]

let page_digest phys ppn =
  let base = ppn lsl Machine.Mmu.page_shift in
  let len =
    min Machine.Mmu.page_size (phys.Machine.Phys.size - base)
  in
  if len <= 0 then None
  else Some (Digest.bytes (Machine.Phys.read_bytes phys ~addr:base ~len))

type install_report = {
  installed : int;
  rejected : (int * string) list;  (** (entry, reason) per refused entry *)
}

(* Rebuild the region from the wire shape, re-decoding every
   instruction from the image's own (digest-validated) source bytes. *)
let region_of_tran (t : tran) : Cms.Region.t =
  let byte_at a =
    let rec go off = function
      | [] -> raise (X86.Exn.Fault X86.Exn.UD)
      | (lo, hi) :: rest ->
          if a >= lo && a < hi then Char.code (Bytes.get t.snapshot (off + (a - lo)))
          else go (off + (hi - lo)) rest
    in
    go 0 t.src_ranges
  in
  let insns =
    List.map
      (fun (w : insn_wire) ->
        let f = X86.Decode.decode ~fetch:byte_at w.addr in
        if f.X86.Decode.len <> w.len then
          Codec.corrupt
            "aot: entry %#x: instruction at %#x decodes to %d bytes, image \
             recorded %d"
            t.tentry w.addr f.X86.Decode.len w.len;
        let imm32 = Option.map (fun o -> w.addr + o) f.X86.Decode.imm32_off in
        if imm32 <> w.imm32_addr then
          Codec.corrupt "aot: entry %#x: imm32 field mismatch at %#x" t.tentry
            w.addr;
        {
          Cms.Region.addr = w.addr;
          insn = f.X86.Decode.insn;
          len = w.len;
          imm32_addr = imm32;
          follow =
            (match w.follow with
            | 0 -> Cms.Region.FNext
            | 1 -> Cms.Region.FTarget
            | _ -> Cms.Region.FEnd);
          loops = w.loops;
        })
      t.insns
  in
  {
    Cms.Region.entry = t.tentry;
    insns = Array.of_list insns;
    cont = t.cont;
    src_ranges = t.src_ranges;
  }

(** Validate [img] against [c] and populate the tcache.

    Raises {!Stale} when the image as a whole cannot be trusted (config
    conflict, or any code-page digest differs).  Per-entry defects
    (changed bytes, invalid code, a verifier violation) reject only
    that entry; the report lists each with its reason.  Installed
    translations are counted in [Stats.aot_loaded], rejections in
    [Stats.aot_rejected]. *)
let install (c : Cms.t) (img : t) : install_report =
  (match config_conflicts img.cfg c.Cms.Engine.cfg with
  | [] -> ()
  | fields ->
      stale "AOT image built under a different translator config (%s differ)"
        (String.concat ", " fields));
  let phys = (Cms.mem c).Machine.Mem.phys in
  let bad =
    List.filter_map
      (fun (ppn, d) ->
        match page_digest phys ppn with
        | Some d' when d' = d -> None
        | Some _ -> Some (Fmt.str "page %#x: code bytes differ" ppn)
        | None -> Some (Fmt.str "page %#x: outside RAM (%d bytes)" ppn
                          phys.Machine.Phys.size))
      img.pages
  in
  if bad <> [] then
    stale "stale AOT image for %S: %s" img.meta.label (String.concat "; " bad);
  let stats = Cms.stats c in
  let installed = ref 0 and rejected = ref [] in
  List.iter
    (fun (t : tran) ->
      let reject why =
        stats.Cms.Stats.aot_rejected <- stats.Cms.Stats.aot_rejected + 1;
        rejected := (t.tentry, why) :: !rejected
      in
      match region_of_tran t with
      | exception Codec.Corrupt msg -> reject msg
      | exception X86.Exn.Fault _ ->
          reject "instruction bytes outside recorded source ranges"
      | region -> (
          (* copy-on-validate: the target machine's bytes must equal the
             snapshot the code was minted from *)
          let current = Cms.Codegen.take_snapshot (Cms.mem c) region in
          if not (Bytes.equal current t.snapshot) then
            reject "source bytes changed since the image was built"
          else
            match Vliw.Code.validate t.code with
            | Error e -> reject ("invalid native code: " ^ e)
            | Ok () -> (
                match
                  Cms.Codegen.check_code ?on_diag:c.Cms.Engine.on_diag
                    ~cfg:c.Cms.Engine.cfg ~entry:t.tentry
                    ~ninsns:(Cms.Region.instruction_count region)
                    t.code
                with
                | exception Cms.Codegen.Verify_failed why ->
                    reject ("verifier: " ^ why)
                | () ->
                    (* fresh exit records: chaining state is engine-local *)
                    let code =
                      {
                        t.code with
                        Vliw.Code.exits =
                          Array.map
                            (fun (e : Vliw.Code.exit) ->
                              {
                                e with
                                Vliw.Code.chain =
                                  (match e.Vliw.Code.chain with
                                  | Vliw.Code.NoChain -> Vliw.Code.NoChain
                                  | _ -> Vliw.Code.Unchained);
                              })
                            t.code.Vliw.Code.exits;
                      }
                    in
                    if
                      Cms.Engine.aot_install c ~entry:t.tentry ~code ~region
                        ~policy:t.policy ~snapshot:t.snapshot
                    then incr installed
                    else reject "entry already has a live translation")))
    img.trans;
  { installed = !installed; rejected = List.rev !rejected }

let pp_report fmt (r : install_report) =
  Fmt.pf fmt "aot install: %d translations installed, %d rejected%s"
    r.installed
    (List.length r.rejected)
    (match r.rejected with
    | [] -> ""
    | l ->
        ": "
        ^ String.concat "; "
            (List.map (fun (e, why) -> Fmt.str "%#x (%s)" e why) l))
