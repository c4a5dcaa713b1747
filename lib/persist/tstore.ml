(** Store entries: the one serialized form of a pre-minted translation,
    and the one walk that trusts it again.

    Two consumers install translations minted somewhere else: the
    fleet's shared store (N guest machines running the same workload
    feed and drink from one store, so machine #1000 starts warm from
    translations minted by machine #1) and ahead-of-time images
    ({!Aot}, a store image plus a header).  Neither trusts anything by
    construction:

    - Entries are *serialized blobs*, not shared mutable values, and
      {!encode} is the only function that makes one.  Every consumer
      decodes a private copy (fresh molecules, fresh exit records,
      [Unchained] chain state), so no machine ever holds a reference
      into another machine's translation — SMC, chaining, or plain
      memory corruption on the publisher cannot reach a consumer
      retroactively.
    - The key is the canonical compile input: entry address, MD5 of the
      region's source bytes, MD5 of the serialized policy.  A machine
      whose code bytes drifted (SMC) simply never matches the key.
    - Every blob carries its own MD5, and {!revalidate} — the one trust
      walk, run by a store hit and by an AOT install alike — re-checks
      it, decodes the blob, compares its source bytes with the live
      ones, re-decodes its instructions from those bytes and re-runs
      the code validator and the translator's verifier.
    - In a fleet, a key whose blob ever fails that walk is *poisoned*:
      entered on a fleet-wide quarantine list exactly once, its entry
      removed, and every later consumer skips it without revalidating
      — falling back to its private translator.

    Publishing is mediated by {!publish} under the store lock.  The
    image (kind TSTO) uses the stable container codec; an AOT image is
    the same container under its own kind with header sections ahead of
    the store's ENTS and POIS. *)

exception Untrusted of string
(** raised by {!decode} and {!revalidate}: a fleet consumer poisons the
    key, an AOT install rejects the entry *)

let untrusted fmt = Format.kasprintf (fun s -> raise (Untrusted s)) fmt

let kind = "TSTO"

(* version 2: an entry no longer carries keep_snapshot: every
   translation keeps its source bytes. *)
let version = 2

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
  | t -> Codec.corrupt "tstore: bad src tag %d" t

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
      invalid_arg (Printf.sprintf "Tstore: unknown %s" what)
    else if arr.(i) = a then i
    else go (i + 1)
  in
  go 0

let of_index what r arr =
  let i = Codec.r_int r in
  if i < 0 || i >= Array.length arr then Codec.corrupt "tstore: bad %s tag %d" what i
  else arr.(i)

let w_size b (s : X86.Flags.size) =
  Codec.w_bool b (match s with X86.Flags.S32 -> true | S8 -> false)

let r_size r : X86.Flags.size =
  if Codec.r_bool r then X86.Flags.S32 else X86.Flags.S8

let w_cond b c = Codec.w_int b (X86.Cond.to_code c)

let r_cond r =
  let c = Codec.r_int r in
  if c < 0 || c > 0xf then Codec.corrupt "tstore: bad condition code %d" c
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
  | t -> Codec.corrupt "tstore: unknown atom tag %d" t

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
    | t -> Codec.corrupt "tstore: bad exit target tag %d" t
  in
  let kind =
    match Codec.r_int r with
    | 0 -> Vliw.Code.Enext
    | 1 -> Vliw.Code.Einterp_one
    | 2 -> Vliw.Code.Eselfcheck_fail
    | t -> Codec.corrupt "tstore: bad exit kind tag %d" t
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
  if n < 0 || n > 64 then Codec.corrupt "tstore: implausible molecule width %d" n
  else Array.init n (fun _ -> r_atom r)

let w_code b (c : Vliw.Code.t) =
  Codec.w_int b (Array.length c.Vliw.Code.molecules);
  Array.iter (w_molecule b) c.Vliw.Code.molecules;
  Codec.w_int b (Array.length c.Vliw.Code.exits);
  Array.iter (w_exit b) c.Vliw.Code.exits

let r_code r : Vliw.Code.t =
  let nm = Codec.r_int r in
  if nm < 0 || nm > 1_000_000 then
    Codec.corrupt "tstore: implausible molecule count %d" nm;
  let molecules = Array.init nm (fun _ -> r_molecule r) in
  let nx = Codec.r_int r in
  if nx < 0 || nx > 1_000_000 then
    Codec.corrupt "tstore: implausible exit count %d" nx;
  let exits = Array.init nx (fun _ -> r_exit r) in
  { Vliw.Code.molecules; exits }

(* ------------------------------------------------------------------ *)
(* Payload codec                                                       *)
(* ------------------------------------------------------------------ *)

(* The region shape, minus the instructions: consumers re-decode them
   from the blob's own source bytes, once those equal the live ones, so
   an entry cannot carry an instruction stream that disagrees with
   memory. *)
type insn_wire = {
  addr : int;
  len : int;
  follow : Cms.Region.follow;
  loops : bool;
  imm32_addr : int option;
}

(** One compile, as an entry carries it: the policy and region shape it
    was minted under, the source bytes it read (in range order), the
    scheduled code, and the compile output the code does not carry,
    the page-protection mode. *)
type tran = {
  tentry : int;
  policy : Cms.Policy.t;
  cont : int option;
  src_ranges : (int * int) list;
  insns : insn_wire list;
  snapshot : Bytes.t;
  code : Vliw.Code.t;
  unprotected : bool;
}

let follow =
  let tags = Cms.Region.[| FNext; FTarget; FEnd |] in
  {
    Codec.write = (fun w f -> Codec.w_int w (index_of "follow" f tags));
    read = (fun r -> of_index "follow" r tags);
  }

let insn_wire : insn_wire Codec.codec =
  Codec.(
    record
      [
        field int (fun i -> i.addr) (fun i v -> { i with addr = v });
        field int (fun (i : insn_wire) -> i.len) (fun i v -> { i with len = v });
        field follow (fun i -> i.follow) (fun i v -> { i with follow = v });
        field bool (fun i -> i.loops) (fun i v -> { i with loops = v });
        field (opt int) (fun i -> i.imm32_addr) (fun i v -> { i with imm32_addr = v });
      ]
      (fun () ->
        { addr = 0; len = 0; follow = FEnd; loops = false; imm32_addr = None }))

let tran : tran Codec.codec =
  let code = { Codec.write = w_code; read = r_code } in
  Codec.(
    record
      [
        field int (fun t -> t.tentry) (fun t v -> { t with tentry = v });
        field Stable.policy (fun t -> t.policy) (fun t v -> { t with policy = v });
        field (opt int) (fun t -> t.cont) (fun t v -> { t with cont = v });
        field (list (pair int int)) (fun t -> t.src_ranges) (fun t v -> { t with src_ranges = v });
        field (list insn_wire) (fun t -> t.insns) (fun t v -> { t with insns = v });
        field bytes (fun t -> t.snapshot) (fun t v -> { t with snapshot = v });
        field code (fun t -> t.code) (fun t v -> { t with code = v });
        field bool (fun t -> t.unprotected) (fun t v -> { t with unprotected = v });
      ]
      (fun () ->
        { tentry = 0; policy = Cms.Policy.default Cms.Config.default; cont = None;
          src_ranges = []; insns = []; snapshot = Bytes.empty;
          code = { Vliw.Code.molecules = [||]; exits = [||] };
          unprotected = false }))

(** The blob of [t]. *)
let blob (t : tran) = Codec.encode tran t

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

let policy_digest (p : Cms.Policy.t) =
  let b = Codec.writer () in
  Stable.policy.write b p;
  Codec.digest b

(** The canonical compile input, rendered printable for forensics. *)
let key ~entry ~(bytes : Bytes.t) ~(policy : Cms.Policy.t) =
  Printf.sprintf "%x:%s:%s" entry
    (Digest.to_hex (Digest.bytes bytes))
    (Digest.to_hex (policy_digest policy))

(** The entry address [k] was minted for; raises {!Codec.Corrupt} on a
    key {!key} did not make. *)
let key_entry k =
  match
    Option.bind (String.index_opt k ':') (fun i ->
        int_of_string_opt ("0x" ^ String.sub k 0 i))
  with
  | Some entry -> entry
  | None -> Codec.corrupt "tstore: malformed key %S" k

(* ------------------------------------------------------------------ *)
(* The store                                                           *)
(* ------------------------------------------------------------------ *)

type entry = { blob : string; sum : Digest.t  (** MD5 of [blob] *) }

type t = {
  lock : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  poisoned : (string, string) Hashtbl.t;  (** key -> first failure *)
}

let create () =
  { lock = Mutex.create (); entries = Hashtbl.create 256;
    poisoned = Hashtbl.create 16 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let size t = locked t (fun () -> Hashtbl.length t.entries)
let poisoned_count t = locked t (fun () -> Hashtbl.length t.poisoned)

let sorted tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** The live entries, in key order. *)
let bindings t = locked t (fun () -> sorted t.entries)

(** Accept [blob] for [key] unless the key is live or poisoned.
    Returns [true] when the entry was stored. *)
let publish t ~key:k ~blob =
  locked t (fun () ->
      if Hashtbl.mem t.poisoned k || Hashtbl.mem t.entries k then false
      else begin
        Hashtbl.replace t.entries k { blob; sum = Digest.string blob };
        true
      end)

(** The live entry for [key].  A poisoned key reads as a miss: it was
    quarantined fleet-wide by some machine's earlier rejection, and no
    consumer pays to revalidate it again. *)
let lookup t k =
  locked t (fun () ->
      if Hashtbl.mem t.poisoned k then None else Hashtbl.find_opt t.entries k)

(** Quarantine [key] fleet-wide: remove its entry and record the first
    failure reason.  Returns [true] only for the first poisoning of the
    key — the "exactly once" the quarantine counters are built on. *)
let poison t ~key:k ~reason =
  locked t (fun () ->
      Hashtbl.remove t.entries k;
      if Hashtbl.mem t.poisoned k then false
      else begin
        Hashtbl.replace t.poisoned k reason;
        true
      end)

(* ------------------------------------------------------------------ *)
(* Minting and the trust walk                                          *)
(* ------------------------------------------------------------------ *)

(** Serialize a freshly compiled translation into a (key, blob) pair —
    the only way an entry is made, by the fleet's publish seam and the
    AOT image build ([Aotgen.build]) alike.  [bytes] must be the source
    snapshot the compile consumed: it is both the key material and the
    bytes consumers re-decode from. *)
let encode ~entry ~(region : Cms.Region.t) ~(policy : Cms.Policy.t)
    ~(bytes : Bytes.t) ~(compiled : Cms.Codegen.compiled) =
  let wire (i : Cms.Region.insn_info) =
    {
      addr = i.Cms.Region.addr;
      len = i.Cms.Region.len;
      follow = i.Cms.Region.follow;
      loops = i.Cms.Region.loops;
      imm32_addr = i.Cms.Region.imm32_addr;
    }
  in
  ( key ~entry ~bytes ~policy,
    blob
      {
        tentry = entry;
        policy;
        cont = region.Cms.Region.cont;
        src_ranges = region.Cms.Region.src_ranges;
        insns = List.map wire (Array.to_list region.Cms.Region.insns);
        snapshot = bytes;
        code = compiled.Cms.Codegen.code;
        unprotected = compiled.Cms.Codegen.unprotected;
      } )

(** The one decoder: [e]'s MD5, then its payload, with no trailing
    bytes.  Raises {!Untrusted}, naming [entry]. *)
let decode ~entry (e : entry) =
  if Digest.string e.blob <> e.sum then
    untrusted "entry %#x: blob digest mismatch (store corruption)" entry;
  try Codec.decode tran e.blob
  with Codec.Corrupt m -> untrusted "entry %#x: %s" entry m

(* Rebuild the region from the wire shape, re-decoding every
   instruction from the entry's own (already compared) source bytes. *)
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
  let insn (w : insn_wire) =
    let f =
      try X86.Decode.decode ~fetch:byte_at w.addr
      with X86.Exn.Fault _ ->
        untrusted "entry %#x: undecodable source bytes" t.tentry
    in
    if f.X86.Decode.len <> w.len then
      untrusted
        "entry %#x: instruction at %#x decodes to %d bytes, entry recorded %d"
        t.tentry w.addr f.X86.Decode.len w.len;
    let imm32 = Option.map (fun o -> w.addr + o) f.X86.Decode.imm32_off in
    if imm32 <> w.imm32_addr then
      untrusted "entry %#x: imm32 field mismatch at %#x" t.tentry w.addr;
    {
      Cms.Region.addr = w.addr;
      insn = f.X86.Decode.insn;
      len = w.len;
      imm32_addr = imm32;
      follow = w.follow;
      loops = w.loops;
    }
  in
  {
    Cms.Region.entry = t.tentry;
    insns = Array.of_list (List.map insn t.insns);
    cont = t.cont;
    src_ranges = t.src_ranges;
  }

(** What {!revalidate} accepted: the decoded entry, the region rebuilt
    from its own bytes, and a private copy of the translation. *)
type trusted = {
  tran : tran;
  region : Cms.Region.t;
  compiled : Cms.Codegen.compiled;
}

(** The one trust walk.  Decodes [e] ({!decode}), then requires, in
    order: the blob is for [entry]; its source ranges span exactly its
    source bytes; those bytes equal [live] over the ranges; its
    instructions re-decode from those bytes; its code passes the
    translator's own acceptance check ({!Cms.Codegen.check_code}, whose
    diagnostics [on_diag] observes), the one structural gate for
    translated code.  Raises {!Untrusted} at the first failure. *)
let revalidate ?on_diag ~(cfg : Cms.Config.t) ~entry
    ~(live : (int * int) list -> Bytes.t) (e : entry) : trusted =
  let t = decode ~entry e in
  if t.tentry <> entry then
    untrusted "entry %#x: blob is for entry %#x" entry t.tentry;
  (* the ranges index the snapshot and bound the live read *)
  let rec spans left = function
    | [] -> left = 0
    | (lo, hi) :: rest ->
        0 <= lo && lo <= hi && hi - lo <= left && spans (left - (hi - lo)) rest
  in
  if not (spans (Bytes.length t.snapshot) t.src_ranges) then
    untrusted "entry %#x: source ranges do not match its source bytes" entry;
  if not (Bytes.equal t.snapshot (live t.src_ranges)) then
    untrusted "entry %#x: source bytes differ from the live code" entry;
  let region = region_of_tran t in
  (* distrusting an entry costs one static walk, trusting a poisoned
     molecule costs the machine *)
  (match
     Cms.Codegen.check_code ?on_diag ~cfg ~entry
       ~ninsns:(Cms.Region.instruction_count region)
       t.code
   with
  | () -> ()
  | exception Cms.Codegen.Verify_failed why ->
      untrusted "entry %#x: verifier: %s" entry why);
  {
    tran = t;
    region;
    compiled = { Cms.Codegen.code = t.code; unprotected = t.unprotected };
  }

(* ------------------------------------------------------------------ *)
(* Image                                                               *)
(* ------------------------------------------------------------------ *)

(* The image's own sections, over the live entries and the poisoned
   keys, each in key order. *)
let image =
  let entry =
    Codec.(
      record
        [
          field string (fun e -> e.blob) (fun e v -> { e with blob = v });
          field string (fun e -> e.sum) (fun e v -> { e with sum = v });
        ]
        (fun () -> { blob = ""; sum = "" }))
  in
  Codec.
    [
      ("ENTS", [ field (list (pair string entry)) fst (fun (_, p) e -> (e, p)) ]);
      ("POIS", [ field (list (pair string string)) snd (fun (e, _) p -> (e, p)) ]);
    ]

(** The store's container: [header] emits sections ahead of ENTS and
    POIS, under [kind] and [version] ({!Aot} writes its image this
    way). *)
let to_string ?(kind = kind) ?(version = version) ?(header = fun _ -> ()) t =
  let contents = locked t (fun () -> (sorted t.entries, sorted t.poisoned)) in
  Codec.container ~kind ~version (fun sec ->
      header sec;
      Codec.w_sections image sec contents)

(** The store held in the ENTS and POIS of a verified container's
    [sections]; raises {!Codec.Corrupt} on an entry whose blob fails
    its MD5 or whose key {!key} did not make. *)
let of_sections sections =
  let entries, poisoned = Codec.r_sections ~ctx:"tstore" image sections ([], []) in
  let t = create () in
  List.iter
    (fun (k, e) ->
      ignore (key_entry k : int);
      if Digest.string e.blob <> e.sum then
        Codec.corrupt "tstore: entry %s: blob digest mismatch" k;
      Hashtbl.replace t.entries k e)
    entries;
  List.iter (fun (k, m) -> Hashtbl.replace t.poisoned k m) poisoned;
  t

let of_string data = of_sections (Codec.read_container ~kind ~version data)
