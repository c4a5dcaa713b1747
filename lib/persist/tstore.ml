(** The fleet's shared translation store: validate-before-trust.

    N guest machines running the same workload image feed and drink
    from one store of verified translations, so machine #1000 starts
    warm from translations minted by machine #1.  The store never
    trusts anything by construction:

    - Entries are *serialized blobs*, not shared mutable values.  A
      consumer that hits deserializes a private copy (fresh molecules,
      fresh exit records, [Unchained] chain state), so no machine ever
      holds a reference into another machine's translation — SMC,
      chaining, or plain memory corruption on the publisher cannot
      reach a consumer retroactively.
    - The key is the canonical compile input: entry address, MD5 of the
      region's source bytes, MD5 of the serialized policy.  A machine
      whose code bytes drifted (SMC) simply never matches the key.
    - Every blob carries its own MD5; every lookup re-checks it, and
      the decoded payload is revalidated structurally (instructions
      re-decoded from the blob's own source bytes, region shape
      compared against the consumer's canonical selection, molecule
      verifier re-run) before install.
    - A key whose blob ever fails any of those checks is *poisoned*:
      entered on a fleet-wide quarantine list exactly once, its entry
      removed, and every later consumer skips it without revalidating
      — falling back to its private translator.

    Publishing is mediated by {!publish} under the store lock;
    persistence uses the stable container codec (kind TSTO) and an
    atomic temp-file + rename, so a killed publisher can never leave a
    torn image for consumers. *)

exception Untrusted of string
(** raised by consume-side validation helpers; callers poison the key *)

let untrusted fmt = Format.kasprintf (fun s -> raise (Untrusted s)) fmt

let kind = "TSTO"
let version = 1

(* ------------------------------------------------------------------ *)
(* Payload codec                                                       *)
(* ------------------------------------------------------------------ *)

(* The wire payload reuses the AOT translation codec (PR 6): region
   shape minus the instructions (re-decoded at consume time from the
   payload's own source bytes), policy, source bytes, scheduled code —
   plus the two compile outputs the AOT image does not need: the
   page-protection mode and whether the translation keeps its snapshot
   (self-check / self-reval policies). *)
type payload = {
  tran : Aot.tran;
  unprotected : bool;
  keep_snapshot : bool;
}

let w_payload b (p : payload) =
  Aot.w_tran b p.tran;
  Codec.w_bool b p.unprotected;
  Codec.w_bool b p.keep_snapshot

let r_payload r : payload =
  let tran = Aot.r_tran r in
  let unprotected = Codec.r_bool r in
  let keep_snapshot = Codec.r_bool r in
  { tran; unprotected; keep_snapshot }

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

let policy_digest (p : Cms.Policy.t) =
  let b = Codec.writer () in
  Stable.w_policy b p;
  Codec.digest b

(** The canonical compile input, rendered printable for forensics. *)
let key ~entry ~(bytes : Bytes.t) ~(policy : Cms.Policy.t) =
  Printf.sprintf "%x:%s:%s" entry
    (Digest.to_hex (Digest.bytes bytes))
    (Digest.to_hex (policy_digest policy))

(* ------------------------------------------------------------------ *)
(* The store                                                           *)
(* ------------------------------------------------------------------ *)

type entry = { blob : string; sum : Digest.t  (** MD5 of [blob] *) }

type t = {
  lock : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  poisoned : (string, string) Hashtbl.t;  (** key -> first failure *)
  mutable publishes : int;  (** entries accepted *)
  mutable dup_publishes : int;  (** publish attempts finding a live entry *)
  mutable refused_publishes : int;  (** publisher-side verifier refusals *)
}

let create () =
  {
    lock = Mutex.create ();
    entries = Hashtbl.create 256;
    poisoned = Hashtbl.create 16;
    publishes = 0;
    dup_publishes = 0;
    refused_publishes = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let size t = locked t (fun () -> Hashtbl.length t.entries)
let poisoned_count t = locked t (fun () -> Hashtbl.length t.poisoned)

(** Count a publisher-side verifier refusal (nothing entered the store). *)
let note_refused t =
  locked t (fun () -> t.refused_publishes <- t.refused_publishes + 1)

(** Accept [blob] for [key] unless the key is live or poisoned.
    Returns [true] when the entry was stored. *)
let publish t ~key:k ~blob =
  locked t (fun () ->
      if Hashtbl.mem t.poisoned k then false
      else if Hashtbl.mem t.entries k then begin
        t.dup_publishes <- t.dup_publishes + 1;
        false
      end
      else begin
        Hashtbl.replace t.entries k { blob; sum = Digest.string blob };
        t.publishes <- t.publishes + 1;
        true
      end)

type hit = Hit of entry | Poisoned | Miss

let lookup t k =
  locked t (fun () ->
      if Hashtbl.mem t.poisoned k then Poisoned
      else match Hashtbl.find_opt t.entries k with
        | Some e -> Hit e
        | None -> Miss)

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

let poison_reason t k = locked t (fun () -> Hashtbl.find_opt t.poisoned k)

(* ------------------------------------------------------------------ *)
(* Compile-result conversion                                           *)
(* ------------------------------------------------------------------ *)

let follow_code = function
  | Cms.Region.FNext -> 0
  | Cms.Region.FTarget -> 1
  | Cms.Region.FEnd -> 2

(** Serialize a freshly compiled translation into a (key, blob) pair.
    [bytes] must be the source snapshot the compile consumed — it is
    both the key material and the bytes consumers re-decode from. *)
let encode ~entry ~(region : Cms.Region.t) ~(policy : Cms.Policy.t)
    ~(bytes : Bytes.t) ~(compiled : Cms.Codegen.compiled) =
  let insns =
    Array.to_list region.Cms.Region.insns
    |> List.map (fun (i : Cms.Region.insn_info) ->
           {
             Aot.addr = i.Cms.Region.addr;
             len = i.Cms.Region.len;
             follow = follow_code i.Cms.Region.follow;
             loops = i.Cms.Region.loops;
             imm32_addr = i.Cms.Region.imm32_addr;
           })
  in
  let p =
    {
      tran =
        {
          Aot.tentry = entry;
          policy;
          cont = region.Cms.Region.cont;
          src_ranges = region.Cms.Region.src_ranges;
          insns;
          snapshot = bytes;
          code = compiled.Cms.Codegen.code;
        };
      unprotected = compiled.Cms.Codegen.unprotected;
      keep_snapshot = Option.is_some compiled.Cms.Codegen.snapshot;
    }
  in
  let b = Codec.writer () in
  w_payload b p;
  (key ~entry ~bytes ~policy, Codec.contents b)

(* A decoded store hit carries no optimizer statistics of its own. *)
let no_opt_stats =
  {
    Cms.Opt.items = [];
    removed = 0;
    flags_retargeted = 0;
    folded = 0;
    loads_eliminated = 0;
  }

(** Decode and fully revalidate a store entry against the consumer's
    canonical compile inputs.  Raises {!Untrusted} on any defect:
    blob digest mismatch, codec corruption, trailing bytes, key-field
    drift, region-shape drift, structurally invalid code, or a
    molecule-verifier rejection ({!Cms.Codegen.check_code}, whose
    diagnostics [on_diag] observes).  On success the returned
    translation is a private copy, bit-independent of every other
    machine's. *)
let decode_validated ?on_diag ~(cfg : Cms.Config.t) ~entry
    ~(region : Cms.Region.t) ~(policy : Cms.Policy.t) ~(bytes : Bytes.t)
    (e : entry) :
    Cms.Codegen.compiled =
  if Digest.string e.blob <> e.sum then
    untrusted "entry %#x: blob digest mismatch (store corruption)" entry;
  let p =
    try
      let r = Codec.reader e.blob in
      let p = r_payload r in
      Codec.r_end r;
      p
    with Codec.Corrupt m -> untrusted "entry %#x: %s" entry m
  in
  let t = p.tran in
  if t.Aot.tentry <> entry then
    untrusted "entry %#x: blob is for entry %#x" entry t.Aot.tentry;
  if not (Cms.Policy.equal t.Aot.policy policy) then
    untrusted "entry %#x: policy drift" entry;
  if not (Bytes.equal t.Aot.snapshot bytes) then
    untrusted "entry %#x: source bytes differ from the live code" entry;
  (* Rebuild the region from the wire shape, re-decoding every
     instruction from the digest-validated source bytes, and require
     it to equal the consumer's own canonical selection — a store hit
     must be exactly the translation this machine would have compiled. *)
  let rebuilt =
    try Aot.region_of_tran t with
    | Codec.Corrupt m -> untrusted "entry %#x: %s" entry m
    | X86.Exn.Fault _ -> untrusted "entry %#x: undecodable source bytes" entry
  in
  if not (Cms.Region.equal rebuilt region) then
    untrusted "entry %#x: region shape drift" entry;
  (match Vliw.Code.validate t.Aot.code with
  | Ok () -> ()
  | Error m -> untrusted "entry %#x: invalid code: %s" entry m);
  (* Consumer-side verification: the translator's own acceptance
     check runs on every store hit — distrusting the store costs one
     static walk, trusting a poisoned molecule costs the machine. *)
  (match
     Cms.Codegen.check_code ?on_diag ~cfg ~entry
       ~ninsns:(Cms.Region.instruction_count region)
       t.Aot.code
   with
  | () -> ()
  | exception Cms.Codegen.Verify_failed why ->
      untrusted "entry %#x: verifier: %s" entry why);
  {
    Cms.Codegen.code = t.Aot.code;
    snapshot = (if p.keep_snapshot then Some t.Aot.snapshot else None);
    opt_stats = no_opt_stats;
    unprotected = p.unprotected;
  }

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let to_string t =
  locked t (fun () ->
      let entries =
        Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.entries []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let poisoned =
        Hashtbl.fold (fun k m acc -> (k, m) :: acc) t.poisoned []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      Codec.container ~kind ~version (fun sec ->
          sec "ENTS" (fun b ->
              Codec.w_list b
                (fun b (k, e) ->
                  Codec.w_string b k;
                  Codec.w_string b e.blob;
                  Codec.w_string b e.sum)
                entries);
          sec "POIS" (fun b ->
              Codec.w_list b
                (fun b (k, m) ->
                  Codec.w_string b k;
                  Codec.w_string b m)
                poisoned)))

let of_string data =
  let sections = Codec.read_container ~kind ~version data in
  let t = create () in
  let sec tag =
    Codec.reader ~ctx:("tstore section " ^ tag) (Codec.section sections tag)
  in
  let r = sec "ENTS" in
  let entries =
    Codec.r_list r (fun r ->
        let k = Codec.r_string r in
        let blob = Codec.r_string r in
        let sum = Codec.r_string r in
        (k, blob, sum))
  in
  Codec.r_end r;
  let r = sec "POIS" in
  let poisoned =
    Codec.r_list r (fun r ->
        let k = Codec.r_string r in
        let m = Codec.r_string r in
        (k, m))
  in
  Codec.r_end r;
  List.iter
    (fun (k, blob, sum) ->
      if Digest.string blob <> sum then
        Codec.corrupt "tstore: entry %s: blob digest mismatch" k;
      Hashtbl.replace t.entries k { blob; sum })
    entries;
  List.iter (fun (k, m) -> Hashtbl.replace t.poisoned k m) poisoned;
  t

(** Atomic publish of the whole store image ({!Codec.write_file}): a
    consumer can observe the old image or the new one, never a torn
    one. *)
let save path t = Codec.write_file path (to_string t)

let load path = of_string (Codec.read_file path)
