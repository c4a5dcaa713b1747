(** Ahead-of-time translation images: a translation store plus a
    header.

    An image is the {!Tstore} container under its own kind (["AOTC"]):
    its entries (ENTS, POIS) are store entries, minted by
    {!Tstore.encode} exactly as a fleet machine publishes them, and the
    header adds the build metadata (META), the build config (CONF) and
    an MD5 digest of every code page the entries read (PAGE).  The
    digests key the image to the workload: installing against memory
    whose code pages differ raises {!Stale} with the precise pages at
    fault — a stale image is refused, never trusted.

    Install trusts an entry only after {!Tstore.revalidate}, the walk a
    store hit runs, accepts it against the target machine's bytes: the
    blob's MD5, its decode, its entry, its source ranges and bytes, the
    instructions re-decoded from them, and the translator's own
    acceptance check ({!Cms.Codegen.check_code}).  A
    failure rejects that entry (counted in [Stats.aot_rejected], with
    the walk's reason) and the dynamic tier covers it.  Installed
    entries live in the tcache as ordinary translations — SMC
    invalidation and eviction treat them exactly like dynamic ones. *)

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
   every translation, and on every entry at install).
   version 7: the TRAN section gave way to the translation store's
   ENTS and POIS: each entry is a store blob with its key and MD5, and
   carries the compile's unprotected/keep_snapshot flags.
   version 8: Config lost the fourteen fixed budgets and charges (now
   {!Cms.Config} constants), and entries lost keep_snapshot (TSTO
   version 2). *)
let version = 8

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

type t = {
  meta : meta;
  cfg : Cms.Config.t;  (** full build config (compat-checked at install) *)
  pages : (int * string) list;  (** (ppn, MD5 of the page's bytes) *)
  store : Tstore.t;  (** the pre-minted translations *)
}

(* ------------------------------------------------------------------ *)
(* Header codec                                                        *)
(* ------------------------------------------------------------------ *)

let no_meta =
  { label = ""; entry = 0; leaders = 0; insn_count = 0; bytes_static = 0;
    bytes_deferred = 0; deferred = []; demoted_verify = 0; demoted_select = 0;
    blind_stores = 0; truncated = false }

let meta =
  Codec.(
    record
      [
        field string (fun m -> m.label) (fun m v -> { m with label = v });
        field int (fun m -> m.entry) (fun m v -> { m with entry = v });
        field int (fun m -> m.leaders) (fun m v -> { m with leaders = v });
        field int (fun m -> m.insn_count) (fun m v -> { m with insn_count = v });
        field int (fun m -> m.bytes_static) (fun m v -> { m with bytes_static = v });
        field int (fun m -> m.bytes_deferred) (fun m v -> { m with bytes_deferred = v });
        field (list (pair int string)) (fun m -> m.deferred) (fun m v -> { m with deferred = v });
        field int (fun m -> m.demoted_verify) (fun m v -> { m with demoted_verify = v });
        field int (fun m -> m.demoted_select) (fun m v -> { m with demoted_select = v });
        field int (fun m -> m.blind_stores) (fun m v -> { m with blind_stores = v });
        field bool (fun m -> m.truncated) (fun m v -> { m with truncated = v });
      ]
      (fun () -> no_meta))

(* The sections ahead of the store's. *)
let header =
  Codec.
    [
      ("META", [ field meta (fun i -> i.meta) (fun i v -> { i with meta = v }) ]);
      ("CONF", [ field Stable.config (fun i -> i.cfg) (fun i v -> { i with cfg = v }) ]);
      ( "PAGE",
        [ field (list (pair int string)) (fun i -> i.pages) (fun i v -> { i with pages = v }) ]
      );
    ]

let to_string (img : t) =
  Tstore.to_string ~kind ~version ~header:(fun sec -> Codec.w_sections header sec img)
    img.store

let of_string data =
  let sections = Codec.read_container ~kind ~version data in
  let img =
    Codec.r_sections ~ctx:"aot" header sections
      { meta = no_meta; cfg = Cms.Config.default; pages = []; store = Tstore.create () }
  in
  List.iter
    (fun (ppn, d) ->
      if String.length d <> 16 then
        Codec.corrupt "aot: page %#x digest has %d bytes (want 16)" ppn
          (String.length d))
    img.pages;
  { img with store = Tstore.of_sections sections }

let save path img = Codec.write_file path (to_string img)
let load path = of_string (Codec.read_file path)

(* ------------------------------------------------------------------ *)
(* Install                                                             *)
(* ------------------------------------------------------------------ *)

(* Config fields that change what code the translator emits; images are
   only compatible with an engine that agrees on all of them.  The other
   fields change when the engine translates, dispatches or evicts, not
   what a compile emits, so they are free ([sbuf_capacity] bounds the
   verifier's store check, which the install re-runs under the engine's
   own config). *)
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
  rejected : (int * string) list;
      (** (entry, reason) per refused entry; the reason names the entry *)
}

(** Validate [img] against [c] and populate the tcache.

    Raises {!Stale} when the image as a whole cannot be trusted (config
    conflict, or any code-page digest differs).  Each entry is then
    installed only if {!Tstore.revalidate} accepts it against [c]'s
    memory; a refused entry is rejected alone, and the report lists it
    with the walk's reason.  Installed translations are counted in
    [Stats.aot_loaded], rejections in [Stats.aot_rejected]. *)
let install (c : Cms.t) (img : t) : install_report =
  (match config_conflicts img.cfg c.Cms.Engine.cfg with
  | [] -> ()
  | fields ->
      stale "AOT image built under a different translator config (%s differ)"
        (String.concat ", " fields));
  let mem = Cms.mem c in
  let phys = mem.Machine.Mem.phys in
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
    (fun (k, e) ->
      let entry = Tstore.key_entry k in
      let reject why =
        stats.Cms.Stats.aot_rejected <- stats.Cms.Stats.aot_rejected + 1;
        rejected := (entry, why) :: !rejected
      in
      match
        Tstore.revalidate ?on_diag:c.Cms.Engine.on_diag ~cfg:c.Cms.Engine.cfg
          ~entry ~live:(Cms.Codegen.read_ranges mem) e
      with
      | exception Tstore.Untrusted why -> reject why
      | { Tstore.tran; region; compiled } ->
          if
            Cms.Engine.aot_install c ~entry ~region ~policy:tran.Tstore.policy
              ~src:tran.Tstore.snapshot compiled
          then incr installed
          else
            reject (Fmt.str "entry %#x: already has a live translation" entry))
    (Tstore.bindings img.store);
  { installed = !installed; rejected = List.rev !rejected }

let pp_report fmt (r : install_report) =
  Fmt.pf fmt "aot install: %d translations installed, %d rejected%s"
    r.installed
    (List.length r.rejected)
    (match r.rejected with
    | [] -> ""
    | l ->
        ": " ^ String.concat "; " (List.map snd l))
