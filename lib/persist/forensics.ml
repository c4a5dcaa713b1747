(** Crash forensics: when a run dies uncontained or a differential
    check diverges, dump everything needed to reproduce and debug it —
    a human-readable report, the final (or last-checkpoint) snapshot,
    the event journal, and the generator case text — into a directory,
    so every failure is replayable offline from its artifacts. *)

type dump = {
  report : string;  (** path of the text report *)
  artifacts : (string * string) list;  (** (kind, path) of binary dumps *)
}

let write path data = Codec.write_file path data

(** Dump the forensics bundle for failure [name] into [dir] (created if
    missing).  All pieces are optional; whatever is available is
    written.  [snapshot] is the final-state image (when the machine died
    at a consistent boundary), [checkpoint] the last periodic
    checkpoint image, [journal] the recorded event journal, [case_text]
    the fuzzer case listing, [aot] the serialized ahead-of-time
    translation image (for AOT-oracle divergences — replayable with
    [cmsverify --aot]), and [engine] the machine to summarize counters
    from. *)
let dump ~dir ~name ~reason ?snapshot ?checkpoint ?(journal : Journal.t option)
    ?case_text ?aot ?(engine : Cms.t option) () : dump =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let path ext = Filename.concat dir (name ^ ext) in
  let artifacts = ref [] in
  let art kind ext data =
    let p = path ext in
    write p data;
    artifacts := (kind, p) :: !artifacts
  in
  (match snapshot with Some s -> art "snapshot" ".final.snap" s | None -> ());
  (match checkpoint with
  | Some s -> art "checkpoint" ".ckpt.snap" s
  | None -> ());
  (match journal with
  | Some j -> art "journal" ".journal" (Journal.to_string j)
  | None -> ());
  (match case_text with Some t -> art "case" ".case" t | None -> ());
  (match aot with Some img -> art "aot-image" ".aot" img | None -> ());
  let report = path ".txt" in
  let b = Buffer.create 1024 in
  let pf fmt = Format.kasprintf (Buffer.add_string b) fmt in
  pf "failure: %s\nreason: %s\n" name reason;
  (match journal with
  | Some j ->
      pf "journal: label=%s guest-events=%d host-events=%d\n" j.Journal.label
        (List.length j.Journal.guest)
        (List.length j.Journal.host)
  | None -> ());
  (match engine with
  | Some c ->
      let s = Cms.stats c in
      pf "retired: %d\nmolecules: %d\n" (Cms.retired c) (Cms.total_molecules c);
      List.iter (fun g -> pf "%a\n" (Cms.Stats.pp_group g) s) Cms.Stats.groups
  | None -> ());
  List.iter (fun (kind, p) -> pf "artifact: %s = %s\n" kind p) !artifacts;
  write report (Buffer.contents b);
  { report; artifacts = List.rev !artifacts }
