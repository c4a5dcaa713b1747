(** Fuzzing campaign driver: generate → oracle → shrink → corpus.

    A campaign is fully determined by its seed: each case gets an
    independent child RNG via {!Srng.split}, so case [i] is the same
    program whatever happened to cases [0..i-1], and the whole run —
    case sequence, verdicts, coverage counters — replays bit-identically
    from the seed ({!fingerprint} pins that in tests). *)

type divergence = {
  index : int;
  reason : string;
  minimized : Gen.case;
  saved : string option;  (** corpus path, when [out_dir] was given *)
}

type result = {
  seed : int;
  cases : int;
  passed : int;
  hangs : int;
  divergences : divergence list;
  coverage : Coverage.t_counts;
}

(** Run [cases] cases from [seed].  Divergences are minimized and, when
    [out_dir] is given, written there as corpus files.  [progress] is
    called after each case with (index, verdict).  With [chaos] each
    case additionally carries a derived chaos seed and runs the chaos
    oracle (clean interpreter vs translator-under-injection) instead of
    the clean three-way differential.  With [forensics] every
    divergence additionally dumps a replayable bundle into that
    directory: the recorded event journal, the last-checkpoint and
    final-state snapshots, the minimized case text and a counter
    report. *)
let run ?(progress = fun _ _ -> ()) ?out_dir ?forensics
    ?(max_insns = Oracle.default_max_insns)
    ?(chaos = false) ~seed ~cases () =
  let root = Srng.create seed in
  let coverage = Coverage.create () in
  let passed = ref 0 in
  let hangs = ref 0 in
  let divergences = ref [] in
  for index = 0 to cases - 1 do
    let rng = Srng.split root in
    let case = Gen.generate rng ~seed ~index in
    Gen.note_coverage coverage case;
    let chaos_seed = if chaos then Some (Srng.int32 rng) else None in
    let rendered = Oracle.render ~max_insns ?chaos:chaos_seed case in
    let verdict = Oracle.check rendered in
    (match verdict with
    | Oracle.Pass -> incr passed
    | Oracle.Hang -> incr hangs
    | Oracle.Divergence reason ->
        let minimized =
          Shrink.minimize_diverging ~max_insns ?chaos:chaos_seed case
        in
        let saved =
          match out_dir with
          | None -> None
          | Some dir ->
              let path =
                Filename.concat dir (Fmt.str "seed%d-case%d.case" seed index)
              in
              Corpus.save path
                (Oracle.render ~max_insns ?chaos:chaos_seed minimized)
                ~seed
                ~comment:
                  [
                    Fmt.str "minimized divergence: %s" reason;
                    Fmt.str "campaign seed %d, case %d" seed index;
                  ];
              Some path
        in
        (match forensics with
        | None -> ()
        | Some dir ->
            let name = Fmt.str "seed%d-case%d" seed index in
            let rmin = Oracle.render ~max_insns ?chaos:chaos_seed minimized in
            let rec_ = Oracle.record ~checkpoint_every:10_000 ~label:name rmin in
            (* an AOT-oracle divergence is only debuggable with the
               image that produced it: bundle its serialized bytes *)
            let aot =
              if
                String.length reason >= 3 && String.sub reason 0 3 = "aot"
              then Oracle.aot_image_bytes rmin
              else None
            in
            ignore
              (Cms_persist.Forensics.dump ~dir ~name ~reason
                 ?snapshot:(Cms_persist.Trial.final_image rec_)
                 ?checkpoint:rec_.Cms_persist.Trial.checkpoint
                 ~journal:rec_.Cms_persist.Trial.journal
                 ~case_text:
                   (Corpus.write_string rmin ~seed
                      ~comment:[ Fmt.str "divergence: %s" reason ])
                 ?aot ()));
        divergences := { index; reason; minimized; saved } :: !divergences);
    progress index verdict
  done;
  {
    seed;
    cases;
    passed = !passed;
    hangs = !hangs;
    divergences = List.rev !divergences;
    coverage;
  }

(** Deterministic digest of everything a campaign observed: used to
    assert that the same seed reproduces the identical case sequence
    and coverage numbers.  Encoded with the stable {!Cms_persist.Codec}
    byte format (not [Marshal]) so fingerprints are comparable across
    compiler versions and builds. *)
let fingerprint (r : result) =
  let module C = Cms_persist.Codec in
  let b = C.writer () in
  C.w_int b r.seed;
  C.w_int b r.cases;
  C.w_int b r.passed;
  C.w_int b r.hangs;
  C.w_list b
    (fun b (index, reason) ->
      C.w_int b index;
      C.w_string b reason)
    (List.map (fun d -> (d.index, d.reason)) r.divergences);
  C.w_list b
    (fun b (key, count) ->
      C.w_string b key;
      C.w_int b count)
    (Coverage.to_list r.coverage);
  Digest.string (C.contents b)
