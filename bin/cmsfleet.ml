(* cmsfleet: fault-contained fleet mode.

   Runs N guest machines — the same RX-server kernel image serving
   per-machine seeded packet streams — sharded across OCaml domains
   and sharing one read-only warm translation store (copy-on-validate,
   mandatory verifier on both the publish and consume side).  Every
   machine is individually supervised: injected deaths restart from
   the last commit-boundary snapshot with capped exponential backoff,
   persistent faults climb into permanent quarantine, and survivors
   must reproduce the checksum and syscall count their packet streams
   determine.

     dune exec bin/cmsfleet.exe -- --machines 8 --shards 4 --stats
     dune exec bin/cmsfleet.exe -- --campaign --seed 1 --cases 200
     dune exec bin/cmsfleet.exe -- --machines 4 --no-store   # cold fleet

   Exits non-zero on any divergence, speculation violation, or failed
   campaign case. *)

module Fleet = Cms_fleet.Fleet
module Tstore = Cms_persist.Tstore

let run_fleet machines shards seed stats no_store forensics =
  let fcfg =
    {
      Fleet.default_config with
      Fleet.shards;
      forensics = (if forensics = "" then None else Some forensics);
    }
  in
  let specs = Fleet.traffic_specs ~seed ~machines in
  let store = if no_store then None else Some (Tstore.create ()) in
  let t = Fleet.run ?store fcfg specs in
  Fmt.pr "%a@." Fleet.pp_totals t;
  if stats then
    List.iter
      (fun (r : Fleet.report) ->
        Fmt.pr "machine %d: %s, %d restarts (backoff %d), retired %d, \
                eax %#x ebx %d@."
          r.Fleet.r_id
          (Fleet.status_name r.Fleet.r_status)
          r.Fleet.r_restarts r.Fleet.r_backoff r.Fleet.r_retired
          r.Fleet.r_eax r.Fleet.r_ebx;
        match r.Fleet.r_stats with
        | Some s -> Fmt.pr "  %a@." (Cms.Stats.pp_group "store") s
        | None -> ())
      t.Fleet.t_reports;
  if t.Fleet.t_divergences > 0 || t.Fleet.t_spec_violations > 0 then exit 1

let run_campaign seed cases machines json quiet forensics =
  let profile = { Cms_robust.Fleetfault.default_profile with n_machines = machines } in
  let fcfg =
    {
      Fleet.campaign_config with
      Fleet.forensics = (if forensics = "" then None else Some forensics);
    }
  in
  let on_case (r : Fleet.case_report) =
    if (not json) && not quiet then begin
      (match r.Fleet.c_error with
      | Some e -> Fmt.pr "case %d: FAIL %s@." r.Fleet.c_idx e
      | None -> ());
      if (r.Fleet.c_idx + 1) mod 25 = 0 then
        Fmt.pr "... %d cases@." (r.Fleet.c_idx + 1)
    end
  in
  let t = Fleet.campaign ~profile ~fcfg ~on_case ~seed ~cases () in
  if json then begin
    let f = t.Fleet.fleet in
    let failures =
      List.rev_map
        (fun (i, e) -> Fmt.str "{\"case\":%d,\"reason\":%S}" i e)
        t.Fleet.failures
    in
    Fmt.pr
      "{\"seed\":%d,\"cases\":%d,\"passed\":%d,\"failed\":%d,\
       \"machines\":%d,\"restarts\":%d,\"quarantined\":%d,\
       \"kills\":%d,\"wedges\":%d,\"divergences\":%d,\
       \"speculation_violations\":%d,\"store_hits\":%d,\
       \"store_rejects\":%d,\"store_quarantines\":%d,\"degraded\":%d,\
       \"attacks\":%d,\"fingerprint\":%S,\"failures\":[%s]}@."
      seed t.Fleet.cases t.Fleet.passed t.Fleet.failed f.Fleet.t_machines
      f.Fleet.t_restarts f.Fleet.t_quarantined f.Fleet.t_kills
      f.Fleet.t_wedges f.Fleet.t_divergences f.Fleet.t_spec_violations
      f.Fleet.t_stats.Cms.Stats.store_hits
      f.Fleet.t_stats.Cms.Stats.store_rejects
      f.Fleet.t_stats.Cms.Stats.store_quarantines f.Fleet.t_degraded
      t.Fleet.attacks (Fleet.fingerprint t)
      (String.concat "," failures)
  end
  else begin
    Fmt.pr "seed %d:@." seed;
    Fmt.pr "%a@." Fleet.pp_campaign t
  end;
  if t.Fleet.failed > 0 then exit 1

let main campaign machines shards seed cases stats no_store json quiet
    forensics =
  if campaign then run_campaign seed cases machines json quiet forensics
  else run_fleet machines shards seed stats no_store forensics

open Cmdliner

let campaign =
  Arg.(
    value & flag
    & info [ "campaign" ]
        ~doc:
          "Run the seeded fleet-chaos campaign (machine kills, wedges, \
           persistent faults, store corruption/tampering/truncation) \
           instead of a plain fleet.")

let machines =
  Arg.(
    value & opt int 4
    & info [ "machines" ] ~docv:"N"
        ~doc:
          "Fleet size (plain mode) or machines per campaign case \
           (--campaign).")

let shards =
  Arg.(
    value & opt int 2
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "OCaml domains to shard the fleet across (plain mode).  Checksums \
           do not depend on it, but per-seed totals (retired, molecules, \
           store hits) repeat exactly only with one shard: with more, \
           which machine publishes a key first decides whether another \
           compiles it (translate charge) or takes a store hit \
           (revalidation charge), which moves its molecule clock and so \
           its timer interrupts.")

let seed =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Seed; a campaign, or a fleet on one shard, is a pure function \
           of it.")

let cases =
  Arg.(
    value & opt int 100
    & info [ "cases" ] ~docv:"N" ~doc:"Campaign cases (--campaign).")

let stats =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Per-machine reports including shared-store counters.")

let no_store =
  Arg.(
    value & flag
    & info [ "no-store" ]
        ~doc:"Run cold: no shared store, every machine translates privately.")

let json =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit a JSON report on stdout.")

let quiet =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No per-case progress output.")

let forensics =
  Arg.(
    value & opt string ""
    & info [ "forensics" ] ~docv:"DIR"
        ~doc:"Bundle failures (quarantines, divergences) into $(docv).")

let cmd =
  let doc = "fault-contained fleet: N machines, one shared warm store" in
  Cmd.v
    (Cmd.info "cmsfleet" ~doc)
    Term.(
      const main $ campaign $ machines $ shards $ seed $ cases $ stats
      $ no_store $ json $ quiet $ forensics)

let () = exit (Cmd.eval cmd)
