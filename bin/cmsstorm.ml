(* cmsstorm: interrupt-storm / device-fault campaigns.

   Generates seeded storm cases against the preemptive kernel
   workloads — packet storms with generation-time channel faults
   (drops, corruptions, duplicates, reorderings) into the RX-server
   kernel, IRQ floods on arbitrary lines, asynchronous DMA bursts over
   the guest's own code image — and runs each case through the full
   gauntlet: interpreter, translator, chaos-composed translator, and a
   record/replay round trip through the serialized journal.  The engine
   checks every rollback for visible speculative state.

     dune exec bin/cmsstorm.exe -- --seed 1 --cases 500
     dune exec bin/cmsstorm.exe -- --seed 7 --cases 50 --json

   Exits non-zero if any case fails. *)

module Storm = Cms_robust.Storm

let main seed cases json quiet =
  let on_case (r : Storm.case_report) =
    if (not json) && not quiet then begin
      (match r.Storm.r_error with
      | Some e -> Fmt.pr "case %d (%s): FAIL %s@." r.Storm.r_idx r.Storm.r_kind e
      | None -> ());
      if (r.Storm.r_idx + 1) mod 50 = 0 then
        Fmt.pr "... %d cases@." (r.Storm.r_idx + 1)
    end
  in
  let t = Storm.campaign ~on_case ~seed ~cases () in
  if json then begin
    let failures =
      List.rev_map
        (fun (i, e) -> Fmt.str "{\"case\":%d,\"reason\":%S}" i e)
        t.Storm.failures
    in
    Fmt.pr
      "{\"seed\":%d,\"cases\":%d,\"passed\":%d,\"failed\":%d,\
       \"speculation_violations\":%d,\"frames_injected\":%d,\
       \"irqs_injected\":%d,\"dmas_injected\":%d,\"events_fired\":%d,\
       \"nic_rx\":%d,\"nic_drops\":%d,\"irq_delivered\":%d,\
       \"irq_rollbacks\":%d,\"failures\":[%s]}@."
      seed t.Storm.cases t.Storm.passed t.Storm.failed t.Storm.spec_violations
      t.Storm.frames_injected t.Storm.irqs_injected t.Storm.dmas_injected
      t.Storm.stats.Cms.Stats.journal_events
      t.Storm.stats.Cms.Stats.nic_rx_frames
      t.Storm.stats.Cms.Stats.nic_rx_dropped
      t.Storm.stats.Cms.Stats.irq_delivered
      t.Storm.stats.Cms.Stats.irq_rollbacks
      (String.concat "," failures)
  end
  else begin
    Fmt.pr "seed %d:@." seed;
    Fmt.pr "%a@." Storm.pp_totals t
  end;
  if t.Storm.failed > 0 || t.Storm.spec_violations > 0 then exit 1

open Cmdliner

let seed =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"N"
        ~doc:"Campaign seed; the whole run is a pure function of it.")

let cases =
  Arg.(
    value & opt int 100
    & info [ "cases" ] ~docv:"N" ~doc:"Number of storm cases to generate.")

let json =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit a JSON report on stdout.")

let quiet =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No per-case progress output.")

let cmd =
  let doc = "interrupt-storm and device-fault campaigns" in
  Cmd.v
    (Cmd.info "cmsstorm" ~doc)
    Term.(const main $ seed $ cases $ json $ quiet)

let () = exit (Cmd.eval cmd)
