(* Back-to-back 1-shard fleet passes in a process of their own:
   [fleet_heap.exe PASSES] runs [Fleet.run] over
   [traffic_specs ~seed:1 ~machines:4] that many times, each on a fresh
   store, and prints [Gc.top_heap_words] after each pass, one per line.
   The high-water mark is process-wide, so [test_fleet.ml]'s heap gate
   reads it here, where no other test has grown the heap first. *)

module Fleet = Cms_fleet.Fleet

let () =
  let passes = int_of_string Sys.argv.(1) in
  let specs = Fleet.traffic_specs ~seed:1 ~machines:4 in
  let fcfg = { Fleet.default_config with Fleet.shards = 1 } in
  for _ = 1 to passes do
    ignore
      (Fleet.run ~store:(Cms_persist.Tstore.create ()) fcfg specs
        : Fleet.totals);
    Printf.printf "%d\n%!" (Gc.quick_stat ()).Gc.top_heap_words
  done
