(* BlindBox benchmark harness: regenerates every table and figure of the
   paper's evaluation (§7).  See DESIGN.md §3 for the experiment index and
   EXPERIMENTS.md for recorded paper-vs-measured results.

   Usage: dune exec bench/main.exe [experiment ...] [--smoke] [--metrics FILE]
   Experiments: table1 table2 fig3 fig4 fig5 fig6 accuracy tiered throughput
                setup ablation detect pipeline obs-overhead trace-overhead
                parallel fleet setup-parallel daemon counters all (default: all)

   After the requested experiments run, the full bbx_obs metric registry is
   written to BENCH_obs.json (override with --metrics FILE) so every bench
   run leaves a machine-readable snapshot of where tokens, bytes and time
   went — the perf trajectory is self-recording. *)

let experiments =
  [ ("table1", "Table 1: protocol coverage per ruleset", Table1.run);
    ("table2", "Table 2: encryption/setup/detection micro-benchmarks", Table2.run);
    ("fig3", "Fig 3: page load times at broadband (20 Mbps x 10 ms)", Figs.run_fig3);
    ("fig4", "Fig 4: page load times at 1 Gbps x 10 ms", Figs.run_fig4);
    ("fig5", "Fig 5: bandwidth overhead across the top-50 corpus", Figs.run_fig5);
    ("fig6", "Fig 6: CDF of transmitted-byte ratios (vs plaintext and gzip)", Figs.run_fig6);
    ("accuracy", "Sec 7.1: detection accuracy vs Snort on an ICTF-like trace", Accuracy.run);
    ("tiered", "Tiered engine: verdict parity vs the plaintext oracle at tiers 1/2/3", Tiered.run);
    ("throughput", "Sec 7.2.3: middlebox throughput, BlindBox vs Snort-like baseline", Throughput.run);
    ("setup", "Sec 7.2.2: connection setup scaling with ruleset size", Setup_bench.run);
    ("ablation", "Ablations: tree vs scan, DPIEnc vs deterministic, tokenizers, OT", Ablation.run);
    ("detect", "Detection index: flat open-addressing hash vs AVL tree (2x miss gate)", Detect.run);
    ("pipeline", "Token pipeline: legacy list path vs streaming path", Pipeline.run);
    ("obs-overhead", "Observability: instrumented vs uninstrumented hot path (<=5% gate)", Obs_overhead.run);
    ("trace-overhead", "Flight recorder: tracing on vs off through blindboxd (<=5% gate)", Obs_overhead.run_trace);
    ("parallel", "Shardpool scaling across OCaml domains (1/2/4 workers)", Parallel.run);
    ("fleet", "Fleet-scale state: shared rule prep, bytes/conn, migration under load", Fleet.run);
    ("setup-parallel", "Rule-setup scaling across OCaml domains (Ruleprep at 1/2/4 workers)", Setup_parallel.run);
    ("daemon", "blindboxd end to end: loadgen over Unix sockets at 1/2/4/8 connections", Daemon_bench.run);
    ("counters", "Verdict step: exact per-delivery counters vs bench/baseline.json (10% gate)", Counters.run);
  ]

let () =
  (* flags like --smoke are read by the experiments themselves;
     --metrics takes a value, which must not be mistaken for a name *)
  let rec parse names metrics = function
    | [] -> (List.rev names, metrics)
    | "--metrics" :: path :: rest -> parse names (Some path) rest
    | a :: rest when String.length a > 0 && a.[0] = '-' -> parse names metrics rest
    | a :: rest -> parse (a :: names) metrics rest
  in
  let args, metrics_path = parse [] None (List.tl (Array.to_list Sys.argv)) in
  let requested =
    match args with
    | [] | [ "all" ] -> List.map (fun (n, _, _) -> n) experiments
    | args -> args
  in
  List.iter
    (fun name ->
       match List.find_opt (fun (n, _, _) -> n = name) experiments with
       | Some (_, descr, run) ->
         Printf.printf "\n>>> %s\n%!" descr;
         let t0 = Unix.gettimeofday () in
         run ();
         Printf.printf "    [%s done in %.1f s]\n%!" name (Unix.gettimeofday () -. t0)
       | None ->
         Printf.eprintf "unknown experiment %S; available: %s all\n" name
           (String.concat " " (List.map (fun (n, _, _) -> n) experiments));
         exit 2)
    requested;
  let path = Option.value metrics_path ~default:"BENCH_obs.json" in
  Bbx_obs.Obs.save ~path;
  Printf.printf "\nmetric snapshot written to %s\n%!" path
