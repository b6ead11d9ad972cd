(* The blindbox command-line tool.

   Subcommands:
     classify   parse a Snort-dialect ruleset and report Protocol I/II/III coverage
     generate   emit a synthetic ruleset with a named dataset's statistics
     tokenize   show the tokens the sender would emit for a payload
     inspect    run payloads through a full in-process BlindBox connection
     stats      drive a sample trace and render the bbx_obs metric registry
                (or, with --socket, query a running blindboxd)
     serve      run blindboxd: the middlebox as a network daemon
     loadgen    drive a running blindboxd with N concurrent senders
     migrate    move a live monitored connection between two daemons

   Every subcommand takes [--metrics FILE] to dump the metric registry on
   exit (JSONL for .json/.jsonl paths, Prometheus text otherwise). *)

open Cmdliner
open Bbx_rules
module Obs = Bbx_obs.Obs
module Dpienc = Bbx_dpienc.Dpienc
module Tokenizer = Bbx_tokenizer.Tokenizer

(* [--metrics FILE]: shared by all subcommands; wraps each command's body
   so the snapshot is written after the run. *)
let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write the bbx_obs metric snapshot to $(docv) on exit \
               (JSONL when $(docv) ends in .json/.jsonl, Prometheus text otherwise).")

let with_metrics metrics f =
  let r = f () in
  (match metrics with None -> () | Some path -> Obs.save ~path);
  r

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let read_stdin () =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf stdin 1
     done
   with End_of_file -> ());
  Buffer.contents buf

(* ---- classify ---- *)

let classify_cmd =
  let run path metrics =
    with_metrics metrics @@ fun () ->
    match Parser.parse_ruleset (read_file path) with
    | exception Parser.Syntax_error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      exit 1
    | rules ->
      let f1, f2, f3 = Classify.fractions rules in
      Printf.printf "%d rules\n" (List.length rules);
      Printf.printf "Protocol I   (single exact keyword): %5.1f%%\n" (100. *. f1);
      Printf.printf "Protocol II  (multi-keyword+offsets): %5.1f%%\n" (100. *. f2);
      Printf.printf "Protocol III (full IDS, pcre):        %5.1f%%\n" (100. *. f3);
      Printf.printf "distinct keywords: %d\n" (List.length (Datasets.distinct_keywords rules));
      Printf.printf "distinct 8-byte chunks to prepare: %d\n"
        (Array.length (Bbx_mbox.Engine.distinct_chunks rules))
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"RULES" ~doc:"Snort-dialect rules file.") in
  Cmd.v (Cmd.info "classify" ~doc:"Classify a ruleset into BlindBox protocols")
    Term.(const run $ path $ metrics_arg)

(* ---- generate ---- *)

let dataset_conv =
  let parse s =
    match
      List.find_opt
        (fun ds -> String.lowercase_ascii (Datasets.name ds) |> fun n ->
          n = String.lowercase_ascii s
          || String.concat "-" (String.split_on_char ' ' n) = String.lowercase_ascii s)
        Datasets.all
    with
    | Some ds -> Ok ds
    | None ->
      Error (`Msg (Printf.sprintf "unknown dataset %S; one of: %s" s
                     (String.concat ", " (List.map Datasets.name Datasets.all))))
  in
  Arg.conv (parse, fun fmt ds -> Format.pp_print_string fmt (Datasets.name ds))

let generate_cmd =
  let run ds n seed metrics =
    with_metrics metrics @@ fun () ->
    List.iter (fun r -> print_endline (Rule.to_string r)) (Datasets.generate ~seed ds ~n)
  in
  let ds =
    Arg.(required & pos 0 (some dataset_conv) None
         & info [] ~docv:"DATASET" ~doc:"Dataset name (e.g. 'Lastline', 'parental-filtering').")
  in
  let n = Arg.(value & opt int 100 & info [ "n" ] ~doc:"Number of rules.") in
  let seed = Arg.(value & opt string "blindbox-dataset" & info [ "seed" ] ~doc:"Generator seed.") in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a synthetic ruleset with a dataset's statistics")
    Term.(const run $ ds $ n $ seed $ metrics_arg)

(* ---- tokenize ---- *)

let tokenize_cmd =
  let run window short_units metrics =
    with_metrics metrics @@ fun () ->
    let payload = read_stdin () in
    let fold = if window then Tokenizer.fold_window else Tokenizer.fold_delimiter ~short_units in
    let printable c =
      if c >= ' ' && c <= '~' then String.make 1 c else Printf.sprintf "\\x%02x" (Char.code c)
    in
    let count =
      fold payload ~init:0 ~f:(fun n ~off ~len ->
          (* a short unit's token is the unit zero-padded *)
          let tok = String.sub payload off len in
          let tok = if len < Tokenizer.token_len then Tokenizer.pad_short tok else tok in
          Printf.printf "%6d  " off;
          String.iter (fun c -> print_string (printable c)) tok;
          print_char '\n';
          n + 1)
    in
    Printf.printf "-- %d tokens for %d bytes\n" count (String.length payload)
  in
  let window = Arg.(value & flag & info [ "window" ] ~doc:"Window-based tokenization (default: delimiter).") in
  let shorts = Arg.(value & flag & info [ "short-units" ] ~doc:"Also emit padded short units.") in
  Cmd.v (Cmd.info "tokenize" ~doc:"Tokenize stdin as the BlindBox sender would")
    Term.(const run $ window $ shorts $ metrics_arg)

(* ---- inspect ---- *)

let print_alert v =
  Printf.printf "ALERT   sid:%d %s (%s, %s)\n%!"
    (Option.value v.Bbx_mbox.Engine.rule.Rule.sid ~default:0)
    (Option.value v.Bbx_mbox.Engine.rule.Rule.msg ~default:"")
    (match Bbx_mbox.Engine.via v.Bbx_mbox.Engine.detail with
     | `Exact_match -> "exact match"
     | `Probable_cause -> "probable cause")
    (Bbx_mbox.Engine.detail_name v.Bbx_mbox.Engine.detail)

(* The middlebox engines' config, one term shared by inspect and serve:
   the DPIEnc mode, which BlindBox protocol the engines may escalate to,
   and the per-flow Protocol III budget. *)
let probable_arg = Arg.(value & flag & info [ "probable-cause" ] ~doc:"Protocol III mode.")

let tier_arg =
  Arg.(value
       & opt
           (enum
              [ ("1", Classify.Protocol_I);
                ("2", Classify.Protocol_II);
                ("3", Classify.Protocol_III) ])
           Classify.Protocol_III
       & info [ "tier" ] ~docv:"N"
         ~doc:"Highest BlindBox protocol the middlebox engines execute: \
               $(b,1) (exact keyword match only), $(b,2) (+ composite \
               multi-keyword/offset rules), $(b,3) (+ full regex rules over \
               the probable-cause-recovered stream, the default).  Rules \
               needing a higher protocol than $(docv) are ignored.")

let budget_bytes_arg =
  Arg.(value & opt int Bbx_mbox.Engine.default_budget.Bbx_mbox.Engine.max_plain_bytes
       & info [ "budget-bytes" ] ~docv:"BYTES"
         ~doc:"Per-flow cap on recovered plaintext retained for Protocol III \
               escalation (0 = unlimited).  A flow past its budget is flagged \
               (budget-exceeded verdict), not matched.")

let budget_ms_arg =
  Arg.(value & opt int 0
       & info [ "budget-ms" ] ~docv:"MS"
         ~doc:"Per-flow cap on regex-confirmation scan time in milliseconds \
               (0 = unlimited, the default).")

let mode_of probable = if probable then Dpienc.Probable else Dpienc.Exact

let tokenization_of window =
  if window then Dpienc.Window else Dpienc.Delimiter { short_units = false }

let inspect_config_term =
  let make probable tier max_plain_bytes max_scan_ms =
    { Bbx_mbox.Engine.mode = mode_of probable; tier;
      budget = { Bbx_mbox.Engine.max_plain_bytes; max_scan_ms } }
  in
  Term.(const make $ probable_arg $ tier_arg $ budget_bytes_arg $ budget_ms_arg)

let inspect_cmd =
  let run rules_path inspect window domains garbled setup_domains metrics =
    with_metrics metrics @@ fun () ->
    let rules =
      match Parser.parse_ruleset (read_file rules_path) with
      | exception Parser.Syntax_error msg ->
        Printf.eprintf "parse error: %s\n" msg;
        exit 1
      | rules -> rules
    in
    let open Blindbox in
    let config =
      { Session.default_config with
        Session.inspect;
        tokenization = tokenization_of window;
        rule_prep = (if garbled then Session.Garbled else Session.Direct);
        setup_domains = max 1 setup_domains }
    in
    if domains > 0 then begin
      (* sharded middlebox: the connection lives on a pool worker domain;
         in Probable mode at tier 3 the submitting side also ships the
         sealed record stream, so probable-cause escalation runs there *)
      Session.Fleet.with_fleet ~config ~domains ~conns:1 ~rules @@ fun fleet ->
      Printf.printf "# sharded middlebox up: %d rules, %d worker domain(s)\n%!"
        (List.length rules) (Session.Fleet.domains fleet);
      try
        while true do
          let line = input_line stdin in
          let seq = Session.Fleet.submit fleet ~conn:0 line in
          let got = ref false in
          Session.Fleet.drain fleet ~f:(fun ~seq:s ~conn_id:_ verdicts ->
              if s = seq then begin
                got := true;
                if verdicts = [] then Printf.printf "clean\n%!"
                else List.iter print_alert verdicts
              end);
          if not !got then Printf.printf "dropped (connection blocked)\n%!"
        done
      with End_of_file -> ()
    end
    else begin
      let session, stats = Session.establish ~config ~rules () in
      Printf.printf "# connection up: %d rules, %d chunks\n%!"
        (List.length rules) stats.Session.chunk_count;
      (try
         while true do
           let line = input_line stdin in
           let d = Session.send session line in
           if d.Session.verdicts = [] then
             Printf.printf "clean   (%d tokens, %d token bytes)\n%!"
               d.Session.token_count d.Session.token_bytes
           else List.iter print_alert d.Session.verdicts
         done
       with End_of_file -> ());
      match Session.mb_recovered_key session with
      | Some _ -> Printf.printf "# middlebox recovered the session key (probable cause fired)\n"
      | None -> Printf.printf "# middlebox never held the session key\n"
    end
  in
  let rules = Arg.(required & pos 0 (some file) None & info [] ~docv:"RULES" ~doc:"Rules file.") in
  let window = Arg.(value & flag & info [ "window" ] ~doc:"Window tokenization.") in
  let domains =
    Arg.(value & opt int 0
         & info [ "domains" ] ~docv:"N"
           ~doc:"Run the middlebox sharded across $(docv) OCaml domains \
                 (0 = sequential in-process connection, the default).")
  in
  let garbled =
    Arg.(value & flag
         & info [ "garbled-setup" ]
           ~doc:"Run real obfuscated rule encryption (garbled circuits + OT) \
                 during connection setup instead of the trusted-simulation \
                 shortcut.  Expect roughly a second per distinct chunk.")
  in
  let setup_domains =
    Arg.(value & opt int 1
         & info [ "setup-domains" ] ~docv:"N"
           ~doc:"Worker domains for the parallel stages of rule preparation \
                 (garbling, equality check, circuit evaluation); only \
                 meaningful with $(b,--garbled-setup).  Output is \
                 byte-identical at any count.")
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:"Run stdin lines through a sender->middlebox->receiver BlindBox connection")
    Term.(const run $ rules $ inspect_config_term $ window $ domains $ garbled $ setup_domains $ metrics_arg)

(* ---- stats ---- *)

(* Drive a sample trace through a full connection so every pipeline stage
   (tokenizer, DPIEnc, detect, engine, session) registers activity, then
   render the registry.  The trace mixes benign HTML-ish lines with
   payloads carrying actual rule keywords, so hit/match counters are
   non-zero in both Exact and Probable modes. *)
(* shared --socket argument for the daemon-aware subcommands *)
let endpoint_conv =
  Arg.conv
    ( (fun s -> Ok (Bbx_daemon.Daemon.endpoint_of_string s)),
      fun fmt e ->
        Format.pp_print_string fmt (Bbx_daemon.Daemon.endpoint_to_string e) )

let stats_cmd =
  let run socket rules_path probable window sends domains conns garbled setup_domains format metrics =
    with_metrics metrics @@ fun () ->
    match socket with
    | Some endpoint ->
      (* query a running blindboxd instead of driving a local trace *)
      let client = Bbx_daemon.Client.connect endpoint in
      let s, body =
        Fun.protect
          ~finally:(fun () -> Bbx_daemon.Client.close client)
          (fun () ->
             let s = Bbx_daemon.Client.stats client in
             (s, Bbx_daemon.Client.metrics client Bbx_wire.Wire.Prometheus))
      in
      let open Bbx_wire.Wire in
      Printf.printf "connections         %d\n" s.s_connections;
      Printf.printf "total tokens        %d\n" s.s_total_tokens;
      Printf.printf "total keyword hits  %d\n" s.s_total_keyword_hits;
      Printf.printf "alerts              %d\n" s.s_alerts;
      Printf.printf "blocked             %d\n" s.s_blocked;
      (* the daemon-side pipeline slice of the registry *)
      let wanted line =
        let has_prefix p =
          String.length line >= String.length p && String.sub line 0 (String.length p) = p
        in
        (* histograms render a dozen bucket lines each; keep _sum/_count *)
        let is_bucket =
          match String.index_opt line '{' with
          | Some i -> i >= 7 && String.sub line (i - 7) 7 = "_bucket"
          | None -> false
        in
        (has_prefix "bbx_daemon_" || has_prefix "bbx_shard" || has_prefix "bbx_exec_"
         || has_prefix "bbx_tier_"
         || has_prefix "# TYPE bbx_daemon_" || has_prefix "# TYPE bbx_shard"
         || has_prefix "# TYPE bbx_exec_" || has_prefix "# TYPE bbx_tier_")
        && not is_bucket
      in
      Printf.printf "-- daemon pipeline metrics --\n";
      List.iter
        (fun line -> if line <> "" && wanted line then print_endline line)
        (String.split_on_char '\n' body)
    | None ->
    let rules =
      match rules_path with
      | Some path ->
        (match Parser.parse_ruleset (read_file path) with
         | exception Parser.Syntax_error msg ->
           Printf.eprintf "parse error: %s\n" msg;
           exit 1
         | rules -> rules)
      | None -> Datasets.generate Datasets.Emerging_threats ~n:50
    in
    let open Blindbox in
    let config =
      { Session.default_config with
        Session.inspect =
          { Bbx_mbox.Engine.default_config with mode = mode_of probable };
        tokenization = tokenization_of window;
        rule_prep = (if garbled then Session.Garbled else Session.Direct);
        setup_domains = max 1 setup_domains }
    in
    (* one keyword per rule woven into otherwise benign traffic *)
    let keywords =
      List.filter_map
        (fun r -> match Rule.keywords r with kw :: _ -> Some kw | [] -> None)
        rules
    in
    let drbg = Bbx_crypto.Drbg.create "blindbox-stats-trace" in
    let payload_for i =
      let benign = Bbx_net.Page.gen_html drbg ~bytes:512 in
      match keywords with
      | [] -> benign
      | kws ->
        let kw = List.nth kws (i mod List.length kws) in
        Printf.sprintf "GET /trace-%d?q=%s HTTP/1.1\r\n%s" i kw benign
    in
    if domains > 0 then begin
      (* same trace, spread round-robin over [conns] connections through a
         domain-sharded middlebox *)
      Session.Fleet.with_fleet ~config ~domains ~conns ~rules @@ fun fleet ->
      for i = 1 to sends do
        ignore (Session.Fleet.submit fleet ~conn:(i mod conns) (payload_for i) : int)
      done;
      Session.Fleet.drain fleet ~f:(fun ~seq:_ ~conn_id:_ _ -> ())
    end
    else begin
      let session, _ = Session.establish ~config ~rules () in
      for i = 1 to sends do
        (try ignore (Session.send session (payload_for i) : Session.delivery)
         with Session.Connection_blocked -> ())
      done
    end;
    match format with
    | `Prometheus -> print_string (Obs.render_prometheus ())
    | `Jsonl -> print_string (Obs.dump_jsonl ())
  in
  let rules =
    Arg.(value & opt (some file) None
         & info [ "rules" ] ~docv:"RULES"
           ~doc:"Snort-dialect rules file (default: 50 synthetic Emerging-Threats rules).")
  in
  let window = Arg.(value & flag & info [ "window" ] ~doc:"Window tokenization.") in
  let sends =
    Arg.(value & opt int 20 & info [ "sends" ] ~doc:"Number of payloads in the sample trace.")
  in
  let domains =
    Arg.(value & opt int 0
         & info [ "domains" ] ~docv:"N"
           ~doc:"Drive the trace through a middlebox sharded across $(docv) \
                 OCaml domains (0 = one sequential connection, the default).")
  in
  let conns =
    Arg.(value & opt int 4
         & info [ "conns" ] ~docv:"C"
           ~doc:"Connections to spread the trace over in sharded mode.")
  in
  let garbled =
    Arg.(value & flag
         & info [ "garbled-setup" ]
           ~doc:"Run real obfuscated rule encryption during setup so the \
                 bbx_ruleprep_* counters (circuits, circuit bytes, OT bytes, \
                 garble/eval seconds) are populated.  Expect roughly a second \
                 per distinct chunk; pair with a small $(b,--rules) file.")
  in
  let setup_domains =
    Arg.(value & opt int 1
         & info [ "setup-domains" ] ~docv:"N"
           ~doc:"Worker domains for the parallel stages of rule preparation; \
                 only meaningful with $(b,--garbled-setup).")
  in
  let format =
    Arg.(value
         & opt (enum [ ("prometheus", `Prometheus); ("jsonl", `Jsonl) ]) `Prometheus
         & info [ "format" ] ~docv:"FORMAT" ~doc:"Output format: prometheus or jsonl.")
  in
  let socket =
    Arg.(value & opt (some endpoint_conv) None
         & info [ "socket" ] ~docv:"ENDPOINT"
           ~doc:"Query a running blindboxd at $(docv) (a Unix-socket path \
                 or tcp:HOST:PORT) instead of driving a local trace.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Drive a sample trace through a BlindBox connection and render the metric registry")
    Term.(const run $ socket $ rules $ probable_arg $ window $ sends $ domains $ conns $ garbled $ setup_domains $ format $ metrics_arg)

(* ---- serve ---- *)

let serve_cmd =
  let run socket rules_path inspect domains high_water rebalance metrics_port
      trace_out metrics =
    with_metrics metrics @@ fun () ->
    let rules =
      match rules_path with
      | Some path ->
        (match Parser.parse_ruleset (read_file path) with
         | exception Parser.Syntax_error msg ->
           Printf.eprintf "parse error: %s\n" msg;
           exit 1
         | rules -> rules)
      | None -> Datasets.generate Datasets.Emerging_threats ~n:50
    in
    let endpoint = Bbx_daemon.Daemon.endpoint_of_string socket in
    let metrics_ep =
      Option.map (fun p -> Bbx_daemon.Daemon.Tcp ("127.0.0.1", p)) metrics_port
    in
    let cfg =
      Bbx_daemon.Daemon.config ~inspect ?domains ~high_water
        ?rebalance_every:rebalance ?metrics:metrics_ep ?trace_out ~endpoint
        ~rules ()
    in
    let stopping = Atomic.make false in
    let on_signal _ = Atomic.set stopping true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Printf.printf "# blindboxd listening on %s (%d rules, %s mode, tier %d)\n%!"
      (Bbx_daemon.Daemon.endpoint_to_string endpoint)
      (List.length rules)
      (match inspect.Bbx_mbox.Engine.mode with
       | Dpienc.Probable -> "probable-cause"
       | Dpienc.Exact -> "exact")
      (Classify.rank inspect.Bbx_mbox.Engine.tier);
    (match metrics_port with
     | Some p -> Printf.printf "# metrics on http://127.0.0.1:%d/metrics\n%!" p
     | None -> ());
    (match trace_out with
     | Some f -> Printf.printf "# flight recorder on; dumping to %s at exit\n%!" f
     | None -> ());
    Bbx_daemon.Daemon.run ~stop:(fun () -> Atomic.get stopping) cfg;
    Printf.printf "# blindboxd stopped\n%!"
  in
  let socket =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ENDPOINT"
           ~doc:"Where to listen: a Unix-socket path or tcp:HOST:PORT.")
  in
  let rules =
    Arg.(value & opt (some file) None
         & info [ "rules" ] ~docv:"RULES"
           ~doc:"Snort-dialect rules file (default: 50 synthetic Emerging-Threats rules).")
  in
  let domains =
    Arg.(value & opt (some int) None
         & info [ "domains" ] ~docv:"N" ~doc:"Shard-pool worker domains.")
  in
  let high_water =
    Arg.(value & opt int (1 lsl 20)
         & info [ "high-water" ] ~docv:"BYTES"
           ~doc:"Per-connection output-buffer bytes before reads from a \
                 slow consumer pause.")
  in
  let rebalance =
    Arg.(value & opt (some float) None
         & info [ "rebalance" ] ~docv:"SECS"
           ~doc:"Rebalance monitored connections across shard domains every \
                 $(docv) seconds (live migration through each connection's \
                 FIFO mailbox; verdicts are unaffected).  Off by default.")
  in
  let metrics_port =
    Arg.(value & opt (some int) None
         & info [ "metrics-port" ] ~docv:"PORT"
           ~doc:"Serve live metrics over HTTP/1.0 on 127.0.0.1:$(docv): \
                 GET /metrics (Prometheus text), /metrics.jsonl (JSONL), \
                 /trace (Chrome trace-event JSON).")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Enable the flight recorder and dump its window to $(docv) \
                 at shutdown (JSONL when $(docv) ends in .jsonl, Chrome \
                 trace-event JSON otherwise).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run blindboxd: the BlindBox middlebox as a network daemon")
    Term.(const run $ socket $ rules $ inspect_config_term $ domains $ high_water $ rebalance $ metrics_port $ trace_out $ metrics_arg)

(* ---- trace ---- *)

let trace_cmd =
  let run socket out scope metrics =
    with_metrics metrics @@ fun () ->
    let endpoint = Bbx_daemon.Daemon.endpoint_of_string socket in
    let client = Bbx_daemon.Client.connect endpoint in
    let body =
      Fun.protect
        ~finally:(fun () -> Bbx_daemon.Client.close client)
        (fun () -> Bbx_daemon.Client.metrics client scope)
    in
    match out with
    | None -> print_string body
    | Some path ->
      let oc = open_out path in
      output_string oc body;
      close_out oc;
      Printf.eprintf "# wrote %d bytes to %s\n" (String.length body) path
  in
  let socket =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ENDPOINT"
           ~doc:"Daemon endpoint: a Unix-socket path or tcp:HOST:PORT.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write to $(docv) instead of stdout.")
  in
  let scope =
    Arg.(value
         & opt
             (enum
                [ ("chrome", Bbx_wire.Wire.Trace);
                  ("prometheus", Bbx_wire.Wire.Prometheus);
                  ("jsonl", Bbx_wire.Wire.Jsonl) ])
             Bbx_wire.Wire.Trace
         & info [ "format" ] ~docv:"FORMAT"
           ~doc:"$(b,chrome) (flight-recorder window as Chrome trace-event \
                 JSON, the default — load in chrome://tracing or Perfetto), \
                 or the metric registry as $(b,prometheus)/$(b,jsonl).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Capture a running blindboxd's flight-recorder window (or metric registry)")
    Term.(const run $ socket $ out $ scope $ metrics_arg)

(* ---- migrate ---- *)

(* Live-migration demo: stream stdin lines through a monitored connection
   on SRC, move the connection to DST halfway (export -> import, engine
   state and all), and keep streaming — sender-side keys and salt
   counters carry over untouched.  Sticky verdicts from the first half
   re-report identically on DST, demonstrating state continuity. *)
let migrate_cmd =
  let run src dst probable seed metrics =
    with_metrics metrics @@ fun () ->
    let module Client = Bbx_daemon.Client in
    let module Wire = Bbx_wire.Wire in
    let mode = mode_of probable in
    let lines = ref [] in
    (try
       while true do lines := input_line stdin :: !lines done
     with End_of_file -> ());
    let lines = Array.of_list (List.rev !lines) in
    let n = Array.length lines in
    if n = 0 then begin
      Printf.eprintf "migrate: no stdin lines to stream\n";
      exit 1
    end;
    let s = Client.establish (Bbx_daemon.Daemon.endpoint_of_string src) ~mode ~salt0:0 ~seed in
    let sender = Dpienc.sender_create mode s.Client.sc_key ~salt0:0 in
    let writer =
      if probable then
        Some (Bbx_tls.Record.create ~key:s.Client.sc_k_ssl ~direction:"client->server" ())
      else None
    in
    let k_ssl = if probable then Some s.Client.sc_k_ssl else None in
    let base = ref 0 in
    let send_line s i line =
      let buf = Buffer.create (4 * String.length line) in
      ignore
        (Dpienc.sender_encrypt_into sender ?k_ssl ~base:!base
           ~tokenization:(Dpienc.Delimiter { short_units = false }) line buf
         : int);
      base := !base + String.length line;
      (match writer with
       | Some w ->
         Client.send_record s.Client.sc_client ~seq:i
           (Bbx_tls.Record.seal w ("T" ^ line))
       | None -> ());
      Client.send_records s.Client.sc_client ~seq:i (Buffer.contents buf);
      let _seq, status, verdicts = Client.recv_verdict s.Client.sc_client in
      (match status with
       | Wire.Clean -> Printf.printf "clean   #%d\n%!" i
       | Wire.Dropped -> Printf.printf "dropped #%d (connection blocked)\n%!" i
       | Wire.Alerts ->
         List.iter
           (fun v ->
              Printf.printf "ALERT   #%d sid:%d %s\n%!" i v.Wire.v_sid v.Wire.v_msg)
           verdicts)
    in
    let half = (n + 1) / 2 in
    Printf.printf "# streaming %d/%d lines to %s\n%!" half n src;
    for i = 0 to half - 1 do send_line s i lines.(i) done;
    let s, pending = Client.migrate s (Bbx_daemon.Daemon.endpoint_of_string dst) in
    List.iter
      (fun (seq, _status, vs) ->
         List.iter
           (fun v ->
              Printf.printf "ALERT   #%d sid:%d %s (in flight at export)\n%!"
                seq v.Wire.v_sid v.Wire.v_msg)
           vs)
      pending;
    Printf.printf "# migrated connection to %s (conn_id %d there)\n%!" dst
      s.Client.sc_conn_id;
    for i = half to n - 1 do send_line s i lines.(i) done;
    Client.close s.Client.sc_client;
    Printf.printf "# done: %d lines, migrated after %d\n%!" n half
  in
  let src =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"SRC" ~doc:"Source daemon endpoint.")
  in
  let dst =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"DST" ~doc:"Destination daemon endpoint.")
  in
  let seed = Arg.(value & opt string "blindbox-migrate" & info [ "seed" ] ~doc:"Handshake seed.") in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:"Stream stdin through a monitored connection, live-migrating it \
             between two blindboxd daemons halfway")
    Term.(const run $ src $ dst $ probable_arg $ seed $ metrics_arg)

(* ---- loadgen ---- *)

let loadgen_cmd =
  let run socket conns sends rate inflight payload_bytes hit_rate probable seed json metrics =
    with_metrics metrics @@ fun () ->
    let mode = mode_of probable in
    let cfg =
      Bbx_daemon.Loadgen.cfg ~conns ~sends ~rate ~inflight ~payload_bytes
        ~hit_rate ~mode ~seed
        (Bbx_daemon.Daemon.endpoint_of_string socket)
    in
    let report = Bbx_daemon.Loadgen.run cfg in
    if json then print_endline (Bbx_daemon.Loadgen.report_json report)
    else Bbx_daemon.Loadgen.print_report stdout report
  in
  let socket =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ENDPOINT"
           ~doc:"Daemon endpoint: a Unix-socket path or tcp:HOST:PORT.")
  in
  let conns = Arg.(value & opt int 4 & info [ "conns" ] ~doc:"Concurrent connections.") in
  let sends = Arg.(value & opt int 200 & info [ "sends" ] ~doc:"TOKEN_STREAM frames per connection.") in
  let rate =
    Arg.(value & opt float 0.
         & info [ "rate" ] ~docv:"FPS"
           ~doc:"Aggregate target rate in frames/s (0 = closed loop, the default).")
  in
  let inflight = Arg.(value & opt int 4 & info [ "inflight" ] ~doc:"Max outstanding frames per connection.") in
  let payload_bytes = Arg.(value & opt int 1024 & info [ "payload-bytes" ] ~doc:"Plaintext bytes per frame.") in
  let hit_rate =
    Arg.(value & opt float 0.02
         & info [ "hit-rate" ] ~doc:"Fraction of frames carrying an alert-rule keyword.")
  in
  let seed = Arg.(value & opt string "loadgen" & info [ "seed" ] ~doc:"Payload/handshake seed.") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.") in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a running blindboxd with N concurrent senders and report latency")
    Term.(const run $ socket $ conns $ sends $ rate $ inflight $ payload_bytes $ hit_rate $ probable_arg $ seed $ json $ metrics_arg)

let () =
  let info = Cmd.info "blindbox" ~version:"1.0.0" ~doc:"Deep packet inspection over encrypted traffic" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ classify_cmd; generate_cmd; tokenize_cmd; inspect_cmd; stats_cmd;
            serve_cmd; loadgen_cmd; trace_cmd; migrate_cmd ]))
