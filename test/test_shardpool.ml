(* Shardpool tests: unit coverage of the pool API plus a qcheck
   differential — the same random interleaved multi-connection delivery
   trace through one sequential Shard and through Shardpool at 1, 2
   and 4 worker domains must produce identical per-delivery verdicts,
   aggregate stats, flow stats and blocked flags.  Connection routing is
   by id and each connection's deliveries stay FIFO on one shard, so
   parallelism must not be observable in the results. *)

open Bbx_dpienc.Dpienc
open Bbx_mbox

let rules =
  [ Bbx_rules.Rule.make ~sid:1 [ Bbx_rules.Rule.make_content "alertkw1" ];
    Bbx_rules.Rule.make ~sid:2 [ Bbx_rules.Rule.make_content "otherkw2" ];
    Bbx_rules.Rule.make ~action:Bbx_rules.Rule.Drop ~sid:3
      [ Bbx_rules.Rule.make_content "dropkw33" ] ]

let key_for conn = key_of_secret (Printf.sprintf "pool-conn-%d" conn)

let direction = "client->server"

let keys_for ?(rules = rules) conn =
  Engine.keys (Engine.ruleset rules) ~enc_chunk:(token_enc (key_for conn))

let register_pool pool conn =
  Shardpool.register pool ~conn_id:conn ~salt0:0 ~direction (fun () -> keys_for conn)

let register_seq mb conn =
  Shard.register mb ~conn_id:conn ~salt0:0 ~direction (keys_for conn)

(* List.map with a guaranteed left-to-right application order (the tests
   map side-effecting functions — sender encryption, submissions,
   sequential processing — where order is the point). *)
let map_in_order f l = List.rev (List.fold_left (fun acc x -> f x :: acc) [] l)

(* One payload's wire, delimiter-tokenized. *)
let wire_of ?k_ssl s payload =
  Bbx_oracle.Records.wire s ?k_ssl ~tokenization:(Delimiter { short_units = false }) payload

(* Wires for one connection's deliveries, in order (each advances the
   sender's salt counters, so the list is computed once and replayed
   verbatim against every middlebox variant). *)
let wires_for conn payloads =
  let s = sender_create Exact (key_for conn) ~salt0:0 in
  map_in_order (wire_of s) payloads

let with_pool ~domains f = Shardpool.with_pool ~domains Engine.default_config f

(* ---------- unit tests ---------- *)

let unit_tests =
  [ Alcotest.test_case "sync process_wire matches Shard semantics" `Quick (fun () ->
        with_pool ~domains:2 @@ fun pool ->
        register_pool pool 1;
        register_pool pool 2;
        let w1 = wires_for 1 [ "x=alertkw1"; "q=dropkw33"; "after" ] in
        let w2 = wires_for 2 [ "benign hello" ] in
        (match (w1, w2) with
         | [ a; d; after ], [ b ] ->
           Alcotest.(check int) "alert" 1
             (List.length (Shardpool.process_wire pool ~conn_id:1 a));
           Alcotest.(check int) "clean" 0
             (List.length (Shardpool.process_wire pool ~conn_id:2 b));
           ignore (Shardpool.process_wire pool ~conn_id:1 d : Engine.verdict list);
           Alcotest.(check bool) "blocked" true (Shardpool.is_blocked pool ~conn_id:1);
           Alcotest.(check bool) "blocked conn raises" true
             (match Shardpool.process_wire pool ~conn_id:1 after with
              | exception Invalid_argument _ -> true
              | _ -> false)
         | _ -> Alcotest.fail "wire setup");
        Alcotest.(check int) "blocked count" 1 (Shardpool.stats pool).Shard.blocked);
    Alcotest.test_case "drain replays verdicts in submission order" `Quick (fun () ->
        with_pool ~domains:4 @@ fun pool ->
        let conns = [ 0; 1; 2; 3; 4; 5 ] in
        List.iter (register_pool pool) conns;
        let seqs =
          List.concat_map
            (fun conn ->
               map_in_order
                 (fun w -> Shardpool.submit pool ~conn_id:conn w)
                 (wires_for conn [ "x=alertkw1"; "benign" ]))
            conns
        in
        let seen = ref [] in
        Shardpool.drain pool ~f:(fun ~seq ~conn_id:_ _ -> seen := seq :: !seen);
        Alcotest.(check (list int)) "all seqs, ascending" seqs (List.rev !seen));
    Alcotest.test_case "deliveries after a drop rule are dropped silently" `Quick (fun () ->
        with_pool ~domains:1 @@ fun pool ->
        register_pool pool 7;
        let wires = wires_for 7 [ "q=dropkw33"; "late one"; "even later" ] in
        let seqs = map_in_order (Shardpool.submit pool ~conn_id:7) wires in
        let got = ref [] in
        Shardpool.drain pool ~f:(fun ~seq ~conn_id:_ _ -> got := seq :: !got);
        (* only the blocking delivery itself reports *)
        Alcotest.(check (list int)) "one callback" [ List.hd seqs ] (List.rev !got);
        Alcotest.(check bool) "blocked" true (Shardpool.is_blocked pool ~conn_id:7));
    Alcotest.test_case "registration rules match Shard" `Quick (fun () ->
        with_pool ~domains:2 @@ fun pool ->
        register_pool pool 1;
        Alcotest.(check bool) "duplicate raises" true
          (match register_pool pool 1 with
           | exception Invalid_argument _ -> true
           | _ -> false);
        Alcotest.(check bool) "unknown submit raises" true
          (match Shardpool.submit pool ~conn_id:99 "" with
           | exception Invalid_argument _ -> true
           | _ -> false);
        Shardpool.unregister pool ~conn_id:1;
        Shardpool.unregister pool ~conn_id:1;  (* idempotent *)
        register_pool pool 1;                  (* id reusable *)
        Alcotest.(check int) "one connection" 1 (Shardpool.stats pool).Shard.connections);
    Alcotest.test_case "worker exceptions surface at drain" `Quick (fun () ->
        let pool = Shardpool.create ~domains:2 Engine.default_config in
        Fun.protect ~finally:(fun () -> Shardpool.shutdown pool) @@ fun () ->
        Shardpool.register pool ~conn_id:1 ~salt0:0 ~direction (fun () ->
            Engine.keys (Engine.ruleset rules) ~enc_chunk:(fun _ -> failwith "oracle exploded"));
        Alcotest.(check bool) "raises" true
          (match Shardpool.drain pool ~f:(fun ~seq:_ ~conn_id:_ _ -> ()) with
           | exception Failure _ -> true
           | _ -> false));
    Alcotest.test_case "shutdown is idempotent and poisons the pool" `Quick (fun () ->
        let pool = Shardpool.create ~domains:2 Engine.default_config in
        Shardpool.shutdown pool;
        Shardpool.shutdown pool;
        Alcotest.(check bool) "use after shutdown raises" true
          (match register_pool pool 1 with
           | exception Invalid_argument _ -> true
           | _ -> false));
  ]

(* ---------- differential: pool vs sequential middlebox ---------- *)

let payload_pool =
  [| "GET /index.html HTTP/1.1";
     "x=alertkw1&noise=1";
     "benign hello world";
     "y=otherkw2 z=alertkw1";
     "more benign filler text";
     "q=dropkw33";
     "tail traffic after things" |]

(* A trace is a list of (conn, payload index) deliveries.  Per-connection
   wires are pre-encrypted in that connection's delivery order and shared
   by the sequential run and every pool run. *)
let wires_of_trace trace =
  let per_conn = Hashtbl.create 8 in
  List.iter
    (fun (conn, p) ->
       let l = Option.value (Hashtbl.find_opt per_conn conn) ~default:[] in
       Hashtbl.replace per_conn conn (payload_pool.(p) :: l))
    trace;
  let streams = Hashtbl.create 8 in
  Hashtbl.iter
    (fun conn payloads ->
       Hashtbl.replace streams conn (ref (wires_for conn (List.rev payloads))))
    per_conn;
  map_in_order
    (fun (conn, _) ->
       let s = Hashtbl.find streams conn in
       match !s with
       | w :: rest ->
         s := rest;
         (conn, w)
       | [] -> assert false)
    trace

let conns_of_trace trace = List.sort_uniq compare (List.map fst trace)

(* verdict lists compared by (rule index, via) *)
let obs_of_verdicts vs =
  List.map (fun v -> (v.Engine.rule_idx, Engine.via v.Engine.detail)) vs

let run_sequential trace =
  let mb = Shard.create Engine.default_config in
  List.iter (register_seq mb) (conns_of_trace trace);
  let results =
    map_in_order
      (fun (conn, wire) ->
         match Shard.process_wire mb ~conn_id:conn wire with
         | vs -> Some (obs_of_verdicts vs)
         | exception Invalid_argument _ -> None)
      (wires_of_trace trace)
  in
  let flows =
    List.map
      (fun conn ->
         (conn, Shard.flow_stats mb ~conn_id:conn, Shard.is_blocked mb ~conn_id:conn))
      (conns_of_trace trace)
  in
  (results, Shard.stats mb, flows)

let run_pool ~domains trace =
  with_pool ~domains @@ fun pool ->
  List.iter (register_pool pool) (conns_of_trace trace);
  let seqs =
    map_in_order (fun (conn, wire) -> Shardpool.submit pool ~conn_id:conn wire)
      (wires_of_trace trace)
  in
  let by_seq = Hashtbl.create 64 in
  Shardpool.drain pool ~f:(fun ~seq ~conn_id:_ vs ->
      Hashtbl.replace by_seq seq (obs_of_verdicts vs));
  let results = List.map (Hashtbl.find_opt by_seq) seqs in
  let flows =
    List.map
      (fun conn ->
         (conn, Shardpool.flow_stats pool ~conn_id:conn, Shardpool.is_blocked pool ~conn_id:conn))
      (conns_of_trace trace)
  in
  (results, Shardpool.stats pool, flows)

let arb_trace =
  let print trace =
    String.concat ";" (List.map (fun (c, p) -> Printf.sprintf "%d:%d" c p) trace)
  in
  QCheck.make ~print
    QCheck.Gen.(
      let* n_conns = int_range 1 6 in
      let* len = int_range 1 30 in
      list_size (return len)
        (let* c = int_range 0 (n_conns - 1) in
         let* p = int_range 0 (Array.length payload_pool - 1) in
         (* scattered, non-dense ids so routing exercises the modulo *)
         return (3 + (c * 5), p)))

let diff_tests =
  let prop domains =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:(Printf.sprintf "pool@%d matches sequential middlebox" domains)
         ~count:10 arb_trace
         (fun trace ->
            let r_seq, s_seq, f_seq = run_sequential trace in
            let r_pool, s_pool, f_pool = run_pool ~domains trace in
            r_seq = r_pool && s_seq = s_pool && f_seq = f_pool))
  in
  [ prop 1; prop 2; prop 4 ]

(* ---------- migration: verdict/stats invariance ---------- *)

(* Like [run_pool], but with live migrations injected: after every
   [every]-th submission the delivering connection is moved to the next
   shard (its pending deliveries drain through the FIFO mailbox first,
   so mid-stream migration must be invisible in the results). *)
let run_pool_migrating ~domains ~every trace =
  with_pool ~domains @@ fun pool ->
  List.iter (register_pool pool) (conns_of_trace trace);
  let i = ref 0 in
  let seqs =
    map_in_order
      (fun (conn, wire) ->
         let seq = Shardpool.submit pool ~conn_id:conn wire in
         incr i;
         if !i mod every = 0 then
           Shardpool.migrate pool ~conn_id:conn
             ~shard:((Shardpool.conn_shard pool ~conn_id:conn + 1) mod domains);
         seq)
      (wires_of_trace trace)
  in
  let by_seq = Hashtbl.create 64 in
  Shardpool.drain pool ~f:(fun ~seq ~conn_id:_ vs ->
      Hashtbl.replace by_seq seq (obs_of_verdicts vs));
  let results = List.map (Hashtbl.find_opt by_seq) seqs in
  let flows =
    List.map
      (fun conn ->
         (conn, Shardpool.flow_stats pool ~conn_id:conn, Shardpool.is_blocked pool ~conn_id:conn))
      (conns_of_trace trace)
  in
  (results, Shardpool.stats pool, flows)

let migration_diff_tests =
  let prop (domains, every) =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:(Printf.sprintf "pool@%d migrating every %d matches sequential"
                  domains every)
         ~count:10 arb_trace
         (fun trace ->
            let r_seq, s_seq, f_seq = run_sequential trace in
            let r_mig, s_mig, f_mig = run_pool_migrating ~domains ~every trace in
            r_seq = r_mig && s_seq = s_mig && f_seq = f_mig))
  in
  List.map prop [ (2, 1); (2, 3); (4, 2) ]

(* Probable-mode tier-3 rules for the escalation migration tests. *)
let t3_rules =
  [ Bbx_rules.Parser.parse_rule
      "alert tcp any any -> any any (content:\"userquery\"; \
       pcre:\"/userquery=[0-9]+'/\"; sid:9;)" ]

let t3_details vs =
  List.map (fun v -> (v.Engine.rule_idx, Engine.detail_name v.Engine.detail)) vs

let migration_unit_tests =
  [ Alcotest.test_case "mid-escalation tier-3 migration" `Quick (fun () ->
        (* the sealed record is retained on shard A, the unlocking tokens
           arrive on shard B: escalation state (pending records, record
           sequence) must travel with the connection *)
        let k_ssl = String.make 16 'S' in
        let key = key_for 3 in
        Shardpool.with_pool ~domains:2 { Engine.default_config with mode = Probable }
        @@ fun pool ->
        Shardpool.register pool ~conn_id:3 ~salt0:0 ~direction (fun () ->
            keys_for ~rules:t3_rules 3);
        let s = sender_create Probable key ~salt0:0 in
        let writer = Bbx_tls.Record.create ~key:k_ssl ~direction:"client->server" () in
        let p = "GET /?userquery=42' HTTP/1.1" in
        Shardpool.record_stream pool ~conn_id:3
          (Bbx_tls.Record.seal writer ("T" ^ p));
        let from = Shardpool.conn_shard pool ~conn_id:3 in
        Shardpool.migrate pool ~conn_id:3 ~shard:((from + 1) mod 2);
        Alcotest.(check bool) "shard changed" true
          (Shardpool.conn_shard pool ~conn_id:3 <> from);
        let wire = wire_of s ~k_ssl p in
        let vs = Shardpool.process_wire pool ~conn_id:3 wire in
        Alcotest.(check (list (pair int string))) "regex verdict after migration"
          [ (0, "regex-match") ] (t3_details vs));
    Alcotest.test_case "migration between salt reset and next batch" `Quick (fun () ->
        let key = key_for 4 in
        let rules_kw = rules in
        let mk_wires () =
          let s = sender_create Exact key ~salt0:0 in
          let w1 = wire_of s "x=alertkw1" in
          let salt0 = sender_reset s in
          let w2 = wire_of s "y=otherkw2" in
          (w1, salt0, w2)
        in
        let w1, salt0, w2 = mk_wires () in
        (* reference: never migrated *)
        let mb = Shard.create Engine.default_config in
        Shard.register mb ~conn_id:4 ~salt0:0 ~direction (keys_for ~rules:rules_kw 4);
        let r1 = Shard.process_wire mb ~conn_id:4 w1 in
        Shard.engine mb ~conn_id:4 |> fun e -> Engine.reset e ~salt0;
        let r2 = Shard.process_wire mb ~conn_id:4 w2 in
        (* subject: migrated in the reset window, before the next batch *)
        Shardpool.with_pool ~domains:2 Engine.default_config @@ fun pool ->
        Shardpool.register pool ~conn_id:4 ~salt0:0 ~direction (fun () ->
            keys_for ~rules:rules_kw 4);
        let m1 = Shardpool.process_wire pool ~conn_id:4 w1 in
        Shardpool.reset_conn pool ~conn_id:4 ~salt0;
        Shardpool.migrate pool ~conn_id:4
          ~shard:((Shardpool.conn_shard pool ~conn_id:4 + 1) mod 2);
        let m2 = Shardpool.process_wire pool ~conn_id:4 w2 in
        Alcotest.(check (list (pair int string))) "pre-reset batch"
          (t3_details r1) (t3_details m1);
        Alcotest.(check (list (pair int string))) "post-reset batch"
          (t3_details r2) (t3_details m2));
    Alcotest.test_case "rebalance evens out a skewed pool" `Quick (fun () ->
        with_pool ~domains:4 @@ fun pool ->
        let conns = [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
        List.iter (register_pool pool) conns;
        (* skew everything onto shard 0 *)
        List.iter (fun c -> Shardpool.migrate pool ~conn_id:c ~shard:0) conns;
        Alcotest.(check int) "skewed" 8 (Shardpool.conns_per_shard pool).(0);
        let moved = Shardpool.rebalance pool in
        Alcotest.(check bool) "some moved" true (moved > 0);
        Array.iter
          (fun n -> Alcotest.(check int) "even after rebalance" 2 n)
          (Shardpool.conns_per_shard pool);
        (* still routable and processable everywhere *)
        List.iter
          (fun c ->
             ignore (Shardpool.flow_stats pool ~conn_id:c : Shard.flow_stats))
          conns);
    Alcotest.test_case "export removes, import restores, errors reject" `Quick
      (fun () ->
        with_pool ~domains:2 @@ fun pool ->
        register_pool pool 6;
        match wires_for 6 [ "x=alertkw1"; "x=alertkw1 again" ] with
        | [ w1; w2 ] ->
          Alcotest.(check int) "first report" 1
            (List.length (Shardpool.process_wire pool ~conn_id:6 w1));
          let blob = Shardpool.export_conn pool ~conn_id:6 in
          Alcotest.(check bool) "unknown after export" true
            (match Shardpool.submit pool ~conn_id:6 w2 with
             | exception Invalid_argument _ -> true
             | _ -> false);
          Alcotest.(check bool) "corrupt blob rejected" true
            (match Shardpool.import_conn pool ~conn_id:6 (blob ^ "x") with
             | exception Invalid_argument _ -> true
             | _ -> false);
          Shardpool.import_conn pool ~conn_id:6 ~shard:1 blob;
          Alcotest.(check int) "pinned to requested shard" 1
            (Shardpool.conn_shard pool ~conn_id:6);
          Alcotest.(check bool) "duplicate import rejected" true
            (match Shardpool.import_conn pool ~conn_id:6 blob with
             | exception Invalid_argument _ -> true
             | _ -> false);
          (* the decided rules travelled: same keyword, no re-report *)
          Alcotest.(check int) "no re-report after import" 0
            (List.length (Shardpool.process_wire pool ~conn_id:6 w2));
          Alcotest.(check int) "one alert total" 1 (Shardpool.stats pool).Shard.alerts
        | _ -> Alcotest.fail "wire setup");
  ]

let () =
  Alcotest.run "shardpool"
    [ ("unit", unit_tests);
      ("differential", diff_tests);
      ("migration", migration_unit_tests @ migration_diff_tests) ]
