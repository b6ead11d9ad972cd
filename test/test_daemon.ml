(* blindboxd loopback tests.

   The core is a differential: the same pre-encrypted wire deliveries go
   through a daemon over a real Unix-domain socket and through an
   in-process reference middlebox under the same connection key, and the
   two must agree verdict for verdict — including blocked-connection
   semantics (the daemon answers [Dropped] where the in-process API
   raises [Invalid_argument]) and a mid-stream rule update + salt reset.
   The rest is hardening: malformed frames must kill at most their own
   connection, never the daemon. *)

module Daemon = Bbx_daemon.Daemon
module Client = Bbx_daemon.Client
module Loadgen = Bbx_daemon.Loadgen
module Wire = Bbx_wire.Wire
module Sockio = Bbx_wire.Sockio
module Dpienc = Bbx_dpienc.Dpienc
module Rule = Bbx_rules.Rule
module Classify = Bbx_rules.Classify
module Engine = Bbx_mbox.Engine
module Shard = Bbx_mbox.Shard
module Shardpool = Bbx_mbox.Shardpool

let rules =
  [ Rule.make ~sid:1 ~msg:"kw one" [ Rule.make_content "alertkw1" ];
    Rule.make ~sid:2 [ Rule.make_content "otherkw2" ];
    Rule.make ~action:Rule.Drop ~sid:3 [ Rule.make_content "dropkw33" ] ]

let temp_endpoint =
  let n = ref 0 in
  fun () ->
    incr n;
    Daemon.Unix_path
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "bbxd-test-%d-%d.sock" (Unix.getpid ()) !n))

let with_daemon ?(rules = rules) ?(mode = Dpienc.Exact) ?(domains = 2)
    ?(tier = Classify.Protocol_III) f =
  let endpoint = temp_endpoint () in
  let inspect = { Engine.default_config with mode; tier } in
  let handle = Daemon.start (Daemon.config ~inspect ~domains ~endpoint ~rules ()) in
  Fun.protect ~finally:(fun () -> Daemon.stop handle) (fun () -> f endpoint)

(* (sid, detail) pairs, the daemon's view and the engine's view *)
let wire_sigs verdicts = List.map (fun v -> (v.Wire.v_sid, v.Wire.v_detail)) verdicts

let engine_sigs verdicts =
  List.map
    (fun v -> (Option.value v.Engine.rule.Rule.sid ~default:0, v.Engine.detail))
    verdicts

let sig_list =
  Alcotest.(list (pair int (testable
    (fun fmt d -> Format.pp_print_string fmt (Engine.detail_name d)) ( = ))))

(* One payload's wire, delimiter-tokenized. *)
let wire_of ?k_ssl sender payload =
  Bbx_oracle.Records.wire sender ?k_ssl
    ~tokenization:(Dpienc.Delimiter { short_units = false }) payload

(* pre-encrypt one connection's deliveries so the identical wire bytes
   replay against both middleboxes *)
let wires_for sender payloads =
  List.rev (List.fold_left (fun acc p -> wire_of sender p :: acc) [] payloads)

(* The daemon's connections and the in-process references seal and
   register in the same record-layer direction. *)
let direction = "client->server"

let keys_for ?(rules = rules) (s : Client.session) =
  Engine.keys (Engine.ruleset rules) ~enc_chunk:(Dpienc.token_enc s.Client.sc_key)

let differential_vs_shard () =
  with_daemon @@ fun endpoint ->
  let s = Client.establish endpoint ~mode:Dpienc.Exact ~salt0:0 ~seed:"diff" in
  Fun.protect ~finally:(fun () -> Client.close s.Client.sc_client)
  @@ fun () ->
  let reference = Shard.create Engine.default_config in
  Shard.register reference ~conn_id:0 ~salt0:0 ~direction (keys_for s);
  let sender = Dpienc.sender_create Dpienc.Exact s.Client.sc_key ~salt0:0 in
  let payloads =
    [ "GET / HTTP/1.1 benign";
      "q=alertkw1 in the middle";
      "alertkw1 twice alertkw1 and otherkw2";
      "still benign traffic";
      "now trip the drop rule dropkw33 here";   (* blocks the connection *)
      "after the block: alertkw1";               (* daemon: Dropped *)
      "and again" ]
  in
  let wires = wires_for sender payloads in
  List.iteri
    (fun i wire ->
      Client.send_records s.Client.sc_client ~seq:i wire;
      let seq, status, verdicts = Client.recv_verdict s.Client.sc_client in
      Alcotest.(check int) "seq echo" i seq;
      match Shard.process_wire reference ~conn_id:0 wire with
      | ref_verdicts ->
        Alcotest.(check bool) "not dropped" true (status <> Wire.Dropped);
        Alcotest.check sig_list
          (Printf.sprintf "verdicts for delivery %d" i)
          (engine_sigs ref_verdicts) (wire_sigs verdicts)
      | exception Invalid_argument _ ->
        (* in-process: blocked connections raise; daemon: Dropped *)
        Alcotest.(check bool)
          (Printf.sprintf "delivery %d dropped on both" i)
          true (status = Wire.Dropped && verdicts = []))
    wires;
  Alcotest.(check bool) "reference blocked" true
    (Shard.is_blocked reference ~conn_id:0);
  (* aggregate stats agree field for field *)
  let ms = Shard.stats reference in
  let ds = Client.stats s.Client.sc_client in
  Alcotest.(check int) "tokens" ms.Shard.total_tokens ds.Wire.s_total_tokens;
  Alcotest.(check int) "hits" ms.Shard.total_keyword_hits ds.Wire.s_total_keyword_hits;
  Alcotest.(check int) "alerts" ms.Shard.alerts ds.Wire.s_alerts;
  Alcotest.(check int) "blocked" ms.Shard.blocked ds.Wire.s_blocked

(* Mid-stream rule update + salt reset, against a 1-domain Shardpool
   reference (Shardpool.process_wire has Shard's per-delivery
   semantics). *)
let differential_update_and_reset () =
  with_daemon @@ fun endpoint ->
  let s = Client.establish endpoint ~mode:Dpienc.Exact ~salt0:0 ~seed:"upd" in
  Fun.protect ~finally:(fun () -> Client.close s.Client.sc_client)
  @@ fun () ->
  Shardpool.with_pool ~domains:1 Engine.default_config @@ fun reference ->
  Shardpool.register reference ~conn_id:0 ~salt0:0 ~direction (fun () -> keys_for s);
  let sender = Dpienc.sender_create Dpienc.Exact s.Client.sc_key ~salt0:0 in
  let both i wire =
    Client.send_records s.Client.sc_client ~seq:i wire;
    let _, _, verdicts = Client.recv_verdict s.Client.sc_client in
    let ref_verdicts = Shardpool.process_wire reference ~conn_id:0 wire in
    Alcotest.check sig_list
      (Printf.sprintf "verdicts for delivery %d" i)
      (engine_sigs ref_verdicts) (wire_sigs verdicts)
  in
  List.iteri both (wires_for sender [ "hello alertkw1"; "and otherkw2 too" ]);
  (* live update: drop sid 2, add sid 4; then reset salts on both sides *)
  let added_rule = Rule.make ~sid:4 [ Rule.make_content "newkw444" ] in
  let new_rules =
    List.filter (fun r -> r.Rule.sid <> Some 2) rules @ [ added_rule ]
  in
  let added, outstanding =
    Client.update_rules s.Client.sc_client ~remove_sids:[ 2 ]
      ~add:[ added_rule ]
      ~pairs:(Client.pairs_for ~key:s.Client.sc_key new_rules)
  in
  Alcotest.(check int) "added" 1 added;
  Alcotest.(check int) "no outstanding verdicts" 0 (List.length outstanding);
  Shardpool.update_rules reference ~conn_id:0 (fun () -> keys_for ~rules:new_rules s);
  let salt0' = Dpienc.sender_reset sender in
  Client.salt_reset s.Client.sc_client ~salt0:salt0';
  Shardpool.reset_conn reference ~conn_id:0 ~salt0:salt0';
  List.iteri
    (fun i w -> both (100 + i) w)
    (wires_for sender
       [ "newkw444 must now alert";
         "otherkw2 must now be clean";
         "alertkw1 still alerts" ])

(* A RULE_UPDATE is one connection's business.  With ~domains:1 every
   connection shares one shard, so an update that leaked into the shard
   would reach every later registration: a removal would silently drop
   the rule for clients that never asked, and an addition would make
   later clients' engines ask for a chunk they never shipped — raising on
   the worker and taking the daemon down. *)
let establish_and_update ~seed ~remove_sids ~add endpoint =
  let a = Client.establish endpoint ~mode:Dpienc.Exact ~salt0:0 ~seed in
  ignore
    (Client.update_rules a.Client.sc_client ~remove_sids ~add
       ~pairs:(Client.pairs_for ~key:a.Client.sc_key (Engine.next_rules rules ~remove_sids ~add))
     : int * _ list);
  a

let verdict_sids s payload =
  let sender = Dpienc.sender_create Dpienc.Exact s.Client.sc_key ~salt0:0 in
  List.iteri (fun i w -> Client.send_records s.Client.sc_client ~seq:i w)
    (wires_for sender [ payload ]);
  let _, _, verdicts = Client.recv_verdict s.Client.sc_client in
  List.map (fun v -> v.Wire.v_sid) verdicts

let removal_stays_with_its_connection () =
  with_daemon ~domains:1 @@ fun endpoint ->
  let a = establish_and_update ~seed:"upd-a" ~remove_sids:[ 2 ] ~add:[] endpoint in
  Fun.protect ~finally:(fun () -> Client.close a.Client.sc_client) @@ fun () ->
  let b = Client.establish endpoint ~mode:Dpienc.Exact ~salt0:0 ~seed:"upd-b" in
  Fun.protect ~finally:(fun () -> Client.close b.Client.sc_client) @@ fun () ->
  Alcotest.(check (list int)) "B still gets sid 2" [ 2 ] (verdict_sids b "q=otherkw2 x")

let addition_stays_with_its_connection () =
  with_daemon ~domains:1 @@ fun endpoint ->
  let added = Rule.make ~sid:9 [ Rule.make_content "freshkw9" ] in
  let a = establish_and_update ~seed:"add-a" ~remove_sids:[] ~add:[ added ] endpoint in
  Fun.protect ~finally:(fun () -> Client.close a.Client.sc_client) @@ fun () ->
  let c = Client.establish endpoint ~mode:Dpienc.Exact ~salt0:0 ~seed:"add-c" in
  Fun.protect ~finally:(fun () -> Client.close c.Client.sc_client) @@ fun () ->
  Alcotest.(check (list int)) "C gets its verdicts" [ 1 ] (verdict_sids c "q=alertkw1 x");
  let monitor = Client.connect endpoint in
  Fun.protect ~finally:(fun () -> Client.close monitor) @@ fun () ->
  Alcotest.(check int) "STATS answers: A and C registered" 2
    (Client.stats monitor).Wire.s_connections

(* ---------- tiered escalation over the wire ----------

   A client ships each delivery's sealed SSL record (RECORD_STREAM)
   before its token stream and gets VERDICT frames back, whose detail
   byte says which protocol fired.  The same deliveries replay against
   an in-process Shard at the same tier. *)

module Record = Bbx_tls.Record

let tiered_rules =
  [ Rule.make ~sid:1 ~msg:"exact" [ Rule.make_content "alertkw1" ];
    Rule.make ~sid:2 ~msg:"composite"
      [ Rule.make_content "firstkey"; Rule.make_content "secondkey" ];
    Bbx_rules.Parser.parse_rule
      "alert tcp any any -> any any (msg:\"decrypt\"; content:\"userquery\"; \
       pcre:\"/userquery=[0-9]+'/\"; sid:3;)" ]

let tiered_payloads =
  [ "x=alertkw1 benign";
    "y=firstkey then z=secondkey";
    "GET /?userquery=42' HTTP/1.1";
    "plain benign traffic" ]

let tiered_differential () =
  List.iter
    (fun tier ->
      with_daemon ~rules:tiered_rules ~mode:Dpienc.Probable ~tier
      @@ fun endpoint ->
      let s =
        Client.establish endpoint ~mode:Dpienc.Probable ~salt0:0
          ~seed:(Printf.sprintf "tiered-%d" (Classify.rank tier))
      in
      Fun.protect ~finally:(fun () -> Client.close s.Client.sc_client)
      @@ fun () ->
      let reference =
        Shard.create { Engine.default_config with mode = Dpienc.Probable; tier }
      in
      Shard.register reference ~conn_id:0 ~salt0:0 ~direction
        (keys_for ~rules:tiered_rules s);
      let sender = Dpienc.sender_create Dpienc.Probable s.Client.sc_key ~salt0:0 in
      (* two same-keyed writers so daemon and reference each get a
         well-sequenced copy of the record stream *)
      let writer_d = Record.create ~key:s.Client.sc_k_ssl ~direction:"client->server" () in
      let writer_r = Record.create ~key:s.Client.sc_k_ssl ~direction:"client->server" () in
      let all = ref [] in
      List.iteri
        (fun i payload ->
          let wire = wire_of sender ~k_ssl:s.Client.sc_k_ssl payload in
          (* record first, tokens second: same FIFO, stream order *)
          Client.send_record s.Client.sc_client ~seq:i
            (Record.seal writer_d ("T" ^ payload));
          Client.send_records s.Client.sc_client ~seq:i wire;
          let seq, _status, verdicts = Client.recv_verdict s.Client.sc_client in
          Alcotest.(check int) "seq echo" i seq;
          Shard.record_stream reference ~conn_id:0
            (Record.seal writer_r ("T" ^ payload));
          let ref_verdicts = Shard.process_wire reference ~conn_id:0 wire in
          Alcotest.check sig_list
            (Printf.sprintf "tier %d delivery %d" (Classify.rank tier) i)
            (engine_sigs ref_verdicts) (wire_sigs verdicts);
          all := !all @ wire_sigs verdicts)
        tiered_payloads;
      (* absolute expectation per tier, not just reference parity *)
      let expected =
        match Classify.rank tier with
        | 1 -> [ (1, `Exact_hit) ]
        | 2 -> [ (1, `Exact_hit); (2, `Composite_match) ]
        | _ -> [ (1, `Exact_hit); (2, `Composite_match); (3, `Regex_match) ]
      in
      Alcotest.check sig_list
        (Printf.sprintf "tier %d fired classes" (Classify.rank tier))
        expected
        (List.sort compare !all))
    [ Classify.Protocol_I; Classify.Protocol_II; Classify.Protocol_III ]

(* [Client.establish] sends HELLO with features = 0: the client that
   used to get detail-less frames, and read the composite rule back as an
   exact hit.  Every client now reads the detail the engine decided. *)
let features_zero_reads_details () =
  with_daemon ~rules:tiered_rules ~mode:Dpienc.Probable @@ fun endpoint ->
  let s = Client.establish endpoint ~mode:Dpienc.Probable ~salt0:0 ~seed:"leg" in
  Fun.protect ~finally:(fun () -> Client.close s.Client.sc_client)
  @@ fun () ->
  let sender = Dpienc.sender_create Dpienc.Probable s.Client.sc_key ~salt0:0 in
  let all = ref [] in
  List.iteri
    (fun i payload ->
      Client.send_records s.Client.sc_client ~seq:i
        (wire_of sender ~k_ssl:s.Client.sc_k_ssl payload);
      let _, _, verdicts = Client.recv_verdict s.Client.sc_client in
      all := !all @ wire_sigs verdicts)
    [ "x=alertkw1 benign"; "y=firstkey then z=secondkey" ];
  Alcotest.check sig_list "details carried, not inferred"
    [ (1, `Exact_hit); (2, `Composite_match) ]
    (List.sort compare !all)

(* Two clients; one dies mid-stream, the other must be unaffected. *)
let isolation () =
  with_daemon @@ fun endpoint ->
  let a = Client.establish endpoint ~mode:Dpienc.Exact ~salt0:0 ~seed:"a" in
  let b = Client.establish endpoint ~mode:Dpienc.Exact ~salt0:0 ~seed:"b" in
  Fun.protect
    ~finally:(fun () ->
      Client.close a.Client.sc_client;
      Client.close b.Client.sc_client)
  @@ fun () ->
  let sender_b = Dpienc.sender_create Dpienc.Exact b.Client.sc_key ~salt0:0 in
  (* a sends garbage records — its connection must die with an ERROR *)
  Client.send_records a.Client.sc_client ~seq:0 "garbage that is no record";
  Alcotest.(check bool) "a killed" true
    (match Client.recv_verdict a.Client.sc_client with
     | exception Client.Server_error _ -> true
     | exception End_of_file -> true
     | _ -> false);
  (* one malformed token stream per class, each on its own connection,
     each refused with an ERROR *)
  List.iter
    (fun (name, body) ->
      let c = Client.establish endpoint ~mode:Dpienc.Exact ~salt0:0 ~seed:name in
      Fun.protect ~finally:(fun () -> Client.close c.Client.sc_client) @@ fun () ->
      Client.send_records c.Client.sc_client ~seq:0 body;
      Alcotest.(check bool) (name ^ " draws an ERROR") true
        (match Client.recv_verdict c.Client.sc_client with
         | exception Client.Server_error { code; _ } -> code = Wire.err_malformed
         | _ -> false))
    (("embed bit contradicts the mode", Bbx_oracle.Records.one_record_run ~embed:true)
     :: Bbx_oracle.Records.undecodable);
  (* b still works end to end *)
  List.iteri
    (fun i wire ->
      Client.send_records b.Client.sc_client ~seq:i wire;
      let _, status, verdicts = Client.recv_verdict b.Client.sc_client in
      if i = 0 then
        Alcotest.(check bool) "b alerts" true
          (status = Wire.Alerts && wire_sigs verdicts = [ (1, `Exact_hit) ])
      else Alcotest.(check bool) "b clean" true (status = Wire.Clean))
    (wires_for sender_b [ "alertkw1 here"; "benign" ])

(* Malformed-frame fuzz: every one of these byte strings goes to a fresh
   connection; the daemon must answer with an ERROR frame (or close that
   socket) and still serve a healthy client afterwards. *)
let malformed_fuzz () =
  with_daemon @@ fun endpoint ->
  let oversized =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 0x7FFFFFFFl;
    Bytes.to_string b
  in
  let frame_of_payload p =
    let b = Buffer.create 16 in
    let len = Bytes.create 4 in
    Bytes.set_int32_be len 0 (Int32.of_int (String.length p));
    Buffer.add_bytes b len; Buffer.add_string b p;
    Buffer.contents b
  in
  let drbg = Bbx_crypto.Drbg.create "daemon-fuzz" in
  let cases =
    [ "";                                        (* close without a byte *)
      "\x00";                                    (* truncated length *)
      "\x00\x00\x00\x00";                        (* zero-length payload *)
      oversized;                                 (* 2 GiB length prefix *)
      frame_of_payload "\x63";                   (* unknown type byte *)
      frame_of_payload "\x05\x00\x00\x00\x01";   (* truncated TOKEN_STREAM *)
      frame_of_payload "\x01\x01\x07\x00\x00\x00\x00"; (* bad HELLO mode *)
      (* TOKEN_STREAM before HELLO: well-formed, illegal state *)
      String.sub (Wire.encode_frame_string (Wire.Token_stream { seq = 0; records = "" })) 0 9
      ^ "";
      Wire.encode_frame_string (Wire.Token_stream { seq = 0; records = "" });
      Wire.encode_frame_string Wire.Setup_ok;    (* server-only message *)
      Wire.encode_frame_string
        (Wire.Hello { version = 99; mode = Dpienc.Exact; salt0 = 0; features = 0 }) ]
    @ List.init 12 (fun i ->
          Bbx_crypto.Drbg.bytes drbg (8 + (i * 13)))  (* raw random bytes *)
  in
  List.iter
    (fun bytes ->
      let t = Client.connect endpoint in
      let fd = Client.fd t in
      (try
         if String.length bytes > 0 then
           ignore (Unix.write_substring fd bytes 0 (String.length bytes));
         (* half-close so the daemon sees EOF even when the bytes alone
            don't provoke a reply (e.g. a truncated length prefix) *)
         Unix.shutdown fd Unix.SHUTDOWN_SEND
       with Unix.Unix_error _ -> ());
      (* daemon must reply ERROR or close; it must never hang or crash *)
      Alcotest.(check bool) "connection rejected" true
        (match Client.recv_verdict t with
         | exception Client.Server_error _ -> true
         | exception End_of_file -> true
         | exception Client.Protocol_error _ -> true
         | _ -> false);
      Client.close t)
    cases;
  (* the daemon survived all of it *)
  let s = Client.establish endpoint ~mode:Dpienc.Exact ~salt0:0 ~seed:"ok" in
  Fun.protect ~finally:(fun () -> Client.close s.Client.sc_client)
  @@ fun () ->
  let sender = Dpienc.sender_create Dpienc.Exact s.Client.sc_key ~salt0:0 in
  List.iteri
    (fun i wire ->
      Client.send_records s.Client.sc_client ~seq:i wire;
      let _, status, _ = Client.recv_verdict s.Client.sc_client in
      Alcotest.(check bool) "healthy after fuzz" true (status <> Wire.Dropped))
    (wires_for sender [ "alertkw1"; "benign" ])

(* A version-1 client is refused at HELLO, and only that connection
   dies.  Its 12-byte body (a features byte set) draws err_version; its
   features-less 11-byte body no longer parses at all. *)
let version_one_hello_refused () =
  with_daemon @@ fun endpoint ->
  let reply_code frame =
    let t = Client.connect endpoint in
    Fun.protect ~finally:(fun () -> Client.close t) @@ fun () ->
    Sockio.write_string (Client.fd t) frame;
    match Client.recv_verdict t with
    | exception Client.Server_error { code; _ } -> code
    | _ -> -1
  in
  let v1 = Wire.Hello { version = 1; mode = Dpienc.Exact; salt0 = 0; features = 4 } in
  Alcotest.(check int) "version 1 draws err_version" Wire.err_version
    (reply_code (Wire.encode_frame_string v1));
  let eleven =
    let p = Wire.encode_frame_string v1 in
    "\x00\x00\x00\x0b" ^ String.sub p 4 11
  in
  Alcotest.(check int) "11-byte body draws err_malformed" Wire.err_malformed
    (reply_code eleven);
  let s = Client.establish endpoint ~mode:Dpienc.Exact ~salt0:0 ~seed:"v2" in
  Fun.protect ~finally:(fun () -> Client.close s.Client.sc_client)
  @@ fun () ->
  let sender = Dpienc.sender_create Dpienc.Exact s.Client.sc_key ~salt0:0 in
  List.iteri
    (fun i wire ->
      Client.send_records s.Client.sc_client ~seq:i wire;
      let _, status, verdicts = Client.recv_verdict s.Client.sc_client in
      Alcotest.(check bool) "daemon healthy after the refusals" true
        (status = Wire.Alerts && wire_sigs verdicts = [ (1, `Exact_hit) ]))
    (wires_for sender [ "alertkw1 still inspected" ])

(* ---------- rule tables ----------

   A RULE_SETUP or RULE_UPDATE table is valid only in the chunk order
   both ends derive with [Engine.distinct_chunks]: pair [i] carries chunk
   [i], none missing, none extra.  Every other table draws err_setup and
   closes its own connection, on a one-domain daemon whose other
   connections all share that one shard. *)

let err_code f =
  match f () with
  | _ -> -1
  | exception Client.Server_error { code; _ } -> code

(* the daemon closes a connection right after its ERROR frame *)
let closed t =
  match Client.recv_verdict t with
  | exception (End_of_file | Unix.Unix_error _) -> true
  | _ -> false

(* The announced table's defects, each a table the daemon must refuse. *)
let bad_tables pairs =
  let n = Array.length pairs in
  let swapped = Array.copy pairs in
  swapped.(0) <- pairs.(1);
  swapped.(1) <- pairs.(0);
  let altered = Array.copy pairs in
  let chunk, enc = pairs.(n - 1) in
  altered.(n - 1) <- ("x" ^ String.sub chunk 1 (String.length chunk - 1), enc);
  [ ("missing its last pair", Array.sub pairs 0 (n - 1));
    ("with one extra pair", Array.append pairs [| ("extrakw9", enc) |]);
    ("with two pairs swapped", swapped);
    ("with one chunk altered", altered) ]

(* [healthy]'s next delivery of [payload] reports exactly [sids] *)
let still_served healthy sender ~seq payload sids =
  Client.send_records healthy.Client.sc_client ~seq (wire_of sender payload);
  let _, _, verdicts = Client.recv_verdict healthy.Client.sc_client in
  Alcotest.(check (list int)) "healthy client keeps its verdicts" sids
    (List.map (fun v -> v.Wire.v_sid) verdicts)

let bad_setup_tables () =
  with_daemon ~domains:1 @@ fun endpoint ->
  let healthy = Client.establish endpoint ~mode:Dpienc.Exact ~salt0:0 ~seed:"healthy" in
  Fun.protect ~finally:(fun () -> Client.close healthy.Client.sc_client) @@ fun () ->
  let sender = Dpienc.sender_create Dpienc.Exact healthy.Client.sc_key ~salt0:0 in
  let key = Dpienc.key_of_secret "bad-setup" in
  List.iteri
    (fun i (name, table) ->
      let t = Client.connect endpoint in
      Fun.protect ~finally:(fun () -> Client.close t) @@ fun () ->
      ignore (Client.hello t ~mode:Dpienc.Exact ~salt0:0 : int * Rule.t list);
      Alcotest.(check int) ("a table " ^ name ^ " draws err_setup") Wire.err_setup
        (err_code (fun () -> Client.rule_setup t ~pairs:table));
      Alcotest.(check bool) (name ^ ": its connection closed") true (closed t);
      still_served healthy sender ~seq:i
        (if i = 0 then "q=alertkw1 x" else "benign") (if i = 0 then [ 1 ] else []))
    (bad_tables (Client.pairs_for ~key rules));
  let monitor = Client.connect endpoint in
  Fun.protect ~finally:(fun () -> Client.close monitor) @@ fun () ->
  Alcotest.(check int) "only the healthy client registered" 1
    (Client.stats monitor).Wire.s_connections

let bad_update_table () =
  with_daemon ~domains:1 @@ fun endpoint ->
  let healthy = Client.establish endpoint ~mode:Dpienc.Exact ~salt0:0 ~seed:"healthy" in
  Fun.protect ~finally:(fun () -> Client.close healthy.Client.sc_client) @@ fun () ->
  let sender = Dpienc.sender_create Dpienc.Exact healthy.Client.sc_key ~salt0:0 in
  let s = Client.establish endpoint ~mode:Dpienc.Exact ~salt0:0 ~seed:"bad-update" in
  Fun.protect ~finally:(fun () -> Client.close s.Client.sc_client) @@ fun () ->
  let add = [ Rule.make ~sid:9 [ Rule.make_content "freshkw9" ] ] in
  let pairs =
    Client.pairs_for ~key:s.Client.sc_key (Engine.next_rules rules ~remove_sids:[] ~add)
  in
  Alcotest.(check int) "a table missing a post-update chunk draws err_setup" Wire.err_setup
    (err_code (fun () ->
         Client.update_rules s.Client.sc_client ~remove_sids:[] ~add
           ~pairs:(Array.sub pairs 0 (Array.length pairs - 1))));
  Alcotest.(check bool) "its connection closed" true (closed s.Client.sc_client);
  still_served healthy sender ~seq:0 "q=otherkw2 x" [ 2 ]

(* ---------- the endpoint's announced-ruleset entry ---------- *)

module Parser = Bbx_rules.Parser

let announce rules = String.concat "\n" (List.map Rule.to_string rules)

let other_rules =
  [ Rule.make ~sid:11 ~msg:"beta" [ Rule.make_content "betakw11" ];
    Rule.make ~sid:12 [ Rule.make_content "gammakw2" ] ]

let et_text seed =
  announce (Bbx_rules.Datasets.generate ~seed Bbx_rules.Datasets.Emerging_threats ~n:200)

let cold_pairs ~key rules =
  Array.map (fun c -> (c, Dpienc.token_enc key c)) (Engine.distinct_chunks rules)

let pair_table = Alcotest.(array (pair string string))

let one_parse_per_text () =
  let text = et_text "cache-one" in
  let first = Client.rules_of_text text in
  Alcotest.(check bool) "the text's parse" true (first = Parser.parse_ruleset text);
  Alcotest.(check bool) "the same text: physically the same list" true
    (Client.rules_of_text text == first)

let another_text_its_own_parse () =
  let text = announce rules in
  let changed =
    (* one rule's content changed, every other byte the same *)
    let rec at i = if String.sub text i 8 = "otherkw2" then i else at (i + 1) in
    let i = at 0 in
    String.sub text 0 i ^ "otherkw7" ^ String.sub text (i + 8) (String.length text - i - 8)
  in
  let first = Client.rules_of_text text in
  List.iter
    (fun (name, t) ->
      let got = Client.rules_of_text t in
      Alcotest.(check bool) (name ^ ": its own parse") true (got = Parser.parse_ruleset t);
      Alcotest.(check bool) (name ^ ": not the cached rules") false (got = first))
    [ ("a second ruleset", announce other_rules); ("one content changed", changed) ];
  Alcotest.(check bool) "the first text again" true
    (Client.rules_of_text text = Parser.parse_ruleset text)

let pairs_match_cold_derivation () =
  let key = Dpienc.key_of_secret "cache-pairs" in
  let text = et_text "cache-pairs" in
  let cached = Client.rules_of_text text in
  Alcotest.check pair_table "the cached list" (cold_pairs ~key cached)
    (Client.pairs_for ~key cached);
  let equal_copy = Parser.parse_ruleset text in
  Alcotest.check pair_table "an equal list that is not the entry's"
    (cold_pairs ~key equal_copy) (Client.pairs_for ~key equal_copy);
  ignore (Client.rules_of_text (announce other_rules) : Rule.t list);
  Alcotest.check pair_table "a list the entry no longer holds" (cold_pairs ~key cached)
    (Client.pairs_for ~key cached)

(* One process, two daemons with different rulesets, connections taking
   turns: every connection gets its daemon's rules and verdicts. *)
let alternating_daemons () =
  with_daemon @@ fun endpoint_a ->
  with_daemon ~rules:other_rules @@ fun endpoint_b ->
  for round = 0 to 2 do
    List.iter
      (fun (name, endpoint, rules, sids) ->
        let s =
          Client.establish endpoint ~mode:Dpienc.Exact ~salt0:0
            ~seed:(Printf.sprintf "alt-%s-%d" name round)
        in
        Fun.protect ~finally:(fun () -> Client.close s.Client.sc_client) @@ fun () ->
        Alcotest.(check bool) (name ^ " announced its rules") true (s.Client.sc_rules = rules);
        Alcotest.(check (list int)) (name ^ " verdicts") sids
          (verdict_sids s "q=alertkw1 and betakw11 x"))
      [ ("A", endpoint_a, rules, [ 1 ]); ("B", endpoint_b, other_rules, [ 11 ]) ]
  done

let two_domains_two_texts () =
  let key = Dpienc.key_of_secret "cache-domains" in
  let texts = [| et_text "cache-domain-0"; et_text "cache-domain-1" |] in
  let expected = Array.map Parser.parse_ruleset texts in
  let tables = Array.map (cold_pairs ~key) expected in
  let worker i () =
    let ok = ref true in
    for _ = 1 to 50 do
      let rules = Client.rules_of_text texts.(i) in
      ok := !ok && rules = expected.(i) && Client.pairs_for ~key rules = tables.(i)
    done;
    !ok
  in
  let domains = Array.init 2 (fun i -> Domain.spawn (worker i)) in
  Array.iteri
    (fun i d ->
      Alcotest.(check bool) (Printf.sprintf "domain %d got its own text's rules" i) true
        (Domain.join d))
    domains

(* the loadgen's own pipeline over a real daemon, exact + probable *)
let loadgen_smoke mode () =
  with_daemon ~mode @@ fun endpoint ->
  let report =
    Loadgen.run
      (Loadgen.cfg ~conns:3 ~sends:20 ~payload_bytes:256 ~hit_rate:0.1 ~mode
         ~seed:"lg-test" endpoint)
  in
  Alcotest.(check int) "all frames answered" 60 report.Loadgen.rp_sends;
  Alcotest.(check int) "nothing dropped" 0 report.Loadgen.rp_dropped;
  (* 10% of 20 sends per conn = 2 alert frames per conn *)
  Alcotest.(check int) "alert frames" 6 report.Loadgen.rp_alert_frames;
  Alcotest.(check bool) "tokens flowed" true (report.Loadgen.rp_tokens > 0);
  (* client-side inspected tokens equal the daemon's aggregate *)
  let t = Client.connect endpoint in
  let stats = Fun.protect ~finally:(fun () -> Client.close t)
      (fun () -> Client.stats t) in
  Alcotest.(check int) "token parity" report.Loadgen.rp_tokens
    stats.Wire.s_total_tokens

(* Each loadgen connection is one stream, so a depth constraint counts
   from the start of the stream, not of the frame.  At 10% hits the
   keyword first lands in frame 9, cut in at byte 128: stream offset
   9 * 256 + 128 = 2432, past depth 300, so nothing may fire.  A sender
   that restarts every frame at offset 0 puts it at 128 and alerts. *)
let loadgen_stream_offsets () =
  let rules =
    [ Bbx_rules.Parser.parse_rule
        "alert tcp any any -> any any (msg:\"deep\"; content:\"alertkw1\"; depth:300; sid:1;)" ]
  in
  with_daemon ~rules @@ fun endpoint ->
  let report =
    Loadgen.run
      (Loadgen.cfg ~conns:3 ~sends:20 ~payload_bytes:256 ~hit_rate:0.1 ~seed:"lg-depth"
         endpoint)
  in
  Alcotest.(check int) "all frames answered" 60 report.Loadgen.rp_sends;
  Alcotest.(check int) "no alert past depth" 0 report.Loadgen.rp_alert_frames

(* ---------- live migration across daemons ---------- *)

(* CONN_EXPORT / CONN_STATE / CONN_IMPORT over real sockets: a session
   established on daemon A moves to daemon B mid-stream via
   [Client.migrate].  The sender's key material and salt counters carry
   over unchanged, the decided rules travel with the snapshot (no
   re-report on B), and history stays where it was earned — stats on
   A are untouched by the move.  Both daemons live in this process, so
   [bbx_daemon_conns_active] is the shared registry's view of the pair:
   it must net out to the same value after export (-1) + import (+1). *)
let migrate_between_daemons () =
  let obs_active = Bbx_obs.Obs.gauge "bbx_daemon_conns_active" in
  with_daemon @@ fun endpoint_a ->
  with_daemon @@ fun endpoint_b ->
  let base = Bbx_obs.Obs.gauge_value obs_active in
  let s = Client.establish endpoint_a ~mode:Dpienc.Exact ~salt0:0 ~seed:"mig" in
  let sender = Dpienc.sender_create Dpienc.Exact s.Client.sc_key ~salt0:0 in
  let wires =
    wires_for sender
      [ "before the move: alertkw1";
        "after the move: alertkw1 again";   (* dedup evidence *)
        "and a fresh rule otherkw2" ]
  in
  Alcotest.(check int) "one active conn" (base + 1)
    (Bbx_obs.Obs.gauge_value obs_active);
  Client.send_records s.Client.sc_client ~seq:0 (List.nth wires 0);
  let _, status0, v0 = Client.recv_verdict s.Client.sc_client in
  Alcotest.(check bool) "alert on A before the move" true
    (status0 = Wire.Alerts && wire_sigs v0 = [ (1, `Exact_hit) ]);
  let stats_of endpoint =
    let t = Client.connect endpoint in
    Fun.protect ~finally:(fun () -> Client.close t) (fun () -> Client.stats t)
  in
  let stats_a0 = stats_of endpoint_a in
  let s2, pending = Client.migrate s endpoint_b in
  Fun.protect ~finally:(fun () -> Client.close s2.Client.sc_client)
  @@ fun () ->
  Alcotest.(check int) "no verdicts were in flight" 0 (List.length pending);
  Alcotest.(check bool) "session rebound" true
    (s2.Client.sc_key = s.Client.sc_key && s2.Client.sc_mode = Dpienc.Exact);
  Alcotest.(check int) "gauge nets out across the pair" (base + 1)
    (Bbx_obs.Obs.gauge_value obs_active);
  (* the same sender keeps streaming against B: salt counters carried *)
  Client.send_records s2.Client.sc_client ~seq:1 (List.nth wires 1);
  let _, status1, v1 = Client.recv_verdict s2.Client.sc_client in
  Alcotest.(check bool) "sid 1 not re-reported on B" true
    (status1 = Wire.Clean && v1 = []);
  Client.send_records s2.Client.sc_client ~seq:2 (List.nth wires 2);
  let _, status2, v2 = Client.recv_verdict s2.Client.sc_client in
  Alcotest.(check bool) "fresh rule still fires on B" true
    (status2 = Wire.Alerts && wire_sigs v2 = [ (2, `Exact_hit) ]);
  (* migration moves the future, not the history *)
  let stats_a1 = stats_of endpoint_a in
  Alcotest.(check int) "A keeps its token history"
    stats_a0.Wire.s_total_tokens stats_a1.Wire.s_total_tokens;
  Alcotest.(check int) "A keeps its alert" 1 stats_a1.Wire.s_alerts;
  let stats_b = stats_of endpoint_b in
  Alcotest.(check bool) "B accrues only post-move tokens" true
    (stats_b.Wire.s_total_tokens > 0);
  Alcotest.(check int) "deduped re-report is not an alert on B" 1
    stats_b.Wire.s_alerts

(* A corrupted snapshot must be refused at CONN_IMPORT without harming
   the daemon, and a genuine export must round-trip back into the same
   daemon (self-migration: the degenerate rebalance case). *)
let import_rejects_garbage () =
  with_daemon @@ fun endpoint ->
  let s = Client.establish endpoint ~mode:Dpienc.Exact ~salt0:0 ~seed:"self" in
  let sender = Dpienc.sender_create Dpienc.Exact s.Client.sc_key ~salt0:0 in
  let wires = wires_for sender [ "alertkw1 first"; "then otherkw2" ] in
  Client.send_records s.Client.sc_client ~seq:0 (List.nth wires 0);
  ignore (Client.recv_verdict s.Client.sc_client);
  let state, _pending = Client.export_conn s.Client.sc_client in
  Client.close s.Client.sc_client;
  (* truncated blob: refused with an ERROR, connection dies, daemon lives *)
  let t = Client.connect endpoint in
  Alcotest.(check bool) "garbage snapshot refused" true
    (match
       ignore (Client.hello t ~mode:Dpienc.Exact ~salt0:0);
       Client.import_conn t ~state:(String.sub state 0 (String.length state / 2))
     with
     | exception Client.Server_error _ -> true
     | exception End_of_file -> true
     | _ -> false);
  Client.close t;
  (* the intact blob resumes on the very same daemon *)
  let t2 = Client.connect endpoint in
  Fun.protect ~finally:(fun () -> Client.close t2)
  @@ fun () ->
  ignore (Client.hello t2 ~mode:Dpienc.Exact ~salt0:0);
  Client.import_conn t2 ~state;
  Client.send_records t2 ~seq:1 (List.nth wires 1);
  let _, status, verdicts = Client.recv_verdict t2 in
  Alcotest.(check bool) "resumed stream alerts on sid 2" true
    (status = Wire.Alerts && wire_sigs verdicts = [ (2, `Exact_hit) ])

(* ---------- observability plane ---------- *)

module Trace = Bbx_obs.Trace

(* METRICS_REQ works on a fresh connection without any handshake, like
   STATS_REQ, and each scope renders the registry in its format. *)
let metrics_over_wire () =
  with_daemon @@ fun endpoint ->
  (* push one inspected frame through so the pipeline metrics exist *)
  let s = Client.establish endpoint ~mode:Dpienc.Exact ~salt0:0 ~seed:"met" in
  Fun.protect ~finally:(fun () -> Client.close s.Client.sc_client)
  @@ fun () ->
  let sender = Dpienc.sender_create Dpienc.Exact s.Client.sc_key ~salt0:0 in
  List.iteri
    (fun i wire ->
      Client.send_records s.Client.sc_client ~seq:i wire;
      ignore (Client.recv_verdict s.Client.sc_client))
    (wires_for sender [ "alertkw1 lives here"; "benign" ]);
  let t = Client.connect endpoint in
  Fun.protect ~finally:(fun () -> Client.close t)
  @@ fun () ->
  let prom = Client.metrics t Wire.Prometheus in
  Alcotest.(check bool) "prometheus has stage histogram" true
    (let sub = "# TYPE bbx_daemon_queue_wait_us histogram" in
     let rec find i =
       i + String.length sub <= String.length prom
       && (String.sub prom i (String.length sub) = sub || find (i + 1))
     in
     find 0);
  let jsonl = Client.metrics t Wire.Jsonl in
  String.split_on_char '\n' jsonl
  |> List.iter (fun line ->
         if line <> "" then
           Alcotest.(check bool) "jsonl line is an object" true
             (line.[0] = '{' && line.[String.length line - 1] = '}'));
  let trace = Client.metrics t Wire.Trace in
  Alcotest.(check bool) "trace scope is chrome json" true
    (String.length trace >= 15 && String.sub trace 0 15 = "{\"traceEvents\":")

(* The flight recorder must decompose each frame's round trip into the
   five pipeline phases, all keyed by (conn, seq).  Every phase lies
   inside the client's window from just before its send to just after
   its receipt, read on the recorder's own clock, and the phases sum to
   at most that window: the write phase ends when the reply is handed to
   the socket, before the client can hold it. *)
let trace_decomposition () =
  Trace.reset ();
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled was)
  @@ fun () ->
  let endpoint = temp_endpoint () in
  let trace_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bbxd-test-%d.trace.json" (Unix.getpid ()))
  in
  let handle =
    Daemon.start (Daemon.config ~endpoint ~rules ~trace_out:trace_path ())
  in
  let n = 5 in
  let windows = Array.make n (0, 0) in
  let conn_id =
    Fun.protect
      ~finally:(fun () -> Daemon.stop handle)
      (fun () ->
        let s = Client.establish endpoint ~mode:Dpienc.Exact ~salt0:0 ~seed:"tr" in
        Fun.protect ~finally:(fun () -> Client.close s.Client.sc_client)
        @@ fun () ->
        let sender = Dpienc.sender_create Dpienc.Exact s.Client.sc_key ~salt0:0 in
        List.iteri
          (fun i wire ->
            let sent = Trace.now_ns () in
            Client.send_records s.Client.sc_client ~seq:i wire;
            ignore (Client.recv_verdict s.Client.sc_client);
            windows.(i) <- (sent, Trace.now_ns ()))
          (wires_for sender
             (List.init n (fun i -> Printf.sprintf "payload %d alertkw1" i)));
        s.Client.sc_conn_id)
  in
  (* daemon stopped: every domain joined, rings quiescent and complete *)
  let evs = Trace.events () in
  let expected = [ "read"; "validate"; "queue_wait"; "service"; "write" ] in
  for seq = 0 to n - 1 do
    let mine =
      List.filter (fun e -> e.Trace.e_id = seq && e.Trace.e_conn = conn_id) evs
    in
    List.iter
      (fun ph ->
        Alcotest.(check bool)
          (Printf.sprintf "seq %d has phase %s" seq ph)
          true
          (List.exists (fun e -> Trace.phase_name e.Trace.e_phase = ph) mine))
      expected;
    let sent, received = windows.(seq) in
    let phases =
      List.filter (fun e -> List.mem (Trace.phase_name e.Trace.e_phase) expected) mine
    in
    List.iter
      (fun e ->
        Alcotest.(check bool) "duration non-negative" true (e.Trace.e_dur_ns >= 0))
      mine;
    List.iter
      (fun e ->
        let name = Trace.phase_name e.Trace.e_phase in
        Alcotest.(check bool)
          (Printf.sprintf "seq %d %s [%d, %d] inside the client's [%d, %d]" seq name
             e.Trace.e_start_ns (e.Trace.e_start_ns + e.Trace.e_dur_ns) sent received)
          true
          (e.Trace.e_start_ns >= sent && e.Trace.e_start_ns + e.Trace.e_dur_ns <= received))
      phases;
    let sum_ns = List.fold_left (fun acc e -> acc + e.Trace.e_dur_ns) 0 phases in
    Alcotest.(check bool)
      (Printf.sprintf "seq %d phases sum within the window (sum %d ns, window %d ns)" seq
         sum_ns (received - sent))
      true
      (sum_ns <= received - sent)
  done;
  (* --trace-out wrote a Chrome trace on teardown *)
  let ic = open_in trace_path in
  let head = really_input_string ic (min 15 (in_channel_length ic)) in
  close_in ic;
  Sys.remove trace_path;
  Alcotest.(check string) "trace file is chrome json" "{\"traceEvents\":" head

(* GET /metrics over the plain-HTTP scrape plane *)
let http_scrape () =
  let port = 35000 + (Unix.getpid () mod 20000) in
  let endpoint = temp_endpoint () in
  let handle =
    Daemon.start
      (Daemon.config ~endpoint ~rules ~metrics:(Daemon.Tcp ("127.0.0.1", port)) ())
  in
  Fun.protect ~finally:(fun () -> Daemon.stop handle)
  @@ fun () ->
  let get path =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
    ignore (Unix.write_substring fd req 0 (String.length req));
    let buf = Buffer.create 4096 in
    let chunk = Bytes.create 4096 in
    let rec drain () =
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n > 0 then begin
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
      end
    in
    drain ();
    Buffer.contents buf
  in
  let resp = get "/metrics" in
  Alcotest.(check bool) "200 with prometheus body" true
    (String.length resp > 17
     && String.sub resp 0 15 = "HTTP/1.0 200 OK"
     && (let has_sub sub =
           let rec find i =
             i + String.length sub <= String.length resp
             && (String.sub resp i (String.length sub) = sub || find (i + 1))
           in
           find 0
         in
         has_sub "bbx_" && has_sub "Content-Length:"));
  let missing = get "/nope" in
  Alcotest.(check bool) "404 for unknown path" true
    (String.length missing > 16 && String.sub missing 0 16 = "HTTP/1.0 404 Not")

(* Two clients of a daemon announcing 3 000 rules: the daemon queues
   each HELLO_OK as its head and the one start-up text, and the text is
   larger than a socket's send buffer, so it leaves in partial writes
   while the other connection's copy waits.  Both clients read the text
   byte for byte under distinct conn_ids, and the frame after it (a
   STATS reply) starts where the text ends. *)
let hello_ok_text_by_reference () =
  let rules = Bbx_rules.Datasets.generate Bbx_rules.Datasets.Emerging_threats ~n:3000 in
  let text = announce rules in
  let sndbuf =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let n = Unix.getsockopt_int a Unix.SO_SNDBUF in
    Unix.close a;
    Unix.close b;
    n
  in
  Alcotest.(check bool)
    (Printf.sprintf "the %d-byte text outgrows a %d-byte send buffer" (String.length text) sndbuf)
    true (String.length text > sndbuf);
  with_daemon ~rules @@ fun endpoint ->
  let a = Client.connect endpoint and b = Client.connect endpoint in
  Fun.protect ~finally:(fun () -> Client.close a; Client.close b) @@ fun () ->
  let hello c =
    Sockio.write_string (Client.fd c)
      (Wire.encode_frame_string
         (Wire.Hello { version = Wire.version; mode = Dpienc.Exact; salt0 = 0; features = 0 }))
  in
  let scratch = Bytes.create 4096 in
  let rec frame c =
    match Wire.Framer.next (Client.framer c) with
    | Some payload -> payload
    | None ->
      let n = Sockio.read (Client.fd c) scratch 0 (Bytes.length scratch) in
      if n = 0 then raise End_of_file;
      Wire.Framer.feed (Client.framer c) scratch 0 n;
      frame c
  in
  let hello_ok c =
    match Wire.decode (frame c) with
    | Wire.Hello_ok { conn_id; mode; rules_text } ->
      Alcotest.(check bool) "exact mode" true (mode = Dpienc.Exact);
      (conn_id, rules_text)
    | _ -> Alcotest.fail "expected HELLO_OK"
  in
  hello a;
  hello b;
  (* b reads first, in 4 KiB steps, while a's copy waits in its queue *)
  let id_b, text_b = hello_ok b in
  let id_a, text_a = hello_ok a in
  Alcotest.(check bool) "distinct conn_ids" true (id_a <> id_b);
  Alcotest.(check bool) "a's text byte for byte" true (String.equal text text_a);
  Alcotest.(check bool) "b's text byte for byte" true (String.equal text text_b);
  List.iter
    (fun c ->
      Alcotest.(check int) "STATS after the text" 0 (Client.stats c).Wire.s_blocked)
    [ a; b ]

let stop_unlinks_socket () =
  let endpoint = temp_endpoint () in
  let path = match endpoint with Daemon.Unix_path p -> p | _ -> assert false in
  let handle = Daemon.start (Daemon.config ~endpoint ~rules ()) in
  Alcotest.(check bool) "socket exists" true (Sys.file_exists path);
  Daemon.stop handle;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path)

let () =
  Alcotest.run "daemon"
    [ ( "loopback",
        [ Alcotest.test_case "differential vs Shard.process_wire" `Quick
            differential_vs_shard;
          Alcotest.test_case "a removal stays with its connection" `Quick
            removal_stays_with_its_connection;
          Alcotest.test_case "an addition stays with its connection" `Quick
            addition_stays_with_its_connection;
          Alcotest.test_case "differential: live rule update + salt reset" `Quick
            differential_update_and_reset;
          Alcotest.test_case "tiered differential: detail bytes at tiers 1/2/3"
            `Quick tiered_differential;
          Alcotest.test_case "a features=0 client reads every detail" `Quick
            features_zero_reads_details;
          Alcotest.test_case "stop unlinks the socket" `Quick stop_unlinks_socket;
          Alcotest.test_case "two clients read the 3 000-rule HELLO_OK text" `Quick
            hello_ok_text_by_reference ] );
      ( "hardening",
        [ Alcotest.test_case "a poisoned connection leaves others alone" `Quick
            isolation;
          Alcotest.test_case "malformed-frame fuzz never kills the daemon" `Quick
            malformed_fuzz;
          Alcotest.test_case "a version-1 HELLO draws err_version" `Quick
            version_one_hello_refused;
          Alcotest.test_case "a RULE_SETUP table out of order draws err_setup" `Quick
            bad_setup_tables;
          Alcotest.test_case "a RULE_UPDATE table short a chunk draws err_setup" `Quick
            bad_update_table ] );
      ( "cache",
        [ Alcotest.test_case "one text, one parse" `Quick one_parse_per_text;
          Alcotest.test_case "another text gets its own parse" `Quick
            another_text_its_own_parse;
          Alcotest.test_case "pairs_for equals the cold derivation" `Quick
            pairs_match_cold_derivation;
          Alcotest.test_case "alternating daemons keep their rulesets" `Quick
            alternating_daemons;
          Alcotest.test_case "two domains, two texts at once" `Quick
            two_domains_two_texts ] );
      ( "loadgen",
        [ Alcotest.test_case "exact mode" `Quick (loadgen_smoke Dpienc.Exact);
          Alcotest.test_case "probable-cause mode" `Quick
            (loadgen_smoke Dpienc.Probable);
          Alcotest.test_case "frames carry running stream offsets" `Quick
            loadgen_stream_offsets ] );
      ( "migration",
        [ Alcotest.test_case "live migration between two daemons" `Quick
            migrate_between_daemons;
          Alcotest.test_case "corrupt snapshot refused, intact one resumes"
            `Quick import_rejects_garbage ] );
      ( "observability",
        [ Alcotest.test_case "METRICS_REQ over the wire, all scopes" `Quick
            metrics_over_wire;
          Alcotest.test_case "flight recorder decomposes frame RTT" `Quick
            trace_decomposition;
          Alcotest.test_case "HTTP GET /metrics scrape plane" `Quick http_scrape ] ) ]
