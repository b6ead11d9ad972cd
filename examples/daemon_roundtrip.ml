(* blindboxd roundtrip: the whole deployment story in one program.

   An in-process daemon comes up on a temp Unix-domain socket (in a real
   deployment this is `blindbox serve`), a client establishes a monitored
   connection over it — local S/R handshake, HELLO, per-connection rule
   encryption, RULE_SETUP — then streams encrypted records and reads
   verdicts, updates the ruleset live, and finally asks the daemon for
   its aggregate statistics.  The middlebox side never sees a key. *)

module Daemon = Bbx_daemon.Daemon
module Client = Bbx_daemon.Client
module Wire = Bbx_wire.Wire
module Dpienc = Bbx_dpienc.Dpienc
module Rule = Bbx_rules.Rule

let rules =
  [ Rule.make ~sid:1 ~msg:"credit card exfil" [ Rule.make_content "4111-1111" ];
    Rule.make ~sid:2 ~msg:"c2 beacon" [ Rule.make_content "beacon:7" ] ]

let () =
  let endpoint =
    Daemon.Unix_path
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "blindboxd-example-%d.sock" (Unix.getpid ())))
  in
  let handle = Daemon.start (Daemon.config ~endpoint ~rules ()) in
  Fun.protect ~finally:(fun () -> Daemon.stop handle) @@ fun () ->
  Printf.printf "daemon up on %s\n" (Daemon.endpoint_to_string endpoint);

  let s = Client.establish endpoint ~mode:Dpienc.Exact ~salt0:0 ~seed:"example" in
  Fun.protect ~finally:(fun () -> Client.close s.Client.sc_client) @@ fun () ->
  Printf.printf "connection %d established (%d rules announced)\n"
    s.Client.sc_conn_id (List.length s.Client.sc_rules);

  (* stream traffic: the sender encrypts, the daemon only ever sees
     DPIEnc records *)
  let sender = Dpienc.sender_create Dpienc.Exact s.Client.sc_key ~salt0:0 in
  let base = ref 0 in
  let send_payload seq payload =
    let buf = Buffer.create 256 in
    ignore (Dpienc.sender_encrypt_into sender ~base:!base payload buf : int);
    base := !base + String.length payload;
    Client.send_records s.Client.sc_client ~seq (Buffer.contents buf);
    let _, status, verdicts = Client.recv_verdict s.Client.sc_client in
    Printf.printf "  %-44s -> %s\n"
      (String.sub payload 0 (min 44 (String.length payload)))
      (match status with
       | Wire.Clean -> "clean"
       | Wire.Dropped -> "dropped"
       | Wire.Alerts ->
         String.concat "; "
           (List.map
              (fun v -> Printf.sprintf "ALERT sid:%d %s" v.Wire.v_sid v.Wire.v_msg)
              verdicts))
  in
  send_payload 0 "GET /index.html HTTP/1.1";
  send_payload 1 "POST /pay card=4111-1111 HTTP/1.1";
  send_payload 2 "nothing to see here";

  (* live rule update: drop the c2 rule, add a new watchword *)
  let added = Rule.make ~sid:3 ~msg:"watchword" [ Rule.make_content "tetraodon" ] in
  let rules' =
    List.filter (fun r -> r.Rule.sid <> Some 2) s.Client.sc_rules @ [ added ]
  in
  let n, _ =
    Client.update_rules s.Client.sc_client ~remove_sids:[ 2 ] ~add:[ added ]
      ~pairs:(Client.pairs_for ~key:s.Client.sc_key rules')
  in
  let salt0' = Dpienc.sender_reset sender in
  Client.salt_reset s.Client.sc_client ~salt0:salt0';
  Printf.printf "ruleset updated live (+%d rule), salts reset\n" n;
  send_payload 3 "the tetraodon swims at dawn";

  let stats = Client.stats s.Client.sc_client in
  Printf.printf "daemon stats: %d tokens inspected, %d keyword hits, %d alerts\n"
    stats.Wire.s_total_tokens stats.Wire.s_total_keyword_hits stats.Wire.s_alerts
