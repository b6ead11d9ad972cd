(* An enterprise gateway: one middlebox, many monitored connections.

   This is the deployment of the paper's Fig. 1 and university example
   (§2.1 #1): every employee's HTTPS session passes through a single
   appliance loaded with the corporate IDS ruleset.  Each connection has
   its own session key, so the appliance holds one set of encrypted rules
   per connection — but one shared ruleset, one shared policy, and
   aggregate statistics.

   Run with: dune exec examples/enterprise_gateway.exe *)

open Bbx_dpienc.Dpienc
open Bbx_mbox
open Bbx_rules

let rules =
  Parser.parse_ruleset
    {|alert tcp $EXTERNAL_NET any -> $HOME_NET any (msg:"known C2 beacon"; content:"beacon-7f3a2c91"; sid:1;)
      drop tcp $EXTERNAL_NET any -> $HOME_NET any (msg:"exploit kit download"; content:"download.exe?killchain"; sid:2;)
      alert tcp $EXTERNAL_NET any -> $HOME_NET any (msg:"SQLi probe"; content:"union+select"; content:"from+users"; sid:3;)|}

(* Employee endpoints: each has its own session key; for this demo rule
   preparation is Direct (the garbled exchange is shown in
   exfiltration_watermark.ml). *)
type employee = {
  name : string;
  key : key;
  sender : sender;
}

let employee name =
  let key = key_of_secret ("session-key:" ^ name) in
  { name; key; sender = sender_create Exact key ~salt0:0 }

let () =
  (* one ruleset for the whole gateway; each connection brings only its
     own rule encryptions *)
  let mb = Shard.create Engine.default_config in
  let ruleset = Engine.ruleset rules in
  let staff = List.map employee [ "alice"; "bob"; "carol"; "dave" ] in
  List.iteri
    (fun i e ->
       Shard.register mb ~conn_id:i ~salt0:0 ~direction:"client->server"
         (Engine.keys ruleset ~enc_chunk:(token_enc e.key)))
    staff;
  Printf.printf "gateway up: %d rules, %d connections\n\n" (List.length rules)
    (List.length staff);
  let browse conn (e : employee) payload =
    if Shard.is_blocked mb ~conn_id:conn then
      Printf.printf "  [%s] connection is blocked; traffic refused\n" e.name
    else begin
      let wire = Buffer.create 256 in
      ignore
        (sender_encrypt_into e.sender ~tokenization:(Delimiter { short_units = false }) payload
           wire
         : int);
      match Shard.process_wire mb ~conn_id:conn (Buffer.contents wire) with
      | [] -> Printf.printf "  [%s] ok      %s\n" e.name payload
      | vs ->
        List.iter
          (fun v ->
             Printf.printf "  [%s] %-7s %s  (rule: %s)\n" e.name
               (match v.Engine.rule.Rule.action with Rule.Drop -> "DROP" | _ -> "ALERT")
               payload
               (Option.value v.Engine.rule.Rule.msg ~default:""))
          vs
    end
  in
  let alice = List.nth staff 0 and bob = List.nth staff 1 in
  let carol = List.nth staff 2 and dave = List.nth staff 3 in
  browse 0 alice "GET /news/today HTTP/1.1";
  browse 1 bob "GET /search?q=lunch+nearby HTTP/1.1";
  browse 2 carol "GET /c2/beacon-7f3a2c91?host=carol-laptop HTTP/1.1";
  browse 3 dave "GET /kit/download.exe?killchain=1 HTTP/1.1";
  browse 3 dave "GET /anything-after-the-drop HTTP/1.1";
  browse 1 bob "GET /item?id=9+union+select+passwd+from+users HTTP/1.1";
  let st = Shard.stats mb in
  Printf.printf
    "\ngateway stats: %d connections, %d tokens inspected, %d keyword hits, %d alerts, %d blocked\n"
    st.Shard.connections st.Shard.total_tokens st.Shard.total_keyword_hits
    st.Shard.alerts st.Shard.blocked;
  print_endline
    "the gateway never held a session key and saw nothing of alice's or bob's clean browsing."
