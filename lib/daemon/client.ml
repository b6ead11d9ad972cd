module Wire = Bbx_wire.Wire
module Sockio = Bbx_wire.Sockio
module Dpienc = Bbx_dpienc.Dpienc
module Engine = Bbx_mbox.Engine
module Rule = Bbx_rules.Rule
module Parser = Bbx_rules.Parser
module Handshake = Bbx_tls.Handshake

exception Server_error of { code : int; message : string }
exception Protocol_error of string

type t = {
  fd : Unix.file_descr;
  framer : Wire.Framer.t;
  scratch : Bytes.t;
  mutable open_ : bool;
}

let connect endpoint =
  { fd = Daemon.connect endpoint;
    framer = Wire.Framer.create ();
    scratch = Bytes.create 65536;
    open_ = true }

let send t msg = Sockio.write_string t.fd (Wire.encode_frame_string msg)

let rec recv t =
  match Wire.Framer.next t.framer with
  | Some payload -> begin
      match Wire.decode payload with
      | Wire.Error { code; message } -> raise (Server_error { code; message })
      | msg -> msg
    end
  | None ->
    let n = Sockio.read t.fd t.scratch 0 (Bytes.length t.scratch) in
    if n = 0 then raise End_of_file;
    Wire.Framer.feed t.framer t.scratch 0 n;
    recv t

let protocol_error what msg =
  raise
    (Protocol_error
       (Printf.sprintf "expected %s, got message type %d" what (Wire.type_byte msg)))

(* The last announced ruleset: its HELLO_OK text, the parse and the
   parse's distinct chunks.  One daemon announces one start-up text to
   every connection, so one entry serves every connection after a
   process's first; a text that differs costs the cold parse plus one
   comparison.  Entries are immutable and published whole, so domains
   may race: each caller uses the entry it built or read. *)
type announced = { text : string; rules : Rule.t list; chunks : string array }

let announced : announced option Atomic.t = Atomic.make None

let rules_of_text text =
  match Atomic.get announced with
  | Some a when String.equal a.text text -> a.rules
  | _ ->
    let rules = Parser.parse_ruleset text in
    Atomic.set announced (Some { text; rules; chunks = Engine.distinct_chunks rules });
    rules

let hello ?features:_ t ~mode ~salt0 =
  send t (Wire.Hello { version = Wire.version; mode; salt0; features = 0 });
  match recv t with
  | Wire.Hello_ok { conn_id; mode = mode'; rules_text } ->
    if mode' <> mode then raise (Protocol_error "daemon mode differs from HELLO");
    (conn_id, rules_of_text rules_text)
  | msg -> protocol_error "HELLO_OK" msg

let rule_setup t ~pairs =
  send t (Wire.Rule_setup { pairs });
  match recv t with
  | Wire.Setup_ok -> ()
  | msg -> protocol_error "SETUP_OK" msg

let send_records t ~seq records = send t (Wire.Token_stream { seq; records })

let send_record t ~seq record = send t (Wire.Record_stream { seq; record })

let recv_verdict t =
  match recv t with
  | Wire.Verdict { seq; status; verdicts } -> (seq, status, verdicts)
  | msg -> protocol_error "VERDICT" msg

let salt_reset t ~salt0 = send t (Wire.Salt_reset { salt0 })

let update_rules t ~remove_sids ~add ~pairs =
  send t
    (Wire.Rule_update
       { remove_sids; add_text = String.concat "\n" (List.map Rule.to_string add); pairs });
  (* verdicts for deliveries submitted before the update may land before
     the ack; hand them back rather than dropping them on the floor *)
  let rec await acc =
    match recv t with
    | Wire.Update_ok { added } -> (added, List.rev acc)
    | Wire.Verdict { seq; status; verdicts } -> await ((seq, status, verdicts) :: acc)
    | msg -> protocol_error "UPDATE_OK" msg
  in
  await []

(* Drain the connection off the daemon: verdicts still in flight arrive
   before the CONN_STATE frame (the daemon flushes its pool first), so
   the caller gets a complete verdict history plus the blob. *)
let export_conn t =
  send t Wire.Conn_export;
  let rec await acc =
    match recv t with
    | Wire.Conn_state { state } -> (state, List.rev acc)
    | Wire.Verdict { seq; status; verdicts } -> await ((seq, status, verdicts) :: acc)
    | msg -> protocol_error "CONN_STATE" msg
  in
  await []

let import_conn t ~state =
  send t (Wire.Conn_import { state });
  match recv t with
  | Wire.Setup_ok -> ()
  | msg -> protocol_error "SETUP_OK" msg

let stats t =
  send t Wire.Stats_req;
  match recv t with
  | Wire.Stats s -> s
  | msg -> protocol_error "STATS" msg

let metrics t scope =
  send t (Wire.Metrics_req { scope });
  match recv t with
  | Wire.Metrics { scope = scope'; body } ->
    if scope' <> scope then raise (Protocol_error "METRICS scope differs from request");
    body
  | msg -> protocol_error "METRICS" msg

let fd t = t.fd
let framer t = t.framer

let close t =
  if t.open_ then begin
    t.open_ <- false;
    (try send t Wire.Bye with _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* ---------- batteries-included setup ---------- *)

type session = {
  sc_client : t;
  sc_conn_id : int;
  sc_rules : Rule.t list;
  sc_key : Dpienc.key;
  sc_k_ssl : string;
  sc_mode : Dpienc.mode;
}

let pairs_for ~key rules =
  let chunks =
    match Atomic.get announced with
    | Some a when a.rules == rules -> a.chunks
    | _ -> Engine.distinct_chunks rules
  in
  Array.map (fun c -> (c, Dpienc.token_enc key c)) chunks

let establish endpoint ~mode ~salt0 ~seed =
  let t = connect endpoint in
  match
    let conn_id, rules = hello t ~mode ~salt0 in
    (* the S/R handshake runs between the two endpoints; the daemon plays
       only the middlebox, so for a synthetic client both ends live here *)
    let keys = Handshake.local seed in
    let key = Dpienc.key_of_secret keys.Handshake.k in
    rule_setup t ~pairs:(pairs_for ~key rules);
    { sc_client = t;
      sc_conn_id = conn_id;
      sc_rules = rules;
      sc_key = key;
      sc_k_ssl = keys.Handshake.k_ssl;
      sc_mode = mode }
  with
  | session -> session
  | exception e -> close t; raise e

(* Live migration, client-driven: drain + serialise on the source daemon,
   close that socket, resume on [endpoint] by sending the blob where
   RULE_SETUP would go.  Sender-side state (keys, salt counters) is
   untouched — the engine snapshot already agrees with it — so the caller
   keeps streaming with the same {!Bbx_dpienc.Dpienc.sender}.  Returns
   the rebound session plus any verdicts that were still in flight on the
   source. *)
let migrate s endpoint =
  let state, pending = export_conn s.sc_client in
  close s.sc_client;
  let t = connect endpoint in
  match
    (* salt0 = 0 satisfies HELLO in either mode; the snapshot's salt
       epoch supersedes it *)
    let conn_id, rules = hello t ~mode:s.sc_mode ~salt0:0 in
    import_conn t ~state;
    ({ s with sc_client = t; sc_conn_id = conn_id; sc_rules = rules }, pending)
  with
  | r -> r
  | exception e -> close t; raise e
