open Bbx_crypto
open Bbx_dpienc
open Bbx_tokenizer
open Bbx_tls
module Obs = Bbx_obs.Obs

(* Connection-lifecycle spans (wall-clock + GC-allocated bytes) and
   traffic counters.  Setup spans separate the handshake from rule
   preparation — under [Garbled] prep the latter is the OT + garbling cost
   the paper's §7.2.2 plots. *)
let obs_handshake = Obs.span "bbx_session_handshake"
let obs_rule_prep = Obs.span "bbx_session_rule_prep"
let obs_setup = Obs.span "bbx_session_setup"
let obs_deliver = Obs.span "bbx_session_deliver"
let obs_sends = Obs.counter "bbx_session_sends_total"
let obs_payload_bytes = Obs.counter "bbx_session_payload_bytes_total"
let obs_verdicts = Obs.counter "bbx_session_verdicts_total"
let obs_blocked = Obs.counter "bbx_session_blocked_total"
let obs_evasions = Obs.counter "bbx_session_evasions_total"
let obs_resets = Obs.counter "bbx_session_salt_resets_total"

let obs_payload_size =
  Obs.histogram "bbx_session_payload_bytes"
    ~buckets:[| 64; 256; 1024; 1500; 4096; 16384; 65536; 262144 |]

let obs_tokens_per_send =
  Obs.histogram "bbx_session_tokens_per_send"
    ~buckets:[| 8; 32; 128; 512; 1024; 4096; 16384 |]

type rule_prep_mode = Garbled | Direct

module Engine = Bbx_mbox.Engine

type config = {
  inspect : Engine.config;
  tokenization : Dpienc.tokenization;
  rule_prep : rule_prep_mode;
  salt0 : int;
  reset_period : int;
  setup_domains : int;
}

let default_config =
  { inspect = Engine.default_config;
    tokenization = Dpienc.Delimiter { short_units = false };
    rule_prep = Direct; salt0 = 0; reset_period = 1 lsl 20; setup_domains = 1 }

type setup_stats = {
  chunk_count : int;
  rule_prep_stats : Ruleprep.stats option;
  setup_seconds : float;
}

exception Evasion_detected of string
exception Connection_blocked

type t = {
  config : config;
  keys : Handshake.keys;
  (* sender side *)
  writer : Record.t;
  dpi_sender : Dpienc.sender;
  mutable sender_stream_off : int;
  mutable bytes_since_reset : int;
  (* middlebox *)
  engine : Engine.t;                (* retains + decrypts the record stream
                                       itself (Engine.record_stream) *)
  (* receiver side *)
  reader : Record.t;
  dpi_mirror : Dpienc.sender;       (* for token validation, §3.4 *)
  mutable receiver_stream_off : int;
  mutable is_blocked : bool;        (* a drop-action rule fired *)
  dir : string;                     (* record-layer direction label *)
  mutable prep : Ruleprep.prepared; (* prepared chunk set: resumption tickets +
                                       incremental updates (generation counter) *)
  rg : Bbx_sig.Rsa.keypair option;  (* retained for incremental rule prep *)
}

let direction = "sender->receiver"

(* Build the in-process trio (S, MB, R) from agreed keys, prepared
   encrypted rules and the middlebox's key material over them.  [label]
   salts the record-layer direction so resumed connections never reuse a
   keystream. *)
let make_session ?rg config keys ~prep ~mb_keys ~label =
  let dir = direction ^ label in
  let mode = config.inspect.Engine.mode in
  let engine = Engine.make config.inspect mb_keys ~direction:dir ~salt0:config.salt0 in
  { config;
    keys;
    writer = Record.create ~key:keys.Handshake.k_ssl ~direction:dir ();
    dpi_sender =
      Dpienc.sender_create mode (Dpienc.key_of_secret keys.Handshake.k)
        ~salt0:config.salt0;
    sender_stream_off = 0;
    bytes_since_reset = 0;
    engine;
    reader = Record.create ~key:keys.Handshake.k_ssl ~direction:dir ();
    dpi_mirror =
      Dpienc.sender_create mode (Dpienc.key_of_secret keys.Handshake.k)
        ~salt0:config.salt0;
    receiver_stream_off = 0;
    is_blocked = false;
    dir;
    prep;
    rg }

(* Size hint for the wire buffer: a bound for window tokenization, a
   text-typical guess for delimiter (Buffer grows as needed either way). *)
let wire_buf_estimate config payload =
  let per =
    match config.inspect.Engine.mode with
    | Dpienc.Exact -> Dpienc.exact_record_bytes
    | Dpienc.Probable -> Dpienc.probable_record_bytes
  in
  Dpienc.max_header_bytes
  +
  match config.tokenization with
  | Dpienc.Window -> per * (max 1 (String.length payload - Tokenizer.token_len + 1))
  | Dpienc.Delimiter _ -> (per + 1) * (max 16 (String.length payload / 2))

(* Handshake between the two endpoints; the middlebox observes only the
   public key shares. *)
let run_handshake seed = Obs.time obs_handshake (fun () -> Handshake.local seed)

(* Shared rule preparation used by [establish], [Duplex.establish] and
   [Fleet.establish], over a ruleset's distinct chunks.
   [config.setup_domains > 1] runs the garbled stages on a worker-domain
   pool ({!Ruleprep}); the prepared output is byte-identical at any
   domain count. *)
let prepare_rules config ?rg keys chunks =
  Obs.time obs_rule_prep @@ fun () ->
  let encs, rule_prep_stats =
    match config.rule_prep with
    | Direct ->
      let key = Dpienc.key_of_secret keys.Handshake.k in
      (Array.map (Dpienc.token_enc key) chunks, None)
    | Garbled ->
      let encs, stats =
        match rg with
        | None ->
          Ruleprep.prepare_unchecked ~domains:config.setup_domains
            ~k:keys.Handshake.k ~k_rand:keys.Handshake.k_rand ~chunks ()
        | Some (kp : Bbx_sig.Rsa.keypair) ->
          let signatures = Array.map (Bbx_sig.Rsa.sign kp.Bbx_sig.Rsa.private_) chunks in
          Ruleprep.prepare ~domains:config.setup_domains
            ~k:keys.Handshake.k ~k_rand:keys.Handshake.k_rand ~chunks
            ~signatures ~rg_key:kp.Bbx_sig.Rsa.public ()
      in
      (encs, Some stats)
  in
  (Ruleprep.prepared ~chunks ~encs, rule_prep_stats)

let establish ?(config = default_config) ?(seed = "blindbox-session") ?rg ~rules () =
  Obs.span_enter obs_setup;
  let t0 = Unix.gettimeofday () in
  let keys = run_handshake seed in
  let rs = Engine.ruleset rules in
  let prep, rule_prep_stats = prepare_rules config ?rg keys (Engine.chunks rs) in
  let mb_keys = Engine.keys rs ~enc_chunk:(Ruleprep.lookup prep) in
  let t = make_session ?rg config keys ~prep ~mb_keys ~label:"" in
  Obs.span_exit obs_setup;
  ( t,
    { chunk_count = Array.length prep.Ruleprep.chunks;
      rule_prep_stats;
      setup_seconds = Unix.gettimeofday () -. t0 } )

type ticket = {
  tk_keys : Handshake.keys;
  tk_config : config;
  tk_prep : Ruleprep.prepared;
  tk_mb_keys : Engine.keys;         (* the connection's ruleset + key material *)
  mutable tk_uses : int;
}

let resumption_ticket t =
  { tk_keys = t.keys;
    tk_config = t.config;
    tk_prep = t.prep;
    tk_mb_keys = Engine.keys_of t.engine;
    tk_uses = 0 }

let resume ?config ticket ~rules () =
  let config = Option.value config ~default:ticket.tk_config in
  if rules <> Engine.rules_of (Engine.ruleset_of ticket.tk_mb_keys) then
    invalid_arg "Session.resume: ruleset differs from the ticket's";
  ticket.tk_uses <- ticket.tk_uses + 1;
  make_session config ticket.tk_keys ~prep:ticket.tk_prep ~mb_keys:ticket.tk_mb_keys
    ~label:(Printf.sprintf "#resume-%d" ticket.tk_uses)

type delivery = {
  plaintext : string;
  verdicts : Engine.verdict list;
  record_bytes : int;
  token_bytes : int;
  token_count : int;
}

let k_ssl_opt t =
  match t.config.inspect.Engine.mode with
  | Dpienc.Probable -> Some t.keys.Handshake.k_ssl
  | Dpienc.Exact -> None

let mb_recovered_key t = Engine.recovered_key t.engine

let mb_decrypted_stream t = Engine.decrypted_stream t.engine

let mb_keyword_hits t = Engine.keyword_hits t.engine

let mb_verdicts t = Engine.decided t.engine

let mb_escalation t = Engine.escalation t.engine

(* Sender-side encryption of one payload: SSL record + encrypted tokens,
   the latter tokenized+encrypted+serialised in one streaming pass
   (Dpienc.sender_encrypt_into) — no token lists or records are built.
   A one-byte frame tag inside the record marks whether the payload was
   tokenized ('T') or sent as binary without tokens ('B', the paper's §3
   optimisation for images/video); the receiver validates accordingly. *)
let encrypt_delivery t ~tokenized payload =
  let tag = if tokenized then "T" else "B" in
  let record = Record.seal t.writer (tag ^ payload) in
  if tokenized then begin
    let buf = Buffer.create (wire_buf_estimate t.config payload) in
    let count =
      Dpienc.sender_encrypt_into t.dpi_sender ?k_ssl:(k_ssl_opt t)
        ~base:t.sender_stream_off ~tokenization:t.config.tokenization
        payload buf
    in
    t.sender_stream_off <- t.sender_stream_off + String.length payload;
    (record, Buffer.contents buf, count)
  end
  else (record, "", 0)

(* Receiver-side §3.4 validation: recompute the wire-encoded token stream
   from the decrypted plaintext and compare bytes with what the middlebox
   forwarded (the encoding is injective, so byte equality is exactly
   token-stream equality). *)
let receiver_validate t ~tokenized plaintext forwarded_wire =
  let expected =
    if tokenized then begin
      let buf = Buffer.create (String.length forwarded_wire) in
      ignore
        (Dpienc.sender_encrypt_into t.dpi_mirror ?k_ssl:(k_ssl_opt t)
           ~base:t.receiver_stream_off ~tokenization:t.config.tokenization
           plaintext buf : int);
      t.receiver_stream_off <- t.receiver_stream_off + String.length plaintext;
      Buffer.contents buf
    end
    else ""
  in
  if not (String.equal expected forwarded_wire) then begin
    Obs.incr obs_evasions;
    raise (Evasion_detected "token stream does not match the decrypted payload")
  end

let maybe_reset t payload_len =
  t.bytes_since_reset <- t.bytes_since_reset + payload_len;
  if t.config.reset_period > 0 && t.bytes_since_reset >= t.config.reset_period then begin
    t.bytes_since_reset <- 0;
    Obs.incr obs_resets;
    let new_salt0 = Dpienc.sender_reset t.dpi_sender in
    (* announced to MB and mirrored by the receiver *)
    Engine.reset t.engine ~salt0:new_salt0;
    let mirror_salt0 = Dpienc.sender_reset t.dpi_mirror in
    assert (mirror_salt0 = new_salt0)
  end

let blocked t = t.is_blocked

let deliver t ~record ~wire ~token_count =
  if t.is_blocked then raise Connection_blocked;
  Obs.span_enter obs_deliver;
  (* middlebox: retain the SSL record (for probable-cause escalation),
     inspect the token stream straight off the wire bytes, forward both.
     The record goes first: the escalation pump decrypts strictly in
     stream order. *)
  Engine.record_stream t.engine record;
  let _ : int = Engine.process_wire t.engine wire in
  (* receiver *)
  let framed = Record.open_ t.reader record in
  if String.length framed = 0 then raise (Evasion_detected "empty frame");
  let tokenized =
    match framed.[0] with
    | 'T' -> true
    | 'B' -> false
    | _ -> raise (Evasion_detected "bad frame tag")
  in
  let plaintext = String.sub framed 1 (String.length framed - 1) in
  receiver_validate t ~tokenized plaintext wire;
  if not tokenized && wire <> "" then
    raise (Evasion_detected "tokens attached to a binary frame");
  (* each rule is reported once, on the send that first triggered it *)
  let fresh = Engine.verdicts t.engine in
  if Engine.blocks fresh then begin
    if not t.is_blocked then Obs.incr obs_blocked;
    t.is_blocked <- true
  end;
  maybe_reset t (String.length plaintext);
  Obs.incr obs_sends;
  Obs.add obs_payload_bytes (String.length plaintext);
  Obs.add obs_verdicts (List.length fresh);
  Obs.observe obs_payload_size (String.length plaintext);
  Obs.observe obs_tokens_per_send token_count;
  Obs.span_exit obs_deliver;
  { plaintext;
    verdicts = fresh;
    record_bytes = String.length record;
    token_bytes = String.length wire;
    token_count }

(* Chunks of [prev] the next generation no longer needs. *)
let retired_chunks prev next =
  let still = Hashtbl.create (max 16 (Array.length (Engine.chunks next))) in
  Array.iter (fun c -> Hashtbl.replace still c ()) (Engine.chunks next);
  Array.of_list
    (List.filter (fun c -> not (Hashtbl.mem still c)) (Array.to_list (Engine.chunks prev)))

(* Rule update on a live connection (§2.3: RG ships new signatures to its
   middlebox customers): rules named by [remove_sids] are retired, [rules]
   are added, and only chunks not already prepared pay the
   obfuscated-rule-encryption cost ({!Ruleprep.update} garbles the delta
   under a fresh generation). *)
let update_rules t ?(remove_sids = []) rules =
  let prev = Engine.ruleset_of (Engine.keys_of t.engine) in
  let rs =
    Engine.ruleset (Engine.next_rules (Engine.rules_of prev) ~remove_sids ~add:rules)
  in
  let add = Engine.distinct_chunks rules and remove = retired_chunks prev rs in
  (* the endpoints re-prepare only the delta *)
  let prep, stats =
    match t.config.rule_prep with
    | Direct ->
      let key = Dpienc.key_of_secret t.keys.Handshake.k in
      (Ruleprep.update_direct ~enc:(Dpienc.token_enc key) ~prev:t.prep ~add ~remove, None)
    | Garbled ->
      let signatures, rg_key =
        match t.rg with
        | None -> (None, None)
        | Some kp ->
          ( Some (Array.map (Bbx_sig.Rsa.sign kp.Bbx_sig.Rsa.private_) add),
            Some kp.Bbx_sig.Rsa.public )
      in
      let prep, st =
        Ruleprep.update ~domains:t.config.setup_domains ?signatures ?rg_key
          ~k:t.keys.Handshake.k ~k_rand:t.keys.Handshake.k_rand ~prev:t.prep
          ~add ~remove ()
      in
      (prep, Some st)
  in
  t.prep <- prep;
  (* the middlebox moves onto the new generation; retained rules keep
     their decisions, so none is reported twice *)
  Engine.update t.engine (Engine.keys rs ~enc_chunk:(Ruleprep.lookup prep));
  (* A rule update forces a salt reset: the sender may already have
     emitted the new keywords' token values under earlier salts, and the
     middlebox has no way to know their counts.  Resetting puts every
     counter — old and new — back in lock-step. *)
  t.bytes_since_reset <- 0;
  let new_salt0 = Dpienc.sender_reset t.dpi_sender in
  Engine.reset t.engine ~salt0:new_salt0;
  let mirror_salt0 = Dpienc.sender_reset t.dpi_mirror in
  assert (mirror_salt0 = new_salt0);
  (* fresh chunks: the next ruleset's, minus those it kept *)
  let kept = Array.length (Engine.chunks prev) - Array.length remove in
  (Array.length (Engine.chunks rs) - kept, stats)

let send t payload =
  let record, wire, token_count = encrypt_delivery t ~tokenized:true payload in
  deliver t ~record ~wire ~token_count

let send_binary t payload =
  let record, wire, token_count = encrypt_delivery t ~tokenized:false payload in
  deliver t ~record ~wire ~token_count

let send_evading t payload ~drop_tokens =
  let record, wire, _ = encrypt_delivery t ~tokenized:true payload in
  let wire = Dpienc.drop_records wire drop_tokens in
  deliver t ~record ~wire ~token_count:(Dpienc.wire_token_count wire)


(* ---------- bidirectional connections ---------- *)

module Duplex = struct
  type duplex = {
    c2s : t;  (* client -> server: requests *)
    s2c : t;  (* server -> client: responses *)
  }

  let rules_for direction rules =
    List.filter
      (fun r ->
         match Bbx_rules.Rule.flow_direction r with
         | `Any -> true
         | (`From_client | `From_server) as d -> d = direction)
      rules

  let establish ?(config = default_config) ?(seed = "blindbox-duplex") ?rg ~rules () =
    let t0 = Unix.gettimeofday () in
    let keys = run_handshake seed in
    (* one rule preparation covers the chunks of the whole ruleset; each
       direction's engine then loads only the rules that apply to it *)
    let prep, rule_prep_stats =
      prepare_rules config ?rg keys (Engine.distinct_chunks rules)
    in
    let mk direction label =
      let mb_keys =
        Engine.keys (Engine.ruleset (rules_for direction rules))
          ~enc_chunk:(Ruleprep.lookup prep)
      in
      make_session ?rg config keys ~prep ~mb_keys ~label
    in
    ( { c2s = mk `From_client "/c2s"; s2c = mk `From_server "/s2c" },
      { chunk_count = Array.length prep.Ruleprep.chunks;
        rule_prep_stats;
        setup_seconds = Unix.gettimeofday () -. t0 } )

  let client_send t payload =
    if t.s2c.is_blocked then raise Connection_blocked;
    send t.c2s payload

  let server_send t payload =
    if t.c2s.is_blocked then raise Connection_blocked;
    send t.s2c payload

  let blocked t = t.c2s.is_blocked || t.s2c.is_blocked
end


(* ---------- many connections through a sharded middlebox ---------- *)

module Fleet = struct
  (* A fleet is one tenant: ONE handshake agrees the tenant keys, so one
     rule preparation (AES_k over the distinct chunks), one ruleset and one
     key material per generation are valid for every connection — registration cost
     per connection is O(1) in ruleset size instead of re-running the
     handshake + prep per connection.  Each connection still gets its own
     record-layer key, derived as KDF(k_ssl, "fleet-conn-<i>"), so sealed
     streams (and the key probable cause recovers) stay per-connection.

     Privacy trade-off, documented: sharing the token key [k] across a
     tenant's connections means identical keywords produce correlatable
     token values {e across} that tenant's flows (within a salt window),
     not just within one flow.  Connections of different tenants (fleets)
     remain uncorrelatable, as do record streams. *)

  (* Sender-side state for one monitored connection — deliberately flat
     (six fields, no per-connection closures, keys or rule tables).  The
     middlebox half (engine, salt counters, block flag) lives inside the
     shard pool, on whichever worker domain owns the connection. *)
  type conn = {
    fc_id : int;
    fc_k_ssl : string;                    (* this connection's record key *)
    fc_sender : Dpienc.sender;
    fc_writer : Record.t option;          (* record layer, when the middlebox
                                             tier retains the stream *)
    mutable fc_off : int;
    mutable fc_bytes_since_reset : int;
  }

  type fleet = {
    fl_config : config;
    fl_pool : Bbx_mbox.Shardpool.t;
    fl_conns : (int, conn) Hashtbl.t;
    fl_keys : Handshake.keys;                  (* tenant keys (one handshake) *)
    fl_key : Dpienc.key;                       (* expanded token key, shared *)
    mutable fl_prep : Ruleprep.prepared;       (* ONE shared preparation *)
    mutable fl_mb_keys : Engine.keys;          (* the current generation's
                                                  ruleset + key material,
                                                  borrowed by every engine *)
  }

  let conn_k_ssl keys i =
    Kdf.derive ~secret:keys.Handshake.k_ssl
      ~label:(Printf.sprintf "fleet-conn-%d" i) 16

  let make_conn t i =
    let config = t.fl_config in
    let inspect = config.inspect in
    let ship_records =
      inspect.Engine.mode = Dpienc.Probable
      && Bbx_rules.Classify.rank inspect.Engine.tier >= 3
    in
    let k_ssl = conn_k_ssl t.fl_keys i in
    { fc_id = i;
      fc_k_ssl = k_ssl;
      fc_sender = Dpienc.sender_create inspect.Engine.mode t.fl_key ~salt0:config.salt0;
      fc_writer =
        (if ship_records then Some (Record.create ~key:k_ssl ~direction ())
         else None);
      fc_off = 0;
      fc_bytes_since_reset = 0 }

  let register_conn t i =
    let c = make_conn t i in
    (* The shared generation is immutable after publication, which is
       what makes handing it to every worker domain safe. *)
    Bbx_mbox.Shardpool.register t.fl_pool ~conn_id:i ~salt0:t.fl_config.salt0
      ~direction (Fun.const t.fl_mb_keys);
    Hashtbl.add t.fl_conns i c

  let establish ?(config = default_config) ?(seed = "blindbox-fleet") ?domains
      ~conns ~rules () =
    if conns < 1 then invalid_arg "Fleet.establish: conns must be >= 1";
    Obs.span_enter obs_setup;
    let pool = Bbx_mbox.Shardpool.create ?domains config.inspect in
    let t =
      try
        (* one handshake, one rule preparation for the whole fleet — the
           [bbx_session_rule_prep] span fires exactly once here no matter
           how many connections follow (the O(1)-setup gate in
           bench/fleet.ml counts it) *)
        let keys = run_handshake seed in
        let rs = Engine.ruleset rules in
        let prep, _ = prepare_rules config keys (Engine.chunks rs) in
        let t =
          { fl_config = config; fl_pool = pool; fl_conns = Hashtbl.create conns;
            fl_keys = keys;
            fl_key = Dpienc.key_of_secret keys.Handshake.k;
            fl_prep = prep;
            fl_mb_keys = Engine.keys rs ~enc_chunk:(Ruleprep.lookup prep) }
        in
        for i = 0 to conns - 1 do register_conn t i done;
        (* registration runs on the owning workers: return only once every
           connection is installed, so gauges and stats read after
           [establish] already count the whole fleet *)
        Bbx_mbox.Shardpool.barrier pool;
        t
      with e ->
        Bbx_mbox.Shardpool.shutdown pool;
        raise e
    in
    Obs.span_exit obs_setup;
    t

  let get t conn =
    match Hashtbl.find_opt t.fl_conns conn with
    | Some c -> c
    | None -> invalid_arg (Printf.sprintf "Fleet: unknown connection %d" conn)

  let submit t ~conn payload =
    let c = get t conn in
    let buf = Buffer.create (wire_buf_estimate t.fl_config payload) in
    let k_ssl =
      match t.fl_config.inspect.Engine.mode with
      | Dpienc.Probable -> Some c.fc_k_ssl
      | Dpienc.Exact -> None
    in
    ignore
      (Dpienc.sender_encrypt_into c.fc_sender ?k_ssl ~base:c.fc_off
         ~tokenization:t.fl_config.tokenization payload buf : int);
    c.fc_off <- c.fc_off + String.length payload;
    Obs.incr obs_sends;
    Obs.add obs_payload_bytes (String.length payload);
    (* Record first, tokens second: both ride the same per-connection FIFO
       mailbox, and the escalation pump decrypts in stream order. *)
    (match c.fc_writer with
     | Some w ->
       Bbx_mbox.Shardpool.record_stream t.fl_pool ~conn_id:conn
         (Record.seal w ("T" ^ payload))
     | None -> ());
    let seq = Bbx_mbox.Shardpool.submit t.fl_pool ~conn_id:conn (Buffer.contents buf) in
    (* Salt resets ride the same mailbox as deliveries, so the engine's
       counters move exactly when the sender's do. *)
    c.fc_bytes_since_reset <- c.fc_bytes_since_reset + String.length payload;
    if t.fl_config.reset_period > 0
       && c.fc_bytes_since_reset >= t.fl_config.reset_period
    then begin
      c.fc_bytes_since_reset <- 0;
      Obs.incr obs_resets;
      let salt0 = Dpienc.sender_reset c.fc_sender in
      Bbx_mbox.Shardpool.reset_conn t.fl_pool ~conn_id:conn ~salt0
    end;
    seq

  (* Fleet-wide rule update: because the tenant shares one key, the delta
     is prepared ONCE (one [Ruleprep.update] under the tenant keys, one
     [bbx_session_rule_prep] span) and the next generation — ruleset and
     key material — is built once and borrowed by every connection, so
     the fleet's footprint stays flat across updates.  The update message
     and the salt reset that follows ride the same per-connection FIFO as
     deliveries, so the engine's counters move exactly when the sender's
     do. *)
  let update_rules t ?(remove_sids = []) add =
    let prev = Engine.ruleset_of t.fl_mb_keys in
    let rs = Engine.ruleset (Engine.next_rules (Engine.rules_of prev) ~remove_sids ~add) in
    let remove = retired_chunks prev rs in
    let prep =
      Obs.time obs_rule_prep @@ fun () ->
      match t.fl_config.rule_prep with
      | Direct ->
        let key = Dpienc.key_of_secret t.fl_keys.Handshake.k in
        Ruleprep.update_direct ~enc:(Dpienc.token_enc key) ~prev:t.fl_prep
          ~add:(Engine.chunks rs) ~remove
      | Garbled ->
        fst
          (Ruleprep.update ~domains:t.fl_config.setup_domains
             ~k:t.fl_keys.Handshake.k ~k_rand:t.fl_keys.Handshake.k_rand
             ~prev:t.fl_prep ~add:(Engine.chunks rs) ~remove ())
    in
    let next = Engine.keys rs ~enc_chunk:(Ruleprep.lookup prep) in
    t.fl_prep <- prep;
    t.fl_mb_keys <- next;
    Hashtbl.iter
      (fun conn_id c ->
         Bbx_mbox.Shardpool.update_rules t.fl_pool ~conn_id (Fun.const next);
         (* forced salt reset, as after any rule update (see [update_rules]
            on a single session) *)
         c.fc_bytes_since_reset <- 0;
         Obs.incr obs_resets;
         let salt0 = Dpienc.sender_reset c.fc_sender in
         Bbx_mbox.Shardpool.reset_conn t.fl_pool ~conn_id ~salt0)
      t.fl_conns

  let drain t ~f = Bbx_mbox.Shardpool.drain t.fl_pool ~f

  (* Single-connection teardown: sender state and middlebox state both go
     (idempotent, like {!Bbx_mbox.Shardpool.unregister}).  The shared
     prep and generation stay — they belong to the fleet, not the connection.
     Unregistration runs on the owning worker; the barrier makes it done
     by the time [remove] returns, like the sender half. *)
  let remove t ~conn =
    if Hashtbl.mem t.fl_conns conn then begin
      Hashtbl.remove t.fl_conns conn;
      Bbx_mbox.Shardpool.unregister t.fl_pool ~conn_id:conn;
      Bbx_mbox.Shardpool.barrier t.fl_pool
    end

  let migrate t ~conn ~shard =
    ignore (get t conn : conn);
    Bbx_mbox.Shardpool.migrate t.fl_pool ~conn_id:conn ~shard

  let conn_shard t ~conn = Bbx_mbox.Shardpool.conn_shard t.fl_pool ~conn_id:conn

  let rebalance t = Bbx_mbox.Shardpool.rebalance t.fl_pool

  let conn_bytes t = Bbx_mbox.Shardpool.footprint_bytes t.fl_pool

  let blocked t ~conn = Bbx_mbox.Shardpool.is_blocked t.fl_pool ~conn_id:conn

  let stats t = Bbx_mbox.Shardpool.stats t.fl_pool

  let flow_stats t ~conn = Bbx_mbox.Shardpool.flow_stats t.fl_pool ~conn_id:conn

  let domains t = Bbx_mbox.Shardpool.domains t.fl_pool

  let shutdown t = Bbx_mbox.Shardpool.shutdown t.fl_pool

  let with_fleet ?config ?seed ?domains ~conns ~rules f =
    let fleet = establish ?config ?seed ?domains ~conns ~rules () in
    Fun.protect ~finally:(fun () -> shutdown fleet) (fun () -> f fleet)
end
