(** The blindboxd wire protocol: a compact length-prefixed binary framing
    of the BlindBox connection lifecycle.

    Every frame on the socket is

    {v u32_be payload_length | payload v}

    where [payload.[0]] is the message type byte and the rest is the
    message body ({!decode} works on whole payloads; the 4-byte length
    prefix is handled by {!encode_frame_string} on the way out and
    {!Framer} on the way in).  Every field is written and read by
    {!Bbx_codec.Codec}, the codec connection snapshots use too: integers
    are big-endian and unsigned unless noted, and a 64-bit field whose
    value lies outside OCaml's [int] range is refused.  A connection's
    lifecycle is

    {v client                         server (blindboxd)
       HELLO{version,mode,salt0}  ->
                                  <-  HELLO_OK{conn_id,mode,rules text}
       RULE_SETUP{chunk,enc pairs}->
                                  <-  SETUP_OK
       TOKEN_STREAM{seq,records}  ->
                                  <-  VERDICT{seq,status,verdicts}
       SALT_RESET{salt0}          ->                       (no reply)
       RULE_UPDATE{...}           ->
                                  <-  UPDATE_OK{added}
       STATS_REQ                  ->
                                  <-  STATS{...}
       BYE                        ->                       (server closes) v}

    [RULE_SETUP] carries the per-connection obfuscated rule encryptions
    — the [(chunk, AES_k(chunk))] pairs {!Blindbox.Ruleprep} produces on
    the endpoint — so the middlebox never holds [k].  [TOKEN_STREAM]
    bodies are {!Bbx_dpienc.Dpienc}'s token stream verbatim: runs of
    5-byte ciphers (21 with the Probable-mode embed) under a short
    header, window offsets implicit and delimiter offsets delta-coded.  [STATS_REQ] is honoured in any connection state, so a
    monitoring client can query a daemon without a handshake.

    [METRICS_REQ]/[METRICS] expose the full {!Bbx_obs} registry —
    Prometheus text, JSONL, or a flight-recorder trace window — from a
    running daemon; like [STATS_REQ] they are honoured in any connection
    state.  [RECORD_STREAM] ships the connection's sealed SSL records
    ahead of each token delivery, so the daemon's engines can run
    Protocol III probable-cause escalation.  Every [VERDICT] entry
    carries its {!detail}, so a composite match or a budget-exceeded
    flag reads back as exactly that.  [CONN_EXPORT]/[CONN_STATE]/
    [CONN_IMPORT] carry live connection migration: a streaming client
    asks the daemon to drain and serialise its connection ([CONN_EXPORT]
    -> [CONN_STATE]), then resumes it on another daemon by sending
    [CONN_IMPORT] in place of [RULE_SETUP] — skipping rule setup
    entirely, since the snapshot carries the prepared rule encryptions
    and every counter.

    There is one dialect and no feature negotiation.  [HELLO] has one
    12-byte body (type, version, mode, salt0, features) and the daemon
    ignores its features byte; a [HELLO] whose version is not
    {!version} draws [ERROR{err_version}].

    Anything the decoder cannot parse raises {!Malformed}; servers answer
    with an [ERROR] frame and close that one connection. *)

(** Raised on any frame the decoder rejects: bad length, unknown type
    byte, truncated body, trailing bytes, a 64-bit field outside the
    [int] range, or an over-limit frame.  It is {!Bbx_codec.Codec.Malformed}. *)
exception Malformed of string

(** Hard upper bound on a frame payload (16 MiB): anything longer is
    rejected before buffering, so a garbage length prefix cannot make the
    server allocate unboundedly. *)
val max_frame_bytes : int

(** Protocol version spoken by this implementation (3: [TOKEN_STREAM]
    bodies in run-headed DPIEnc records, one [VERDICT] layout carrying
    the detail byte, one 12-byte [HELLO] body). *)
val version : int

(** How a verdict was reached: {!Bbx_rules.Classify.detail}, whose
    {!Bbx_rules.Classify.detail_byte} is a [VERDICT] entry's detail
    byte. *)
type detail = Bbx_rules.Classify.detail

(** One rule-level verdict as reported over the wire: a [VERDICT] entry
    is [sid u32 · detail u8 · msg str16]. *)
type verdict = {
  v_sid : int;         (** rule sid (0 when absent) *)
  v_detail : detail;
  v_msg : string;      (** rule msg (may be empty) *)
}

(** Reply status of a [VERDICT] frame. *)
type status =
  | Clean    (** delivery inspected, no new rule verdicts *)
  | Alerts   (** delivery inspected, fresh verdicts attached *)
  | Dropped  (** the connection is blocked; the delivery was not inspected *)

(** Aggregate middlebox statistics (mirrors {!Bbx_mbox.Shard.stats}). *)
type stats = {
  s_connections : int;
  s_total_tokens : int;
  s_total_keyword_hits : int;
  s_alerts : int;
  s_blocked : int;
}

(** A value for [HELLO]'s features byte, accepted and ignored like any
    other: the daemon speaks one dialect to every client.  It stays only
    because [e2ebench/] still names it. *)
val feature_tiered : int

(** What a [METRICS_REQ] asks for: the metric registry as Prometheus text
    ({!Bbx_obs.Obs.render_prometheus}) or JSONL ({!Bbx_obs.Obs.dump_jsonl}),
    or the flight-recorder window as Chrome-trace JSON
    ({!Bbx_obs.Trace.dump_chrome}). *)
type metrics_scope = Prometheus | Jsonl | Trace

type msg =
  | Hello of {
      version : int;
      mode : Bbx_dpienc.Dpienc.mode;
      salt0 : int;
      features : int;  (** one byte, accepted and ignored by the daemon *)
    }
  | Hello_ok of { conn_id : int; mode : Bbx_dpienc.Dpienc.mode; rules_text : string }
  | Rule_setup of { pairs : (string * string) array }
      (** [(chunk, enc)] pairs: chunk is [Tokenizer.token_len] bytes, enc
          is the 16-byte [AES_k(chunk)].  The daemon takes exactly the
          announced ruleset's distinct chunks, in
          {!Bbx_mbox.Engine.distinct_chunks} order, and answers any other
          table with [ERROR{err_setup}]. *)
  | Setup_ok
  | Token_stream of { seq : int; records : string }
      (** [records] is a {!Bbx_dpienc.Dpienc} wire encoding, verbatim *)
  | Verdict of { seq : int; status : status; verdicts : verdict list }
  | Salt_reset of { salt0 : int }
  | Rule_update of {
      remove_sids : int list;
      add_text : string;                  (** added rules, Snort syntax *)
      pairs : (string * string) array;
          (** full post-update enc table, in the post-update rules'
              chunk order *)
    }
  | Update_ok of { added : int }
  | Stats_req
  | Stats of stats
  | Bye
  | Error of { code : int; message : string }
  | Metrics_req of { scope : metrics_scope }
  | Metrics of { scope : metrics_scope; body : string }
      (** [body] is the rendered registry/trace, verbatim (rest of frame) *)
  | Record_stream of { seq : int; record : string }
      (** one sealed SSL record of the connection's stream, shipped ahead
          of the [TOKEN_STREAM] carrying the matching tokens so the
          middlebox can run Protocol III probable-cause escalation.  No
          reply. *)
  | Conn_export
      (** drain my connection through its shard mailbox, serialise it and
          send it back.  The daemon replies with any still-pending
          [VERDICT]s, then one [CONN_STATE]; the connection is gone from
          this daemon afterwards (further traffic frames draw
          [ERROR{err_protocol}]). *)
  | Conn_state of { state : string }
      (** the serialised connection ({!Bbx_mbox.Shard.export_conn} blob,
          rest of frame, verbatim) *)
  | Conn_import of { state : string }
      (** resume a previously exported connection on this daemon; legal
          exactly where [RULE_SETUP] is (after [HELLO_OK]), replacing it.
          The daemon validates the blob (mode must match, state must
          parse) and replies [SETUP_OK], or [ERROR{err_setup}]. *)

(** [ERROR] codes: 1 unparseable frame or token records, 2 message
    illegal in this connection state (or a bad salt0), 3 version/mode
    mismatch at HELLO, 4 rule setup/update or snapshot import rejected. *)

val err_malformed : int

val err_protocol : int

val err_version : int

val err_setup : int

(** The message's type byte, [payload.[0]]: 1 [HELLO] to 16
    [RECORD_STREAM], then 18 [CONN_EXPORT] to 20 [CONN_IMPORT].  Type 17
    is retired and decodes as an unknown type. *)
val type_byte : msg -> int

(** [encode_frame_string msg] — the framed encoding (length prefix
    included) as a fresh string.  Raises [Invalid_argument] when the
    payload exceeds {!max_frame_bytes}.  A [HELLO_OK] frame is
    [hello_ok_head ~conn_id ~mode ~text_bytes ^ rules_text], built from
    that head. *)
val encode_frame_string : msg -> string

(** [hello_ok_head ~conn_id ~mode ~text_bytes] — the first 10 bytes of
    a [HELLO_OK] frame whose rules text is [text_bytes] long: the length
    prefix, the type byte, [conn_id] and the mode byte.  The text follows
    verbatim, so a server may send one text it holds after each
    connection's head without copying it.  Raises [Invalid_argument] when
    the payload would exceed {!max_frame_bytes} or [conn_id] does not fit
    in 32 bits. *)
val hello_ok_head : conn_id:int -> mode:Bbx_dpienc.Dpienc.mode -> text_bytes:int -> string

(** [decode payload] parses one frame payload (without its length
    prefix).  Raises {!Malformed}. *)
val decode : string -> msg

(** Incremental frame extraction from a byte stream: {!Framer.feed}
    whatever the socket produced, then {!Framer.next} until it returns
    [None].  Raises {!Malformed} as soon as a length prefix exceeds
    {!max_frame_bytes} (without waiting for the body). *)
module Framer : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> int -> int -> unit

  (** The next complete frame, decoded where it lies in the framer's
      buffer: a payload is copied once, into the message's own strings.
      The frame is consumed even when it raises {!Malformed}. *)
  val next : t -> msg option

  (** Bytes buffered but not yet returned as frames. *)
  val buffered : t -> int
end
