(** A blocking [blindboxd] client: one socket, one monitored BlindBox
    connection, synchronous request/reply.

    This is the endpoint half of the protocol for callers that want
    simplicity over concurrency — tests, the CLI, and the load
    generator's setup phase ({!Loadgen} switches to its own non-blocking
    loop for the streaming phase).  {!establish} runs the whole
    connection preamble: local S/R handshake (the middlebox never sees a
    key), HELLO, per-connection rule encryption over the ruleset the
    daemon announced, RULE_SETUP.  There is one dialect: every session
    may ship RECORD_STREAM, export and import, and reads each verdict's
    detail from the one VERDICT frame. *)

(** Raised when the daemon answers with an [ERROR] frame. *)
exception Server_error of { code : int; message : string }

(** Raised on a reply that violates the protocol (wrong message type). *)
exception Protocol_error of string

type t

(** [connect endpoint] — raw transport, no handshake yet. *)
val connect : Daemon.endpoint -> t

(** [hello t ~mode ~salt0] — returns the assigned connection id and the
    daemon's ruleset, read from the HELLO_OK text by {!rules_of_text}.
    [features] is accepted and ignored: the HELLO features byte goes out
    as [0], and the daemon ignores it anyway.  It stays only because
    [e2ebench/] still passes it. *)
val hello :
  ?features:int -> t -> mode:Bbx_dpienc.Dpienc.mode -> salt0:int ->
  int * Bbx_rules.Rule.t list

(** [rules_of_text text] — the rules of an announced HELLO_OK text.  The
    process keeps one entry: the last text parsed, its rules and their
    {!Bbx_mbox.Engine.distinct_chunks}.  A text [String.equal] to the
    entry's returns the entry's list itself (physically); any other text
    is parsed, its chunks derived, and the entry replaced.  Safe to call
    from several domains at once: each caller gets its own text's rules. *)
val rules_of_text : string -> Bbx_rules.Rule.t list

(** [rule_setup t ~pairs] ships the [(chunk, enc)] table and waits for
    [SETUP_OK].  The daemon accepts only its announced ruleset's chunks,
    each once, in {!Bbx_mbox.Engine.distinct_chunks} order — the table
    {!pairs_for} builds. *)
val rule_setup : t -> pairs:(string * string) array -> unit

(** [send_records t ~seq records] frames one TOKEN_STREAM (does not wait
    for the verdict — pair with {!recv_verdict}). *)
val send_records : t -> seq:int -> string -> unit

(** [send_record t ~seq record] frames one RECORD_STREAM: one sealed SSL
    record of the connection's stream, shipped before the TOKEN_STREAM
    carrying the matching tokens (no reply; draws no verdict).  Only
    meaningful against a daemon in [Probable] mode, whose engines
    escalate on the recovered stream. *)
val send_record : t -> seq:int -> string -> unit

(** [recv_verdict t] — the next VERDICT frame, each verdict with its
    detail. *)
val recv_verdict : t -> int * Bbx_wire.Wire.status * Bbx_wire.Wire.verdict list

(** [salt_reset t ~salt0] — fire-and-forget (FIFO with deliveries). *)
val salt_reset : t -> salt0:int -> unit

(** [update_rules t ~remove_sids ~add ~pairs] — ships a live rule update
    ([pairs] must pair the post-update rules' chunks in
    {!Bbx_mbox.Engine.distinct_chunks} order, as {!pairs_for} on
    {!Bbx_mbox.Engine.next_rules} does) and waits for
    [UPDATE_OK]; returns the added-rule count.  Outstanding verdicts are
    collected and returned too (they arrive before the ack). *)
val update_rules :
  t ->
  remove_sids:int list ->
  add:Bbx_rules.Rule.t list ->
  pairs:(string * string) array ->
  int * (int * Bbx_wire.Wire.status * Bbx_wire.Wire.verdict list) list

(** [export_conn t] sends [CONN_EXPORT] and collects the reply: the
    serialised connection blob, plus any verdicts that were still in
    flight (the daemon flushes them before the [CONN_STATE] frame).  The
    connection is gone from the daemon afterwards. *)
val export_conn : t -> string * (int * Bbx_wire.Wire.status * Bbx_wire.Wire.verdict list) list

(** [import_conn t ~state] resumes an exported connection on this daemon,
    in place of {!rule_setup} (legal after HELLO); waits for [SETUP_OK]. *)
val import_conn : t -> state:string -> unit

(** [stats t] — works on a fresh connection without any handshake. *)
val stats : t -> Bbx_wire.Wire.stats

(** [metrics t scope] — the daemon's full metric registry (or trace
    window) in the requested rendering; like {!stats} it needs no
    handshake. *)
val metrics : t -> Bbx_wire.Wire.metrics_scope -> string

val close : t -> unit

(** {2 Low-level access}

    For non-blocking drivers ({!Loadgen}) that take over the socket
    after the blocking setup phase.  The framer may hold buffered bytes
    from earlier replies — keep using it, do not create a fresh one. *)

val fd : t -> Unix.file_descr

val framer : t -> Bbx_wire.Wire.Framer.t

(** {2 Batteries-included setup}

    [establish endpoint ~mode ~salt0 ~seed] connects, HELLOs, derives
    endpoint keys from a local S/R handshake (seeded deterministically
    from [seed]), direct-encrypts every distinct rule chunk of the
    daemon's ruleset, and completes RULE_SETUP.  Returns the session:
    its key material drives a {!Bbx_dpienc.Dpienc.sender} whose output
    the daemon's engine for this connection can match. *)

type session = {
  sc_client : t;
  sc_conn_id : int;
  sc_rules : Bbx_rules.Rule.t list;  (** ruleset announced by the daemon *)
  sc_key : Bbx_dpienc.Dpienc.key;    (** DPIEnc key (sender side) *)
  sc_k_ssl : string;                 (** record-layer key, 16 bytes *)
  sc_mode : Bbx_dpienc.Dpienc.mode;  (** mode agreed at HELLO *)
}

val establish :
  Daemon.endpoint ->
  mode:Bbx_dpienc.Dpienc.mode ->
  salt0:int ->
  seed:string ->
  session

(** [migrate s endpoint] moves a live session to another daemon: drains
    and serialises the connection on the source ({!export_conn}), closes
    that socket, reconnects to [endpoint] and resumes via {!import_conn}.
    Sender-side key material and salt counters carry over unchanged — the
    snapshot agrees with them — so the caller keeps streaming with the
    same DPIEnc sender.  Returns the rebound session (fresh [sc_client]
    and [sc_conn_id]) and the verdicts still in flight on the source. *)
val migrate :
  session ->
  Daemon.endpoint ->
  session * (int * Bbx_wire.Wire.status * Bbx_wire.Wire.verdict list) list

(** [pairs_for ~key rules] — the RULE_SETUP table for [rules] under
    [key]: every distinct chunk, in {!Bbx_mbox.Engine.distinct_chunks}
    order, paired with its direct encryption ([AES_k(chunk)]).  When
    [rules] is physically the list {!rules_of_text} last returned, the
    chunks come from its entry and only the encryptions are computed.
    Exposed for rule updates and tests. *)
val pairs_for :
  key:Bbx_dpienc.Dpienc.key -> Bbx_rules.Rule.t list -> (string * string) array
