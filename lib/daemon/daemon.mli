(** [blindboxd]: the BlindBox middlebox as a standalone network daemon.

    One process, one ruleset, one {!Bbx_mbox.Shardpool}; many client
    connections multiplexed onto it over a Unix-domain socket (or TCP)
    speaking the {!Bbx_wire.Wire} framing.  Each accepted socket carries
    exactly one monitored BlindBox connection: the client runs the
    endpoint half (handshake between S and R happens {e off-box} — the
    middlebox never sees a key), ships its per-connection obfuscated rule
    encryptions in [RULE_SETUP], then streams {!Bbx_dpienc.Dpienc}
    records in [TOKEN_STREAM] frames and reads [VERDICT] replies.
    Clients that advertise {!Bbx_wire.Wire.feature_tiered} in [HELLO]
    may additionally ship their sealed SSL stream in [RECORD_STREAM]
    frames — fuel for Protocol III probable-cause escalation on the
    daemon's engines — and get their verdicts as [VERDICT_TIERED],
    which carries the per-verdict tier detail byte; everyone else keeps
    legacy [VERDICT] frames.

    {b Event loop.}  A single front domain owns every socket: a
    [select]-based loop accepts, reads frames, routes control messages,
    and submits deliveries to the shard pool (worker domains do the
    actual detection).  After each read sweep the loop drains the pool
    and turns completed deliveries into [VERDICT] frames in global
    submission order — per-connection reply order therefore matches
    per-connection submission order.

    {b Backpressure.}  Two bounded buffers flow-control a connection:
    the pool's per-worker mailboxes block the submitting front when a
    shard falls behind, and a per-connection output buffer beyond
    [high_water] bytes pauses {e reads} from that socket until the peer
    has drained its replies — a slow reader throttles itself, never the
    daemon's memory.

    {b Isolation.}  A malformed frame, an illegal message for the
    connection's state, or an unparseable token stream answers with an
    [ERROR] frame and closes that one connection; other connections and
    the daemon itself are unaffected.

    {b Observability.}  Every frame is timed through five pipeline
    stages — decode ([bbx_daemon_read_us]), record validation
    ([bbx_daemon_validate_us]), mailbox wait ([bbx_daemon_queue_wait_us]),
    shard inspection ([bbx_shard_service_us]) and output-queue residency
    including the socket write ([bbx_daemon_write_us]) — plus an
    event-loop busy histogram ([bbx_daemon_loop_us]) with a stall counter.
    With {!Bbx_obs.Trace} recording (enable via [trace_out], the
    [BLINDBOX_TRACE] env var, or [Trace.set_enabled]) each stage also
    lands in the flight recorder keyed by [(conn_id, seq)], so a dump
    decomposes one frame's round trip stage by stage.  Live scraping:
    [METRICS_REQ] over the wire (any connection state), or plain HTTP/1.0
    on the optional [metrics] endpoint — [GET /metrics] (Prometheus),
    [/metrics.jsonl] (JSONL), [/trace] (Chrome trace JSON). *)

(** Where the daemon listens / the client connects. *)
type endpoint =
  | Unix_path of string        (** Unix-domain socket path *)
  | Tcp of string * int        (** host, port *)

(** ["tcp:HOST:PORT"] becomes {!Tcp}; anything else is a {!Unix_path}. *)
val endpoint_of_string : string -> endpoint

val endpoint_to_string : endpoint -> string

type config = {
  endpoint : endpoint;
  inspect : Bbx_mbox.Engine.config;
  (** the engines' mode, tier and Protocol III budget *)
  rules : Bbx_rules.Rule.t list;
  (** the ruleset announced in [HELLO_OK]; built once at start-up and
      borrowed by every registered connection *)
  domains : int option;           (** shard-pool workers (None = default) *)
  high_water : int;               (** per-connection output-buffer bytes
                                      before reads from it pause *)
  metrics : endpoint option;      (** HTTP/1.0 [GET /metrics] listener *)
  trace_out : string option;      (** enable the flight recorder and dump
                                      it here on teardown ([.jsonl] =
                                      JSONL, else Chrome trace JSON) *)
  rebalance_every : float option; (** seconds between shard rebalances
                                      ({!Bbx_mbox.Shardpool.rebalance});
                                      [None] (default) disables *)
}

(** [config ~endpoint ~rules ()] with {!Bbx_mbox.Engine.default_config},
    default domains, a 1 MiB high-water mark, and no metrics/trace
    plane. *)
val config :
  ?inspect:Bbx_mbox.Engine.config ->
  ?domains:int ->
  ?high_water:int ->
  ?rebalance_every:float ->
  ?metrics:endpoint ->
  ?trace_out:string ->
  endpoint:endpoint ->
  rules:Bbx_rules.Rule.t list ->
  unit ->
  config

(** [connect endpoint] — a blocking client socket to a daemon (used by
    {!Client} and {!Loadgen}); sets [TCP_NODELAY] on TCP and turns
    SIGPIPE off process-wide. *)
val connect : endpoint -> Unix.file_descr

(** [run ?stop cfg] binds the endpoint and serves until [stop ()] turns
    true (checked a few times a second; default: serve forever).  Always
    shuts the shard pool down, closes every socket and unlinks a
    Unix-domain path on the way out, including on exceptions. *)
val run : ?stop:(unit -> bool) -> config -> unit

(** In-process daemon for tests, benches and examples: {!start} binds
    the endpoint synchronously (a client may connect as soon as it
    returns) and runs the event loop on a fresh domain; {!stop} signals
    it and joins. *)
type handle

val start : config -> handle

val stop : handle -> unit
