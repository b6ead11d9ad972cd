(** Load generator for [blindboxd]: N concurrent senders over real
    sockets, each one monitored BlindBox connection.

    Setup runs through the blocking {!Client} (handshake, HELLO,
    RULE_SETUP) and pre-encrypts every TOKEN_STREAM frame, so the
    streaming phase measures the daemon, not the client's crypto.  Each
    connection's frames are one stream: their tokens carry running
    stream offsets, as {!Blindbox.Session} and a real sender's do.
    Streaming is a single non-blocking [select] loop: frames are paced
    to an aggregate target rate (or closed-loop when [rate = 0]) with at
    most [inflight] outstanding frames per connection; round-trip time
    is taken from the moment a frame is queued for write to the moment
    its VERDICT arrives, and every sample also lands in the
    [bbx_loadgen_rtt_us] {!Bbx_obs.Obs} histogram. *)

type cfg = {
  lg_endpoint : Daemon.endpoint;
  lg_conns : int;             (** concurrent connections *)
  lg_sends : int;             (** TOKEN_STREAM frames per connection *)
  lg_rate : float;            (** aggregate frames/s; [0.] = closed loop *)
  lg_inflight : int;          (** max outstanding frames per connection *)
  lg_payload_bytes : int;     (** plaintext bytes per frame *)
  lg_hit_rate : float;        (** fraction of frames carrying an
                                  alert-rule keyword *)
  lg_mode : Bbx_dpienc.Dpienc.mode;
  lg_seed : string;           (** drives payloads and handshakes *)
}

(** Defaults: 4 connections, 200 sends, closed loop, inflight 4, 1024-byte
    payloads, 2% hit rate, [Exact] mode, seed ["loadgen"]. *)
val cfg :
  ?conns:int ->
  ?sends:int ->
  ?rate:float ->
  ?inflight:int ->
  ?payload_bytes:int ->
  ?hit_rate:float ->
  ?mode:Bbx_dpienc.Dpienc.mode ->
  ?seed:string ->
  Daemon.endpoint ->
  cfg

type report = {
  rp_conns : int;
  rp_sends : int;             (** frames completed (all of them) *)
  rp_clean : int;             (** frames whose verdict was [Clean] *)
  rp_alert_frames : int;      (** frames whose verdict carried alerts *)
  rp_alerts : int;            (** individual alert verdicts *)
  rp_dropped : int;           (** frames dropped on blocked connections *)
  rp_tokens : int;            (** tokens in {e inspected} (non-dropped)
                                  frames — comparable to the daemon's
                                  [s_total_tokens] *)
  rp_elapsed_s : float;       (** streaming phase only *)
  rp_sends_per_s : float;
  rp_tokens_per_s : float;
  rp_rtt_p50_us : float;
  rp_rtt_p95_us : float;
  rp_rtt_p99_us : float;
  rp_rtt_mean_us : float;
  rp_rtt_max_us : float;
  rp_qwait_p50_us : float;    (** daemon-side mailbox wait for this run's
                                  interval, estimated from the
                                  [bbx_daemon_queue_wait_us] bucket delta
                                  fetched over [METRICS_REQ] (bucket
                                  upper bounds; [0.] when the histogram
                                  is missing or empty) *)
  rp_qwait_p95_us : float;
  rp_qwait_p99_us : float;
  rp_service_p50_us : float;  (** shard inspection time, same method
                                  ([bbx_shard_service_us]) *)
  rp_service_p95_us : float;
  rp_service_p99_us : float;
}

(** [run cfg] drives the full load and returns the report.  Connections
    are closed (BYE) on the way out, including on exceptions. *)
val run : cfg -> report

val report_json : report -> string

(** Pretty one-per-line rendering for the CLI. *)
val print_report : out_channel -> report -> unit
