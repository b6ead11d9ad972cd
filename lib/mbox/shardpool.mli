(** A middlebox sharded across OCaml domains.

    A thin routing layer over {!Bbx_exec.Pool}: one worker domain per
    shard, each owning a private {!Shard} — its own per-connection
    detection engines and connection table, no shared mutable detection
    state.  The front feeds workers through the pool's per-worker bounded
    mailboxes and routes every message for a connection to its pinned
    shard (default placement [conn_id mod domains]; {!migrate} can re-pin
    a live connection), so a connection's deliveries (and salt resets,
    rule updates) execute in submission order on one domain and its
    per-token salt counters stay in lock-step with the sender.

    Two usage styles:

    - {b Synchronous}: {!process_wire} behaves exactly like
      {!Shard.process_wire} on a single shard — submit one delivery, wait,
      return its verdicts (differential-tested to be byte-identical).
    - {b Pipelined}: {!submit} many deliveries (possibly for many
      connections, fanning out across domains), then {!drain} once.
      [drain] quiesces every worker and replays completed verdicts in
      global submission order, so callbacks are deterministic regardless
      of how shards interleaved.

    Deliveries submitted to a connection after one of its drop-rules
    fired are silently dropped by the worker (counted in
    [bbx_shardpool_dropped_total]); the synchronous path converts that
    drop into the [Invalid_argument] a sequential {!Shard} raises.

    Reads ({!stats}, {!flow_stats}, {!fold_flows}, {!is_blocked}) quiesce
    the relevant workers first, so they observe everything submitted
    before the call.

    A pool holds OS threads: always {!shutdown} it (or use
    {!with_pool}). *)

type conn_id = Shard.conn_id

type stats = Shard.stats

type t

(** [create ?domains config] spawns [domains] worker domains (default:
    [recommended_domain_count - 1], at least 1), each owning a
    [Shard.create config]. *)
val create : ?domains:int -> Engine.config -> t

(** Number of worker domains (= shards). *)
val domains : t -> int

(** [register t ~conn_id ~salt0 ~direction keys] — as {!Shard.register};
    raises [Invalid_argument] on duplicate ids.  [keys ()] runs on the
    owning worker domain: a fleet passes its shared generation, the
    daemon expands a connection's private key material there so the
    front takes on no per-connection key expansion.  Shared rulesets and
    key material are safe across domains precisely because they are
    never written after publication (see {!Engine.ruleset}). *)
val register :
  t -> conn_id:conn_id -> salt0:int -> direction:string -> (unit -> Engine.keys) -> unit

(** [record_stream t ~conn_id record] enqueues one sealed SSL record for
    probable-cause retention ({!Shard.record_stream}).  It rides the same
    per-worker FIFO as {!submit}, so submit a connection's record before
    the delivery carrying its tokens and the engine sees them in that
    order. *)
val record_stream : t -> conn_id:conn_id -> string -> unit

(** [submit ?tag t ~conn_id wire] enqueues one wire delivery and returns
    its submission ticket (a global sequence number, strictly increasing).
    Raises [Invalid_argument] on unknown connections.  Results are
    collected by {!drain}.

    Each delivery is timed through two stages — submit-to-dequeue
    ([bbx_daemon_queue_wait_us]) and shard inspection
    ([bbx_shard_service_us]) — and, when {!Bbx_obs.Trace} is recording,
    emits [queue_wait]/[service] flight-recorder events keyed by
    [(conn_id, tag)].  [tag] is the caller's frame id (the daemon passes
    the wire seq; default [-1] = untagged). *)
val submit : ?tag:int -> t -> conn_id:conn_id -> string -> int

(** [drain t ~f] waits for all pending work, then calls
    [f ~seq ~conn_id verdicts] once per completed delivery in submission
    ([seq]) order.  Dropped deliveries (blocked connections) get no
    callback.  Re-raises the first exception a worker hit, if any. *)
val drain : t -> f:(seq:int -> conn_id:conn_id -> Engine.verdict list -> unit) -> unit

(** [process_wire t ~conn_id wire] — synchronous single delivery with
    {!Shard.process_wire} semantics (raises [Invalid_argument] on
    blocked/unknown connections).  Raises if async submissions are
    pending; drain first. *)
val process_wire : t -> conn_id:conn_id -> string -> Engine.verdict list

(** [reset_conn t ~conn_id ~salt0] enqueues a salt reset; it takes effect
    after every delivery submitted before it (mailbox FIFO), matching the
    sender-side reset point. *)
val reset_conn : t -> conn_id:conn_id -> salt0:int -> unit

(** [update_rules t ~conn_id next] enqueues a rule update for one
    connection ({!Shard.update_rules} with [next ()], run on the owning
    worker domain); like a salt reset it takes effect after every
    delivery submitted before it, so the caller can follow it with
    {!reset_conn} and keep sender and engine in lock-step. *)
val update_rules : t -> conn_id:conn_id -> (unit -> Engine.keys) -> unit

(** [unregister t ~conn_id] — idempotent teardown. *)
val unregister : t -> conn_id:conn_id -> unit

(** [barrier t] waits until every shard has run every message submitted
    so far — registrations and unregistrations included — then re-raises
    the first worker-side exception, if any. *)
val barrier : t -> unit

val is_blocked : t -> conn_id:conn_id -> bool

(** Aggregate statistics summed over all shards (quiesces first). *)
val stats : t -> stats

val flow_stats : t -> conn_id:conn_id -> Shard.flow_stats

val fold_flows : t -> init:'a -> f:('a -> conn_id -> Shard.flow_stats -> 'a) -> 'a

(** {1 Connection migration}

    A live connection can be drained off its shard and resumed elsewhere:
    another shard of the same pool ({!migrate}), or another pool/daemon
    entirely ({!export_conn} on the source, {!import_conn} on the
    destination).  The blob is {!Shard.export_conn} output — engine
    snapshot plus shard wrapper state — and a migrated connection is
    observably identical to one that never moved (differential-tested:
    same future verdicts, wire frames and summed stats). *)

(** [export_conn t ~conn_id] quiesces the owning worker — draining every
    message already submitted for the connection through its FIFO mailbox
    — then serialises and removes the connection.  Results of deliveries
    drained this way are still returned by the next {!drain}.  Raises
    [Invalid_argument] on unknown ids. *)
val export_conn : t -> conn_id:conn_id -> string

(** [import_conn ?shard t ~conn_id blob] validates [blob] on the front
    side ({!Shard.parse_export} — a malformed or mode-mismatched blob
    raises [Invalid_argument] here and never reaches a worker) and
    installs the connection on [shard] (default: the [conn_id]-hash
    placement).  Raises on duplicate ids and out-of-range shards. *)
val import_conn : ?shard:int -> t -> conn_id:conn_id -> string -> unit

(** [migrate t ~conn_id ~shard] re-pins a live connection onto another
    shard of this pool (export + import; no-op when already there). *)
val migrate : t -> conn_id:conn_id -> shard:int -> unit

(** The shard currently owning [conn_id].  Raises [Invalid_argument] on
    unknown ids. *)
val conn_shard : t -> conn_id:conn_id -> int

(** Registered-connection count per shard (index = shard). *)
val conns_per_shard : t -> int array

(** [rebalance t] migrates connections from shards above the even-split
    ceiling to shards below it and returns how many moved.  Placement
    only — verdict streams and stats are invariant under migration. *)
val rebalance : t -> int

(** Approximate resident bytes of all connection state across every
    shard ({!Shard.footprint_bytes}; quiesces all workers; refreshes the
    [bbx_conn_bytes] gauge). *)
val footprint_bytes : t -> int

(** [shutdown t] drains remaining mailboxes, stops and joins every worker
    domain.  Idempotent; the pool is unusable afterwards. *)
val shutdown : t -> unit

(** [with_pool ?domains config f] — {!create}, run [f], always
    {!shutdown}. *)
val with_pool : ?domains:int -> Engine.config -> (t -> 'a) -> 'a
