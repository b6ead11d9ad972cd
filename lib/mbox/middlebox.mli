(** A middlebox managing many monitored connections.

    This is the deployment unit of Fig. 1: one in-network appliance, one
    ruleset, many sender/receiver pairs.  Each connection gets its own
    {!Engine} (per-connection keys mean per-connection encrypted rules and
    counters); the middlebox multiplexes them by connection id and keeps
    the aggregate statistics an operator would act on.

    Since the sharding refactor this module is a thin sequential front
    over exactly one {!Shard} (the per-shard core); {!Shardpool} runs many
    shards across OCaml domains behind the same connection-level
    semantics.  The sequential API below is unchanged and its verdicts
    stay byte-identical. *)

type conn_id = int

type stats = Shard.stats = {
  connections : int;        (** currently registered *)
  total_tokens : int;       (** encrypted tokens inspected *)
  total_keyword_hits : int;
  alerts : int;             (** rule verdicts across all connections *)
  blocked : int;            (** connections torn down by drop rules *)
}

(** Per-connection flow statistics (what a NetFlow-style export would
    carry for one monitored connection). *)
type flow_stats = Shard.flow_stats = {
  flow_tokens : int;        (** encrypted tokens inspected on this flow *)
  flow_hits : int;          (** keyword hits (monotonic, survives engine resets) *)
  flow_verdicts : int;      (** fresh rule verdicts reported *)
  flow_blocked : bool;
}

type t

(** [create ?index ?tier ?budget ~mode ~rules] — the ruleset is fixed for
    the box's lifetime (rule updates in deployments mean re-running rule
    preparation per connection anyway).  [index] (default
    {!Bbx_detect.Detect.Hash}) selects the cipher-index backend for every
    engine; [tier] (default [Protocol_III]) and [budget] configure each
    engine's escalation behaviour (see {!Engine.create}). *)
val create :
  ?index:Bbx_detect.Detect.index_backend ->
  ?tier:Bbx_rules.Classify.protocol_class ->
  ?budget:Engine.budget ->
  mode:Bbx_dpienc.Dpienc.mode -> rules:Bbx_rules.Rule.t list -> unit -> t

(** [register ?direction ?prepared ?keys ?prefilter t ~conn_id ~salt0
    ~enc_chunk] — called at connection setup, after obfuscated rule
    encryption yields this connection's [enc_chunk] oracle.
    [prepared]/[keys]/[prefilter] share one rule preparation across
    connections (see {!Engine.create}).  Raises [Invalid_argument] on
    duplicate ids. *)
val register :
  ?direction:string ->
  ?prepared:string array * string array ->
  ?keys:Bbx_detect.Detect.keyset ->
  ?prefilter:Engine.prefilter_prep ->
  t -> conn_id:conn_id -> salt0:int -> enc_chunk:(string -> string) -> unit

(** [record_stream t ~conn_id record] retains one sealed SSL record of
    the connection's stream for Protocol III probable-cause escalation
    (see {!Engine.record_stream}).  Feed records in stream order, before
    the delivery carrying the matching tokens. *)
val record_stream : t -> conn_id:conn_id -> string -> unit

(** [process t ~conn_id tokens] inspects a batch for one connection and
    returns the new rule verdicts (empty list when clean).  Connections
    whose drop-rules fire are marked blocked; processing a blocked or
    unknown connection raises [Invalid_argument]. *)
val process : t -> conn_id:conn_id -> Bbx_dpienc.Dpienc.enc_token list -> Engine.verdict list

(** [process_wire t ~conn_id wire] — same, straight off the wire encoding
    (no token list materialised). *)
val process_wire : t -> conn_id:conn_id -> string -> Engine.verdict list

(** [is_blocked t ~conn_id]. *)
val is_blocked : t -> conn_id:conn_id -> bool

(** [unregister t ~conn_id] — connection teardown (idempotent). *)
val unregister : t -> conn_id:conn_id -> unit

(** [engine t ~conn_id] — direct access for probable-cause key recovery. *)
val engine : t -> conn_id:conn_id -> Engine.t

val stats : t -> stats

(** [flow_stats t ~conn_id] — this connection's flow counters.  Raises
    [Invalid_argument] on unknown ids, like {!process}. *)
val flow_stats : t -> conn_id:conn_id -> flow_stats

(** [fold_flows t ~init ~f] folds over every registered connection's flow
    stats (iteration order unspecified). *)
val fold_flows : t -> init:'a -> f:('a -> conn_id -> flow_stats -> 'a) -> 'a

(** [export_conn t ~conn_id] serialises and removes one connection for
    migration; [import_conn] validates and installs an exported blob
    (raising [Invalid_argument] on malformed state, mode mismatch, or a
    duplicate id).  See {!Shard.export_conn}/{!Shard.parse_export}. *)
val export_conn : t -> conn_id:conn_id -> string

val import_conn : t -> conn_id:conn_id -> string -> unit

(** Approximate resident bytes of all per-connection state. *)
val footprint_bytes : t -> int
