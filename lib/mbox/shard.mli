(** The per-shard middlebox core: many monitored connections, one owner.

    This is the sequential heart of the middlebox tier.  {!Middlebox}
    wraps exactly one shard behind the historical API; {!Shardpool} owns
    one shard per worker domain and feeds each through a mailbox.

    {b Ownership}: a shard is single-owner mutable state — every
    connection table, engine and counter in it may be touched by at most
    one domain at a time.  {!Shardpool} enforces this by construction
    (only the worker domain that owns a shard executes its messages, and
    the front reads shard state only after quiescing the worker under the
    shard mutex).  Nothing in this module locks. *)

type conn_id = int

type stats = {
  connections : int;        (** currently registered *)
  total_tokens : int;       (** encrypted tokens inspected *)
  total_keyword_hits : int;
  alerts : int;             (** rule verdicts across all connections *)
  blocked : int;            (** connections torn down by drop rules *)
}

(** Per-connection flow statistics (what a NetFlow-style export would
    carry for one monitored connection). *)
type flow_stats = {
  flow_tokens : int;        (** encrypted tokens inspected on this flow *)
  flow_hits : int;          (** keyword hits (monotonic, survives engine resets) *)
  flow_verdicts : int;      (** fresh rule verdicts reported *)
  flow_blocked : bool;
}

type t

(** [create ?index ?tier ?budget ~mode ~rules] — [index] (default
    {!Bbx_detect.Detect.Hash}) is the cipher-index backend used by every
    engine this shard registers; [tier] (default [Protocol_III]) and
    [budget] (default {!Engine.default_budget}) configure every engine's
    escalation behaviour. *)
val create :
  ?index:Bbx_detect.Detect.index_backend ->
  ?tier:Bbx_rules.Classify.protocol_class ->
  ?budget:Engine.budget ->
  mode:Bbx_dpienc.Dpienc.mode -> rules:Bbx_rules.Rule.t list -> unit -> t

(** The DPIEnc mode this shard inspects. *)
val mode : t -> Bbx_dpienc.Dpienc.mode

(** [register ?direction ?prepared ?keys ?prefilter t ~conn_id ~salt0
    ~enc_chunk] — raises [Invalid_argument] on duplicate ids.
    [enc_chunk] is consulted on the calling (owning) domain.
    [direction] is the record-layer direction of the inspected stream;
    [prepared]/[keys]/[prefilter] are the shared per-(tenant, generation)
    chunk/enc arrays, expanded keyset and prefilter prep that make
    registration O(1) in ruleset size and keep per-connection footprint
    flat (see {!Engine.create}). *)
val register :
  ?direction:string ->
  ?prepared:string array * string array ->
  ?keys:Bbx_detect.Detect.keyset ->
  ?prefilter:Engine.prefilter_prep ->
  t -> conn_id:conn_id -> salt0:int -> enc_chunk:(string -> string) -> unit

(** [record_stream t ~conn_id record] retains one sealed SSL record for
    probable-cause escalation ({!Engine.record_stream}).  Ignored on
    blocked connections; raises [Invalid_argument] on unknown ids. *)
val record_stream : t -> conn_id:conn_id -> string -> unit

(** [process t ~conn_id tokens] inspects a batch and returns the new rule
    verdicts.  Raises [Invalid_argument] on blocked or unknown ids. *)
val process : t -> conn_id:conn_id -> Bbx_dpienc.Dpienc.enc_token list -> Engine.verdict list

(** [process_wire t ~conn_id wire] — same, straight off the wire encoding. *)
val process_wire : t -> conn_id:conn_id -> string -> Engine.verdict list

val is_blocked : t -> conn_id:conn_id -> bool

(** [unregister t ~conn_id] — connection teardown (idempotent). *)
val unregister : t -> conn_id:conn_id -> unit

(** [engine t ~conn_id] — direct access for probable-cause key recovery. *)
val engine : t -> conn_id:conn_id -> Engine.t

(** [reset_conn t ~conn_id ~salt0] forwards a sender salt reset to the
    connection's engine. *)
val reset_conn : t -> conn_id:conn_id -> salt0:int -> unit

(** [update_rules ?prefilter t ~conn_id ~remove_sids ~add ~rules
    ~enc_chunk] applies
    a rule update to one connection's engine: rules with a sid in
    [remove_sids] are retired ({!Engine.remove_rules} — the connection's
    reported-rule set is remapped across the index shift), [add] rules
    are appended ({!Engine.add_rules}, consulting [enc_chunk] for fresh
    chunks), and [rules] — the full post-update ruleset — becomes the
    shard's ruleset for future registrations.  [prefilter] — the shared
    prep for the post-update ruleset — replaces the engine-owned
    prefilter the update rebuilt ({!Engine.set_prefilter}).  Follow with
    {!reset_conn}, as after any rule update. *)
val update_rules :
  ?prefilter:Engine.prefilter_prep ->
  t ->
  conn_id:conn_id ->
  remove_sids:int list ->
  add:Bbx_rules.Rule.t list ->
  rules:Bbx_rules.Rule.t list ->
  enc_chunk:(string -> string) ->
  unit

val stats : t -> stats

(** [merge_stats a b] — field-wise sum, for aggregating shards. *)
val merge_stats : stats -> stats -> stats

val empty_stats : stats

val flow_stats : t -> conn_id:conn_id -> flow_stats

val fold_flows : t -> init:'a -> f:('a -> conn_id -> flow_stats -> 'a) -> 'a

(** {1 Connection export / import (migration)}

    A connection can be drained from one shard and resumed on another —
    same pool, another pool, or another daemon.  The blob wraps
    {!Engine.snapshot} plus the shard-level wrapper state (blocked flag,
    reported-rule bitset, flow counters).  Aggregate shard totals stay
    where they accrued: migration moves a connection's future, not its
    history, so stats summed across shards match an unmigrated run. *)

(** [export_conn t ~conn_id] serialises and {e removes} the connection
    (connection-gauge −1).  Raises [Invalid_argument] on unknown ids. *)
val export_conn : t -> conn_id:conn_id -> string

(** A parsed, fully validated export blob, ready to adopt. *)
type imported

(** [parse_export ?mode blob] validates and rebuilds the
    connection state.  Raises [Invalid_argument] on any malformed blob,
    or when [mode] is given and does not match the snapshot — call this
    on the front side so worker domains only ever see valid state. *)
val parse_export : ?mode:Bbx_dpienc.Dpienc.mode -> string -> imported

(** [adopt t ~conn_id c] installs a parsed connection (gauge +1).
    Infallible (replaces any existing [conn_id] — callers check for
    duplicates before parsing). *)
val adopt : t -> conn_id:conn_id -> imported -> unit

(** Currently registered connections on this shard. *)
val conn_count : t -> int

(** Approximate resident bytes of all per-connection state on this shard
    (the [bbx_conn_bytes] input; see {!Engine.footprint_bytes}). *)
val footprint_bytes : t -> int
