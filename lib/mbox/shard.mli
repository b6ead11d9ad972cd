(** The per-shard middlebox core: many monitored connections, one owner.

    This is the sequential heart of the middlebox tier: used directly, it
    is the single-domain middlebox; {!Shardpool} owns one shard per worker
    domain and feeds each through a mailbox.

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

(** [create config] — every engine this shard registers runs under
    [config].  A shard stores no ruleset: each connection brings the
    generation it runs on. *)
val create : Engine.config -> t

(** [register t ~conn_id ~salt0 ~direction keys] — a connection on
    [Engine.ruleset_of keys], borrowing the ruleset and key material
    (see {!Engine.make}).  Raises [Invalid_argument] on duplicate ids. *)
val register :
  t -> conn_id:conn_id -> salt0:int -> direction:string -> Engine.keys -> unit

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

(** [update_rules t ~conn_id next] moves one connection onto the next
    rule generation ({!Engine.update}); rules it retains keep their
    decisions, so none is reported twice.  Follow with {!reset_conn}, as
    after any rule update. *)
val update_rules : t -> conn_id:conn_id -> Engine.keys -> unit

val stats : t -> stats

(** [merge_stats a b] — field-wise sum, for aggregating shards. *)
val merge_stats : stats -> stats -> stats

val empty_stats : stats

val flow_stats : t -> conn_id:conn_id -> flow_stats

val fold_flows : t -> init:'a -> f:('a -> conn_id -> flow_stats -> 'a) -> 'a

(** {1 Connection export / import (migration)}

    A connection can be drained from one shard and resumed on another —
    same pool, another pool, or another daemon.  The blob (format v2)
    wraps {!Engine.snapshot} plus the shard-level wrapper state (blocked
    flag, flow counters); the snapshot's decided rules keep a migrated
    connection from re-reporting a verdict.  Aggregate shard totals stay
    where they accrued: migration moves a connection's future, not its
    history, so stats summed across shards match an unmigrated run. *)

(** [export_conn t ~conn_id] serialises and {e removes} the connection
    (connection-gauge −1).  Raises [Invalid_argument] on unknown ids. *)
val export_conn : t -> conn_id:conn_id -> string

(** A parsed, fully validated export blob, ready to adopt. *)
type imported

(** [parse_export ~mode blob] validates and rebuilds the connection
    state.  Raises [Invalid_argument] on any malformed blob, or when the
    snapshot's mode is not [mode] — call this on the front side so worker
    domains only ever see valid state. *)
val parse_export : mode:Bbx_dpienc.Dpienc.mode -> string -> imported

(** [adopt t ~conn_id c] installs a parsed connection (gauge +1).
    Infallible (replaces any existing [conn_id] — callers check for
    duplicates before parsing). *)
val adopt : t -> conn_id:conn_id -> imported -> unit

(** [import_conn t ~conn_id blob] — {!parse_export} under this shard's
    mode, then {!adopt}.  Raises [Invalid_argument] on a bad blob or a
    duplicate id. *)
val import_conn : t -> conn_id:conn_id -> string -> unit

(** Currently registered connections on this shard. *)
val conn_count : t -> int

(** Approximate resident bytes of all connection state on this shard
    (the [bbx_conn_bytes] input): every engine's own state, plus each
    distinct ruleset and key material its connections borrow, counted
    once (see {!Engine.footprint_bytes}). *)
val footprint_bytes : t -> int
