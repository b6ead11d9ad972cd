(** A complete BlindBox HTTPS connection (paper Fig. 1): sender S,
    receiver R and middlebox MB wired together in-process.

    [establish] runs the SSL handshake (key agreement + derivation of
    [k_ssl]/[k]/[k_rand]), then connection setup with the middlebox
    (obfuscated rule encryption over every distinct rule-keyword chunk).
    [send] then drives one message through the full pipeline:

    + S encrypts the payload into an SSL record, tokenizes it (window- or
      delimiter-based) and DPIEnc-encrypts the tokens;
    + MB runs BlindBox Detect over the encrypted tokens, records the SSL
      stream, and — under probable cause — recovers [k_ssl] on a keyword
      match and decrypts the stream for full-rule (pcre) evaluation;
    + R decrypts the record and {e validates} the token stream by
      re-tokenizing the plaintext and comparing (§3.4); a cheating sender
      raises {!Evasion_detected}. *)

type rule_prep_mode =
  | Garbled                       (** the real protocol: garbled circuits + OT *)
  | Direct
  (** trusted-simulation shortcut: MB is handed [AES_k(chunk)] directly.
      Identical detection behaviour; used by benches that isolate
      detection cost from setup cost. *)

type config = {
  inspect : Bbx_mbox.Engine.config;
  (** the middlebox engines' mode, tier and Protocol III budget (default
      {!Bbx_mbox.Engine.default_config}) *)
  tokenization : Bbx_dpienc.Dpienc.tokenization;
  (** default [Delimiter { short_units = false }] *)
  rule_prep : rule_prep_mode;
  salt0 : int;
  reset_period : int;  (** bytes between salt-counter resets; 0 = never *)
  setup_domains : int;
  (** worker domains for the parallel stages of obfuscated rule
      encryption ({!Ruleprep}); 1 = fully sequential.  Output is
      byte-identical at any count. *)
}

val default_config : config

type setup_stats = {
  chunk_count : int;
  rule_prep_stats : Ruleprep.stats option;  (** [None] in [Direct] mode *)
  setup_seconds : float;
}

type t

exception Evasion_detected of string

(** Raised by {!send} once a [drop]-action rule has fired: the middlebox
    blocks the connection (paper §6: "under Protocols I and II, the
    middlebox blocks the connection"). *)
exception Connection_blocked

(** [establish ?config ?seed ?rg ~rules ()] — [rg] (the rule generator's
    keypair) enables signature verification during rule preparation; when
    absent, [Garbled] prep runs unchecked. *)
val establish :
  ?config:config ->
  ?seed:string ->
  ?rg:Bbx_sig.Rsa.keypair ->
  rules:Bbx_rules.Rule.t list ->
  unit ->
  t * setup_stats

(** Session resumption (paper §7.2: "BlindBox is most fit for settings
    using long or persistent connections through SPDY-like protocols or
    tunneling").  A resumption ticket carries the session keys, the
    prepared encrypted rules and the connection's ruleset and key
    material, so a resumed connection skips the handshake, the expensive
    obfuscated rule encryption and the ruleset build.  Each
    resumption re-keys the record layer (fresh direction label), so no
    keystream is ever reused. *)
type ticket

(** [resumption_ticket t] — capture the state needed to resume. *)
val resumption_ticket : t -> ticket

(** [resume ?config ticket ~rules ()] — [rules] must be the ruleset the
    ticket was created with (raises [Invalid_argument] otherwise). *)
val resume : ?config:config -> ticket -> rules:Bbx_rules.Rule.t list -> unit -> t

(** [blocked t] — has the middlebox blocked this connection? *)
val blocked : t -> bool

(** [update_rules t ?remove_sids rules] ships a rule update onto the live
    connection without a re-handshake: rules whose sid appears in
    [remove_sids] are withdrawn from the middlebox, [rules] are added, and
    obfuscated rule encryption runs only for chunks not already prepared
    (under a fresh garbling generation — see {!Ruleprep.update}), and
    the middlebox moves onto the new ruleset ({!Bbx_mbox.Engine.update}).
    The update ends with a forced salt reset so both sides stay in
    lock-step.  Returns the number of fresh chunks (chunks the previous
    ruleset did not have) and the stats of the delta preparation ([None]
    in [Direct] mode). *)
val update_rules :
  t -> ?remove_sids:int list -> Bbx_rules.Rule.t list ->
  int * Ruleprep.stats option

(** [add_rules t rules] = [update_rules t rules] (pure addition). *)
val add_rules : t -> Bbx_rules.Rule.t list -> int * Ruleprep.stats option

type delivery = {
  plaintext : string;   (** payload as decrypted and validated by R *)
  verdicts : Bbx_mbox.Engine.verdict list;
  (** rules newly triggered by this send (each rule is reported once per
      connection; see {!mb_verdicts} for the cumulative view) *)
  record_bytes : int;   (** SSL record bytes on the wire *)
  token_bytes : int;    (** encrypted-token bytes on the wire *)
  token_count : int;
}

(** [send t payload] drives one sender->receiver message through MB. *)
val send : t -> string -> delivery

(** [send_binary t payload] ships a payload without tokenizing it — the
    paper's §3 optimisation for images/video, which an HTTP-only IDS does
    not analyse.  The receiver checks that no tokens were attached. *)
val send_binary : t -> string -> delivery

(** [send_evading t payload ~drop_tokens] simulates a malicious sender
    that omits its first [drop_tokens] tokens; the receiver's validation
    raises {!Evasion_detected}. *)
val send_evading : t -> string -> drop_tokens:int -> delivery

(** [mb_recovered_key t] — [Some k_ssl] once probable cause has fired. *)
val mb_recovered_key : t -> string option

(** [mb_decrypted_stream t] — the stream as decrypted by the middlebox's
    ssldump element, available only after probable cause. *)
val mb_decrypted_stream : t -> string option

(** Keyword-level matches observed by MB so far. *)
val mb_keyword_hits : t -> (string * int) list

(** All rule verdicts for the connection so far (cumulative). *)
val mb_verdicts : t -> Bbx_mbox.Engine.verdict list

(** Where the middlebox's escalation state machine sits for this
    connection (see {!Bbx_mbox.Engine.escalation}). *)
val mb_escalation : t -> [ `Idle | `Gated | `Unlocked | `Exhausted ]


(** Bidirectional connections: requests and responses are separate
    BlindBox streams through the same middlebox, sharing one handshake and
    one (expensive) rule preparation.  Rules carrying a [flow] direction
    ([from_server], [to_server], ...) are only evaluated on the matching
    direction, like the paper's example rule 2003296. *)
module Duplex : sig
  type duplex

  val establish :
    ?config:config ->
    ?seed:string ->
    ?rg:Bbx_sig.Rsa.keypair ->
    rules:Bbx_rules.Rule.t list ->
    unit ->
    duplex * setup_stats

  (** [client_send d payload] — request direction.  Raises
      {!Connection_blocked} if either direction was blocked. *)
  val client_send : duplex -> string -> delivery

  (** [server_send d payload] — response direction. *)
  val server_send : duplex -> string -> delivery

  val blocked : duplex -> bool
end


(** Many sender/middlebox connections multiplexed through one
    domain-sharded middlebox ({!Bbx_mbox.Shardpool}).

    A fleet is one {e tenant}: a single handshake agrees the tenant keys,
    and one rule preparation, one {!Bbx_mbox.Engine.ruleset} and one
    {!Bbx_mbox.Engine.keys} per rule generation are shared — read-only —
    by every connection, and each connection derives its own
    record-layer key ([KDF(k_ssl, "fleet-conn-<i>")]).  Setup is
    therefore O(ruleset) once plus O(1) per connection, and steady-state
    per-connection footprint is flat (no per-connection rule tables or
    expanded key schedules).  The trade-off, inherent to key sharing: a
    keyword produces correlatable token values across the {e same}
    tenant's flows within a salt window.  Each connection keeps its
    DPIEnc sender state on the submitting side; the middlebox half lives
    on whichever pool worker domain owns the connection.  {!Fleet.submit}
    encrypts a payload and enqueues the wire delivery without waiting;
    {!Fleet.drain} collects verdicts in submission order.

    Unlike {!send}, a fleet has no in-process receiver, so receiver-side
    token validation does not run.  In [Probable] mode at tier
    [Protocol_III] the sender does seal and ship the SSL record stream
    alongside the tokens ({!Bbx_mbox.Shardpool.record_stream}), so the
    middlebox runs full probable-cause escalation — regex confirmation
    over the recovered plaintext — exactly as in {!send}. *)
module Fleet : sig
  type fleet

  (** [establish ?config ?seed ?domains ~conns ~rules ()] — sets up
      [conns] connections (ids [0..conns-1]) over a pool of [domains]
      workers (default: {!Bbx_mbox.Shardpool.create}'s default).  Returns
      once every connection is registered on its shard. *)
  val establish :
    ?config:config ->
    ?seed:string ->
    ?domains:int ->
    conns:int ->
    rules:Bbx_rules.Rule.t list ->
    unit ->
    fleet

  (** [submit t ~conn payload] tokenizes + DPIEnc-encrypts [payload] on
      the calling domain and enqueues the wire delivery; returns its
      submission ticket.  Handles periodic salt resets exactly like
      {!send}.  Deliveries submitted after the connection blocks are
      dropped by the pool (no verdict callback). *)
  val submit : fleet -> conn:int -> string -> int

  (** [drain t ~f] — see {!Bbx_mbox.Shardpool.drain}. *)
  val drain :
    fleet -> f:(seq:int -> conn_id:int -> Bbx_mbox.Engine.verdict list -> unit) -> unit

  (** [update_rules t ?remove_sids rules] applies a rule update to every
      live connection in the fleet: the delta is prepared {e once} under
      the tenant keys (one incremental {!Ruleprep} run, regardless of
      connection count) and the next generation's ruleset and key
      material are built once; every connection moves onto them through
      its per-connection FIFO mailbox and finishes with a forced salt
      reset — no re-handshake, no reconnection, and the fleet's
      footprint stays flat. *)
  val update_rules : fleet -> ?remove_sids:int list -> Bbx_rules.Rule.t list -> unit

  (** [remove t ~conn] tears one connection down end to end — sender
      state and the shard-side engine both go (idempotent) before it
      returns.  The shared tenant preparation stays. *)
  val remove : fleet -> conn:int -> unit

  (** [migrate t ~conn ~shard] re-pins a live connection onto another
      pool shard (drain through the FIFO mailbox, serialise, resume) —
      see {!Bbx_mbox.Shardpool.migrate}.  Verdicts and stats are
      invariant under migration. *)
  val migrate : fleet -> conn:int -> shard:int -> unit

  (** The pool shard currently owning [conn]. *)
  val conn_shard : fleet -> conn:int -> int

  (** [rebalance t] — even out connections across shards; returns how
      many moved ({!Bbx_mbox.Shardpool.rebalance}). *)
  val rebalance : fleet -> int

  (** Approximate resident bytes of all shard-side per-connection state
      (refreshes the [bbx_conn_bytes] gauge). *)
  val conn_bytes : fleet -> int

  (** [blocked t ~conn] — quiesces the owning worker first. *)
  val blocked : fleet -> conn:int -> bool

  (** Aggregate middlebox statistics over all shards. *)
  val stats : fleet -> Bbx_mbox.Shard.stats

  val flow_stats : fleet -> conn:int -> Bbx_mbox.Shard.flow_stats

  (** Number of pool worker domains. *)
  val domains : fleet -> int

  (** Stop and join the pool's worker domains (idempotent). *)
  val shutdown : fleet -> unit

  (** [with_fleet ?config ?seed ?domains ~conns ~rules f] — {!establish},
      run [f], and {!shutdown} even when [f] raises, so worker domains
      never outlive an exception. *)
  val with_fleet :
    ?config:config ->
    ?seed:string ->
    ?domains:int ->
    conns:int ->
    rules:Bbx_rules.Rule.t list ->
    (fleet -> 'a) ->
    'a
end
