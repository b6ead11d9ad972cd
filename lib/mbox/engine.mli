(** The middlebox detection engine (paper §6): one instance per connection.

    An engine borrows a shared {!ruleset} and the connection's {!keys}
    (the chunk encryptions [AES_k(chunk)] of that ruleset) and owns only
    per-connection state: salt counters, hit evidence, escalation state.

    Keyword-level matches come from {!Bbx_detect.Detect}; this module
    lifts them to rule-level verdicts through a tiered escalation state
    machine:

    - {b Protocol I}: a rule fires when its single keyword's chunks all
      match at consistent offsets;
    - {b Protocol II}: multiple keywords plus
      offset/depth/distance/within constraints, evaluated with the same
      backtracking semantics as the plaintext reference
      ({!Bbx_rules.Classify.matches_plaintext});
    - {b Protocol III}: when a suspicious keyword matches, the engine
      recovers [k_ssl] from the paired ciphertext (probable cause),
      decrypts the retained record stream ({!record_stream}) and runs an
      Aho-Corasick prefilter plus full-rule regex confirmation over the
      recovered plaintext, under a per-flow byte budget.  Budget
      exhaustion degrades to a [`Budget_exceeded] verdict ("flagged, not
      matched") for every rule whose encrypted-side keyword gate fired.

    The engine runs at the {!config}'s tier: rules requiring a higher
    protocol than the configured tier are ignored entirely. *)

(** How a verdict was reached — the wire-visible detail,
    {!Bbx_rules.Classify.detail}. *)
type detail = Bbx_rules.Classify.detail

(** {!Bbx_rules.Classify.detail_name}: ["exact-hit"], ["composite-match"],
    ["regex-match"], ["budget-exceeded"]. *)
val detail_name : detail -> string

type verdict = { rule_idx : int; rule : Bbx_rules.Rule.t; detail : detail }

(** The path a detail was reached on: Protocols I and II decide on exact
    matches ([`Exact_match]), Protocol III through probable cause
    ([`Probable_cause]), a budget-exceeded flag included. *)
val via : detail -> [ `Exact_match | `Probable_cause ]

(** [blocks fresh] — do these fresh verdicts block the connection?  A
    [drop] rule's verdict does, unless its detail is [`Budget_exceeded]:
    that is a flag, not a match. *)
val blocks : verdict list -> bool

(** What an engine inspects and how far it escalates: the DPIEnc [mode]
    of the stream, the highest protocol [tier] executed (rules needing a
    higher protocol are ignored) and the Protocol III budget.  Built
    once — by the CLI, {!Blindbox.Session.config} or the daemon config —
    and shared by every engine it configures.

    [max_plain_bytes] caps a flow's retained and decrypted stream bytes
    ([0] = unlimited).  Exceeding it is sticky (record-layer decryption
    is strictly in-order, so a dropped record makes the rest of the
    stream unrecoverable).  The cap also bounds every regex confirmation,
    which is linear in the stream. *)
type config = {
  mode : Bbx_dpienc.Dpienc.mode;
  tier : Bbx_rules.Classify.protocol_class;
  max_plain_bytes : int;
}

(** [Exact] mode, tier [Protocol_III], 4 MiB of plaintext. *)
val default_config : config

type t

(** [distinct_chunks rules] — every distinct token-sized keyword chunk the
    ruleset needs, in first-appearance order.  This is the exact set
    obfuscated rule encryption must cover. *)
val distinct_chunks : Bbx_rules.Rule.t list -> string array

(** {1 Rulesets and key material}

    One middlebox applies one ruleset to many connections; only the rule
    encryptions depend on a connection's key.  The state therefore comes
    in two immutable values, built once and borrowed by every engine:

    - a {!ruleset} holds everything derived from the rules alone — the
      rules, their distinct chunks and chunk index, per-rule protocol
      classes, each content's chunk ids and relative offsets, the
      chunk → rules posting lists {!verdicts} is driven by, and the
      Protocol III prefilter (an Aho-Corasick automaton over the
      decrypt-tier content patterns, whose dense transition tables are
      the largest rules-only structure);
    - {!keys} hold one key's chunk encryptions [AES_k(chunk)], 16 bytes
      per chunk, built against one ruleset.  No token key is kept: an
      engine's detector encrypts under a chunk's encryption directly
      ({!Bbx_dpienc.Dpienc.cipher}) each time it computes that chunk's
      next cipher.

    Nothing writes to either after construction, so engines on different
    domains may share them once published through a synchronised channel
    (the shard pool's mailboxes qualify). *)

(** One rule generation. *)
type ruleset

(** [ruleset rules] builds the generation: chunks, chunk index, classes,
    content plans, posting lists and prefilter automaton. *)
val ruleset : Bbx_rules.Rule.t list -> ruleset

val rules_of : ruleset -> Bbx_rules.Rule.t list

(** [next_rules rules ~remove_sids ~add] — the rules after an update:
    [rules] without those whose sid is in [remove_sids], in order, then
    [add].  {!update} carries per-rule state across exactly this
    shape. *)
val next_rules :
  Bbx_rules.Rule.t list -> remove_sids:int list -> add:Bbx_rules.Rule.t list ->
  Bbx_rules.Rule.t list

(** The ruleset's distinct chunks ({!distinct_chunks} order). *)
val chunks : ruleset -> string array

(** Approximate resident bytes of a ruleset (charged once to whoever
    holds it, see {!footprint_bytes}). *)
val ruleset_bytes : ruleset -> int

(** A connection's (or a fleet tenant's) key material over one ruleset. *)
type keys

(** [keys rs ~enc_chunk] asks [enc_chunk] for [AES_k(chunk)] once per
    chunk of [rs].  In production the oracle is obfuscated rule encryption
    (garbled circuits + OT, see {!Blindbox.Session}); tests may pass the
    direct encryption. *)
val keys : ruleset -> enc_chunk:(string -> string) -> keys

(** [keys_of_encs rs encs] — {!keys} from the encryptions themselves:
    [encs.(i)] is [AES_k(chunk)] for chunk [i] of [chunks rs], and the
    array is kept, not copied.  Raises [Invalid_argument] when [encs]
    and [chunks rs] differ in length or an entry is not 16 bytes.  The
    daemon builds a connection's keys this way from
    its RULE_SETUP table, after checking the table's chunk column
    against [chunks rs] position by position. *)
val keys_of_encs : ruleset -> string array -> keys

(** The ruleset [keys] were built against. *)
val ruleset_of : keys -> ruleset

(** Resident bytes of the key material, exactly: the encryptions, their
    array and the record. *)
val keys_bytes : keys -> int

(** Identities for charging a shared value once: distinct for every
    ruleset and key material ever built. *)
val ruleset_id : ruleset -> int

val keys_id : keys -> int

(** [make config keys ~direction ~salt0] — an engine for one connection
    on [ruleset_of keys], borrowing both values.  [direction] is the
    record-layer direction of the inspected stream, needed to decrypt
    records shipped via {!record_stream}. *)
val make : config -> keys -> direction:string -> salt0:int -> t

(** [create ~mode ~salt0 ~rules ~enc_chunk ()] — the one-connection
    shorthand: {!make} under [{ default_config with mode }] with a
    private [ruleset rules], private [keys ~enc_chunk] and direction
    ["client->server"]; [kernel] is ignored (see
    {!Bbx_crypto.Aes.kernel}).  Engines sharing a ruleset use {!make}. *)
val create :
  ?kernel:Bbx_dpienc.Dpienc.aes_kernel ->
  mode:Bbx_dpienc.Dpienc.mode ->
  salt0:int ->
  rules:Bbx_rules.Rule.t list ->
  enc_chunk:(string -> string) ->
  unit ->
  t

(** The configuration this engine runs under. *)
val config : t -> config

(** The key material (and through it the ruleset) the engine runs on. *)
val keys_of : t -> keys

(** [process_wire t wire] feeds a wire-encoded token stream (the output of
    {!Bbx_dpienc.Dpienc.sender_encrypt_into}) in stream order; returns the
    number of tokens processed. *)
val process_wire : t -> string -> int

(** [record_stream t record] retains one sealed SSL record of the
    inspected stream (in order, including its 1-byte frame tag inside)
    for probable-cause decryption.  A no-op unless the engine is in
    [Probable] mode at tier [Protocol_III].  Records beyond the byte
    budget are dropped (counted in [bbx_tier_records_dropped_total]) and
    the flow degrades to exhausted. *)
val record_stream : t -> string -> unit

(** [keyword_hits t] — keyword-level (chunk, stream offset) matches so far
    (the quantity behind the paper's 97.1% keyword-recall number). *)
val keyword_hits : t -> (string * int) list

(** [hit_count t] — monotonic count of keyword hits ever recorded on this
    engine, in O(1).  Unlike {!keyword_hits} it is {e not} cleared by
    {!reset}, so callers can account per-delivery deltas without folding
    the hit history. *)
val hit_count : t -> int

(** [recovered_key t] — [Some k_ssl] once any keyword of a Protocol III
    rule has matched in [Probable] mode. *)
val recovered_key : t -> string option

(** [decrypted_stream t] — the plaintext recovered so far from records
    shipped via {!record_stream} ([None] until {!recovered_key} is, or
    when the engine does not retain records). *)
val decrypted_stream : t -> string option

(** Where the flow sits in the escalation state machine: [`Idle] (no
    keyword evidence), [`Gated] (keyword hits but no key), [`Unlocked]
    ([k_ssl] recovered, stream decryptable), [`Exhausted] (budget blown or
    stream undecryptable — sticky). *)
val escalation : t -> [ `Idle | `Gated | `Unlocked | `Exhausted ]

(** [verdicts t] evaluates the rules whose evidence changed since the
    last call and returns the decisions this call made, in [rule_idx]
    order.  Protocol I/II rules are decided from the encrypted-side
    events alone; Protocol III rules are confirmed against the
    probable-cause-recovered stream.  Decisions are sticky: a rule is
    returned by exactly one call over the connection's lifetime (across
    salt resets, updates and snapshot/restore), so callers need no
    dedup of their own; {!decided} is the cumulative view.

    The cost is O(new evidence), not O(rules): a hit queues only the
    rules with a content on that chunk, and a change in the Protocol III
    state ([k_ssl] recovered, recovered plaintext grown, budget
    exhausted) only the in-tier Protocol III rules.  A delivery without
    hits evaluates nothing.  The queue is evaluated in one pass:
    evaluating a rule changes no rule's inputs, so the outcome is a
    function of the stream alone and equals a full scan of every
    undecided rule in rule order (the test suite's oracle). *)
val verdicts : t -> verdict list

(** [decided t] — every rule decided so far on this connection, in
    [rule_idx] order: the union of all {!verdicts} results, remapped
    across {!update}. *)
val decided : t -> verdict list

(** [update t next] moves the connection onto the next rule generation
    (the rule generator shipped an update): the engine borrows [next] and
    its ruleset from now on.  Every chunk the two generations share keeps
    its salt counter and hit evidence, so a keyword the sender emitted
    before the update still matches its next occurrence; new chunks start
    at counter zero under the current salt epoch.  Rules present in both
    generations (matched in order, the {!next_rules} shape) keep their
    escalation state, decisions included, so a retained rule is never
    reported twice.  Every undecided rule is re-evaluated on the next
    {!verdicts}, against the evidence carried over.  Prefilter evidence
    is re-derived from the retained stream on the next {!verdicts}.
    Callers follow an update with a sender-side salt reset, as Session,
    Fleet and the daemon clients do, so counters of keywords the sender
    emitted under an older ruleset are back in lock-step. *)
val update : t -> keys -> unit

(** [reset t ~salt0] forwards the sender's periodic salt reset.  Per-chunk
    hit evidence ({!keyword_hits}, and later {!verdicts} derived from it)
    is cleared; {!hit_count} (monotonic accounting), {!recovered_key}
    (probable cause is a connection-lifetime fact — a salt rotation does
    not un-recover [k_ssl]) and the whole escalation state downstream of
    it (sticky decisions, keyword gates, the retained/decrypted stream
    and its exhaustion) deliberately survive. *)
val reset : t -> salt0:int -> unit

(** Approximate resident bytes of this connection's own engine state
    (the [bbx_conn_bytes] accounting input): the detector, the
    per-rule and per-chunk tables, and the hit
    vector of each chunk that has hit (a chunk owns none before its
    first hit).  The borrowed ruleset and key material are not included:
    {!ruleset_bytes} and {!keys_bytes} charge them once to whoever holds
    them. *)
val footprint_bytes : t -> int

(** {1 Snapshot / restore (connection migration)}

    A snapshot is a self-contained binary image of one connection's
    inspection state: config, ruleset (as text), chunk encryptions, salt epoch
    and per-keyword counters, hit evidence, sticky decisions and keyword
    gates, recovered [k_ssl], sealed pending records, record-layer
    sequence, recovered plaintext, prefilter progress and exhaustion.
    [restore (snapshot t)] yields an engine observably
    identical to [t] — same future verdicts, stats and escalation
    behaviour (pinned by the migration differential tests).  The image
    is written and read by {!Bbx_codec.Codec}, the codec of the wire
    frames. *)

(** Serialise the complete per-connection state (format v3). *)
val snapshot : t -> string

(** Rebuild an engine from {!snapshot} output, on a private ruleset and
    key material.  Raises
    [Invalid_argument] on any malformed, truncated or inconsistent blob
    — callers must validate untrusted blobs on the front side (by calling
    this) before handing state to a worker domain. *)
val restore : string -> t
