(** The middlebox detection engine (paper §6): one instance per connection.

    The engine is built from the ruleset and an [enc_chunk] oracle giving
    [AES_k(chunk)] for each distinct rule-keyword chunk — in production
    that oracle is obfuscated rule encryption (garbled circuits + OT, see
    {!Blindbox.Session}); tests may pass the direct encryption.

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
      recovered plaintext, under per-flow byte/time budgets.  Budget
      exhaustion degrades to a [`Budget_exceeded] verdict ("flagged, not
      matched") for every rule whose encrypted-side keyword gate fired.

    The engine runs at a configurable {!tier}: rules requiring a higher
    protocol than the configured tier are ignored entirely. *)

(** How a verdict was reached — the wire-visible detail. *)
type detail = [ `Exact_hit | `Composite_match | `Regex_match | `Budget_exceeded ]

(** Stable short name per detail: ["exact-hit"], ["composite-match"],
    ["regex-match"], ["budget-exceeded"]. *)
val detail_name : detail -> string

type verdict = {
  rule_idx : int;
  rule : Bbx_rules.Rule.t;
  via : [ `Exact_match | `Probable_cause ];
  detail : detail;
}

(** Per-flow escalation budgets.  [max_plain_bytes] caps retained +
    decrypted stream bytes, [max_scan_ms] caps cumulative regex-confirm
    time; [0] means unlimited for either.  Exceeding a budget is sticky
    (record-layer decryption is strictly in-order, so a dropped record
    makes the rest of the stream unrecoverable). *)
type budget = { max_plain_bytes : int; max_scan_ms : int }

(** 4 MiB of plaintext, no time cap. *)
val default_budget : budget

type t

(** [distinct_chunks rules] — every distinct token-sized keyword chunk the
    ruleset needs, in first-appearance order.  This is the exact set
    obfuscated rule encryption must cover. *)
val distinct_chunks : Bbx_rules.Rule.t list -> string array

(** A shared Protocol III prefilter preparation: the rule protocol
    classes, the Aho-Corasick automaton over the decrypt-tier content
    patterns, and the per-rule pattern-needs map — everything the
    prefilter derives from the ruleset alone.  Immutable after
    construction, so one prep serves every engine running the same
    (tenant, generation) ruleset; without sharing, the automaton's dense
    transition tables (~2 KiB per trie node) dominate per-connection
    footprint. *)
type prefilter_prep

(** [prepare_prefilter rules] — compute once per (tenant, generation),
    pass to every {!create}. *)
val prepare_prefilter : Bbx_rules.Rule.t list -> prefilter_prep

(** [create ?index ?tier ?budget ?direction ?prepared ?keys ~mode ~salt0
    ~rules ~enc_chunk] — [enc_chunk] is consulted once per distinct chunk
    at construction time.  [index] (default {!Bbx_detect.Detect.Hash})
    selects the cipher-index backend and is remembered for
    detection-state rebuilds ({!remove_rules}).  [tier] (default
    [Protocol_III]) is the highest protocol this engine executes;
    [budget] bounds Protocol III work; [direction] (default
    ["client->server"]) is the record-layer direction of the inspected
    stream, needed to decrypt records shipped via {!record_stream};
    [kernel] is ignored (see {!Bbx_crypto.Aes.kernel}).

    At fleet scale the per-connection setup cost is chunk recomputation,
    the [enc_chunk] calls, AES key expansion and the prefilter automaton
    build: [prepared] (must equal
    [(distinct_chunks rules, Array.map enc_chunk ...)] — borrowed
    read-only, never mutated) skips the first two, [keys] (a shared
    {!Bbx_detect.Detect.keyset} over the same encs) skips the third, and
    [prefilter] (a shared {!prepare_prefilter} over the same rules —
    raises [Invalid_argument] on a rule-count mismatch) skips the fourth.
    With [prepared] and [keys], [enc_chunk] is not called at construction
    (it is still used by later {!add_rules}).  Rule updates
    ({!add_rules}/{!remove_rules}) rebuild an engine-owned prefilter —
    pass the next generation's shared prep through the update path to
    keep it shared. *)
val create :
  ?index:Bbx_detect.Detect.index_backend ->
  ?tier:Bbx_rules.Classify.protocol_class ->
  ?budget:budget ->
  ?direction:string ->
  ?kernel:Bbx_dpienc.Dpienc.aes_kernel ->
  ?prepared:string array * string array ->
  ?keys:Bbx_detect.Detect.keyset ->
  ?prefilter:prefilter_prep ->
  mode:Bbx_dpienc.Dpienc.mode ->
  salt0:int ->
  rules:Bbx_rules.Rule.t list ->
  enc_chunk:(string -> string) ->
  unit ->
  t

(** The tier this engine was configured with. *)
val tier : t -> Bbx_rules.Classify.protocol_class

(** The DPIEnc mode this engine inspects. *)
val mode : t -> Bbx_dpienc.Dpienc.mode

(** [process t tokens] feeds encrypted tokens in stream order. *)
val process : t -> Bbx_dpienc.Dpienc.enc_token list -> unit

(** [process_wire t wire] feeds a wire-encoded token stream (the output of
    {!Bbx_dpienc.Dpienc.sender_encrypt_into}/[encode_tokens]) without
    materialising a token list; returns the number of tokens processed. *)
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

(** [verdicts ?plaintext t] evaluates rules at the configured tier.
    Protocol I/II rules are decided from the encrypted-side events alone;
    Protocol III rules are confirmed against the probable-cause-recovered
    stream (or against [plaintext] when the caller passes it, taking
    precedence).  Decisions are sticky: once a rule has fired (or been
    budget-flagged) it is re-emitted by every later call, across salt
    resets — callers dedup by [rule_idx], which Shard/Session already
    do. *)
val verdicts : ?plaintext:string -> t -> verdict list

(** [add_rules t ~rules ~enc_chunk] extends a live connection with new
    rules (the rule generator shipped an update).  Only chunks not already
    prepared consult [enc_chunk]; returns how many fresh chunks were
    added. *)
val add_rules : t -> rules:Bbx_rules.Rule.t list -> enc_chunk:(string -> string) -> int

(** [remove_rules t ~sids] drops every rule whose [sid] is in [sids] (an
    RG update retired them).  Returns [(orphans, remap)]: [orphans] are
    the chunks no retained rule needs (gone from the detection tree — a
    payload carrying only removed keywords no longer registers hits), and
    [remap] maps each old [verdict.rule_idx] to its new index, or [-1]
    for removed rules, so callers can rewrite per-rule-index state.
    The engine's own per-rule escalation state (sticky decisions, keyword
    gates) is remapped internally.
    The detection tree is rebuilt from the retained chunks' cached
    encryptions under the current salt epoch, restarting their salt
    counters and clearing hit evidence — follow with a sender-side salt
    reset, exactly as after {!add_rules} (Session/Fleet force one).
    [~sids:[]] is a no-op returning [([], [||])]. *)
val remove_rules : t -> sids:int list -> string list * int array

(** [set_prefilter t pp] swaps in a shared prefilter prep for the
    engine-owned one a rule update rebuilt ([pp] must cover the engine's
    current post-update ruleset; raises [Invalid_argument] on a
    rule-count mismatch).  Prefilter evidence is re-derived from the
    retained stream on the next delivery, exactly as after the update
    itself. *)
val set_prefilter : t -> prefilter_prep -> unit

(** [reset t ~salt0] forwards the sender's periodic salt reset.  Per-chunk
    hit evidence ({!keyword_hits}, and fresh {!verdicts} derived from it)
    is cleared; {!hit_count} (monotonic accounting), {!recovered_key}
    (probable cause is a connection-lifetime fact — a salt rotation does
    not un-recover [k_ssl]) and the whole escalation state downstream of
    it (sticky decisions, keyword gates, the retained/decrypted stream,
    budget accounting) deliberately survive. *)
val reset : t -> salt0:int -> unit

(** Distinct chunk count (tree size). *)
val chunk_count : t -> int

(** Approximate resident bytes of this connection's engine state (the
    [bbx_conn_bytes] accounting input).  Structures shared across a
    fleet — borrowed [?prepared] arrays, shared keysets — are charged to
    their owner, not here. *)
val footprint_bytes : t -> int

(** {1 Snapshot / restore (connection migration)}

    A snapshot is a self-contained binary image of one connection's
    inspection state: ruleset (as text), chunk encryptions, salt epoch
    and per-keyword counters, hit evidence, sticky decisions and keyword
    gates, recovered [k_ssl], sealed pending records, record-layer
    sequence, recovered plaintext, prefilter progress and budget
    accounting.  [restore (snapshot t)] yields an engine observably
    identical to [t] — same future verdicts, stats and escalation
    behaviour (pinned by the migration differential tests). *)

(** Serialise the complete per-connection state (format v1). *)
val snapshot : t -> string

(** Rebuild an engine from {!snapshot} output.  Raises
    [Invalid_argument] on any malformed, truncated or inconsistent blob
    — callers must validate untrusted blobs on the front side (by calling
    this) before handing state to a worker domain. *)
val restore : string -> t
