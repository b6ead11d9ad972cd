(** Rule classification into BlindBox protocols (paper §2.4 / Table 1) and a
    reference plaintext evaluator (the "Snort" semantics BlindBox is compared
    against). *)

type protocol_class =
  | Protocol_I    (** one exact-match keyword, no position constraints *)
  | Protocol_II   (** multiple keywords and/or offset information *)
  | Protocol_III  (** needs regular expressions (probable cause) *)

val classify : Rule.t -> protocol_class

(** [rank cls] — 1/2/3; the tier order ([Protocol_I] weakest). *)
val rank : protocol_class -> int

(** [of_rank n] — inverse of {!rank} ([None] outside 1..3). *)
val of_rank : int -> protocol_class option

(** How a rule-level verdict was reached: a Protocol I exact hit, a
    Protocol II composite match, Protocol III regex confirmation over the
    recovered stream, or escalation-budget exhaustion ("flagged, not
    matched").  The middlebox engine decides it and the wire carries it. *)
type detail = [ `Exact_hit | `Composite_match | `Regex_match | `Budget_exceeded ]

(** Stable short name per detail: ["exact-hit"], ["composite-match"],
    ["regex-match"], ["budget-exceeded"]. *)
val detail_name : detail -> string

(** The detail's byte, 0 to 3 in the order of {!detail}: a [VERDICT]
    entry's detail byte and the engine's per-rule decision table both
    use it. *)
val detail_byte : detail -> int

(** [detail_of_byte b] — inverse of {!detail_byte} ([None] outside
    0..3). *)
val detail_of_byte : int -> detail option

(** [supported_by cls rule]: can a middlebox running protocol [cls]
    implement [rule]?  (III supports everything, II supports I and II...) *)
val supported_by : protocol_class -> Rule.t -> bool

(** A ruleset routed into its three executable tiers, each rule tagged
    with its original list index (the engine's verdict [rule_idx]
    space): exact-match-only (Protocol I, stays on the encrypted token
    path), keyword-gated composite (Protocol II, the
    {!contents_satisfiable} solver over encrypted keyword events) and
    decrypt-required (Protocol III, regex over the probable-cause
    recovered stream). *)
type tiers = {
  exact : (int * Rule.t) list;
  composite : (int * Rule.t) list;
  decrypt : (int * Rule.t) list;
}

val partition : Rule.t list -> tiers

(** [fractions rules] is the Table 1 row for a ruleset: fraction of rules
    supported by Protocols I, II and III. *)
val fractions : Rule.t list -> float * float * float

(** [matches_plaintext rule payload] — reference evaluation on cleartext:
    contents in order with Snort-style [offset]/[depth] (absolute) and
    [distance]/[within] (relative to the previous match, with backtracking
    over candidate positions), then the [pcre] if present. *)
val matches_plaintext : Rule.t -> string -> bool

(** [keyword_match_positions ~nocase pattern payload] — all match start
    offsets, exposed for the accuracy experiments. *)
val keyword_match_positions : nocase:bool -> string -> string -> int list

(** [contents_satisfiable ~candidates contents] — the constraint engine
    behind {!matches_plaintext} with caller-supplied candidate match
    positions per content, so the middlebox can run identical semantics on
    encrypted-side keyword events. *)
val contents_satisfiable :
  candidates:(Rule.content -> int list) -> Rule.content list -> bool
