(** Aho–Corasick multi-pattern string matching.

    This is the engine of the plaintext-IDS baseline ("Snort" in the
    paper's §7.2.3 throughput comparison): all rule keywords are matched
    against cleartext in a single pass, independent of the number of
    patterns.  BlindBox's claim is that DPIEnc + BlindBox Detect achieve
    comparable per-byte cost on {e encrypted} traffic. *)

type t

(** [build patterns] compiles the automaton.  Empty patterns are rejected.
    Pattern indices in match results refer to positions in this array. *)
val build : string array -> t

(** [search t payload] returns [(pattern_index, end_offset)] for every
    occurrence (end offset = index one past the last byte), in stream
    order. *)
val search : t -> string -> (int * int) list

(** [count_matches t payload] — number of occurrences, without building the
    list (for the throughput bench). *)
val count_matches : t -> string -> int

(** Approximate resident bytes of the automaton (the dense transition
    tables dominate: ~2 KiB per node). *)
val footprint_bytes : t -> int
