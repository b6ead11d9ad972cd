(** Traffic tokenization (paper §3).

    The sender splits the plaintext byte stream into fixed-size tokens which
    are then encrypted under DPIEnc.  Two strategies are implemented:

    - {b window}: one token at every byte offset (the paper's sliding
      window).  Complete — detects keywords at any alignment — but emits one
      token per payload byte.
    - {b delimiter}: tokens only at offsets where a rule keyword could start
      or end, i.e. adjacent to punctuation/whitespace/special symbols.  Far
      fewer tokens; misses the rare keyword that starts mid-word (the paper
      measures 97.1% keyword recall on ICTF).

    Keywords longer than one token are split by {!keyword_chunks} exactly as
    the middlebox splits rule keywords: consecutive chunks plus an
    end-aligned tail (the paper's "maliciou"/"iciously" example).  Keywords
    shorter than one token are zero-padded; the delimiter tokenizer emits
    padded tokens for short delimiter-bounded units so they remain
    detectable. *)

(** Token length in bytes (8, as in the paper's implementation). *)
val token_len : int

(** [is_delimiter c] — punctuation, whitespace and special symbols. *)
val is_delimiter : char -> bool

(** {2 Streaming visitors}

    The folds are the primitive tokenizers: they visit [(off, len)] slices
    of the payload in emission order without allocating a string per token.
    [len = token_len] for ordinary tokens; [len < token_len] (delimiter
    tokenizer with [short_units] only) marks a short delimiter-bounded unit
    whose logical token is [s.[off..off+len-1]] zero-padded to
    {!token_len}.  The emission order is part of the wire contract: the
    receiver's validation re-tokenizes and compares bytes. *)

(** [fold_window s ~init ~f] folds [f] over every window offset. *)
val fold_window : string -> init:'a -> f:('a -> off:int -> len:int -> 'a) -> 'a

(** [note_window_scan s] records the observability counters that
    [fold_window s] would, for callers that scan the windows themselves
    (the packed DPIEnc sender rolls the window bytes instead of
    re-reading them). *)
val note_window_scan : string -> unit

(** [fold_delimiter ?short_units ?on_count s ~init ~f] folds [f] over the
    delimiter tokenizer's emission plan: full tokens in ascending offset
    order, then (with [short_units]) padded short units in ascending
    offset order.  [short_units] (default false — the paper detects
    keywords of 8+ bytes only) makes short keywords detectable at a
    bandwidth cost.  [on_count n], if given, is called once with the
    number of visits to come, before the first: the plan is built before
    any visit, so a length-prefixed encoder learns its count without a
    second pass. *)
val fold_delimiter :
  ?short_units:bool -> ?on_count:(int -> unit) -> string -> init:'a ->
  f:('a -> off:int -> len:int -> 'a) -> 'a

(** [keyword_chunks kw] splits a rule keyword into [(chunk, relative
    offset)] pairs: stride-[token_len] chunks plus an end-aligned tail.
    A short keyword yields a single zero-padded chunk at offset 0. *)
val keyword_chunks : string -> (string * int) list

(** [pad_short s] zero-pads [s] to [token_len].  Raises [Invalid_argument]
    if [s] is longer than a token or empty. *)
val pad_short : string -> string

(** [window_count s] / [delimiter_count s]: number of tokens the respective
    tokenizer would emit, without materialising them — the bandwidth
    experiments (Figs. 5-6) sweep megabytes of page text. *)
val window_count : string -> int
val delimiter_count : ?short_units:bool -> string -> int
