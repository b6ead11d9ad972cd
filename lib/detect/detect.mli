(** The BlindBox Detect engine (paper §3.2, extended for Protocols II/III).

    The middlebox holds, for each distinct rule-keyword token, the value
    [AES_k(token)] obtained through obfuscated rule encryption (never the
    key [k] itself).  It keeps a per-keyword occurrence counter and an
    index mapping each keyword's {e current} ciphertext
    [Enc_k(salt0 + stride * ct, token)] to the keyword.  Processing a
    traffic token is one index lookup; on a match the keyword is
    re-encrypted under the next salt and re-keyed in the index, keeping
    sender and middlebox counters in lock-step.

    The index is a flat open-addressing table over the 40-bit ciphertexts
    ({!Cindex}): one multiplicative hash per token, a filter byte that
    answers most misses and a short contiguous scan for the rest,
    in-place re-keying with zero allocation.  The paper's AVL tree
    survives as a test and bench reference; [test_detect_index] checks
    the two event for event. *)

type keyword_id = int

(** A keyword match observed in the encrypted stream. *)
type event = {
  kw_id : keyword_id;
  offset : int;   (** stream offset of the matching token *)
  salt : int;     (** salt the match was encrypted under *)
}

type t

(** [create ?counts ~mode ~salt0 keywords] — [keywords] are the
    encrypted rule tokens [AES_k(token)] (16 bytes each); keyword ids are
    their indices.  Duplicate encrypted values are allowed but only the
    last one's id is reported (callers dedup by token value).  The array
    is kept, not copied, and never written, so detectors on different
    domains may borrow one.  [counts] (copied; default all zero) is the
    salt-counter table the detector starts from, one entry per keyword,
    as {!salt_counts} returned it: connection migration and rule updates
    build the detector at the carried counters in one pass.  Every
    keyword's current cipher is computed from its [AES_k(token)] once
    here, and again only at {!reset} and after a match of that keyword;
    the detector holds no expanded key ({!recover_key} expands one into
    a fresh arena).  Raises [Invalid_argument] on a keyword
    that is not 16 bytes, an odd [salt0] in probable mode, a [counts]
    table of the wrong size or a negative count. *)
val create : ?counts:int array -> mode:Bbx_dpienc.Dpienc.mode -> salt0:int -> string array -> t

(** [process_stream t wire ~f] decodes a wire-encoded token stream
    ({!Bbx_dpienc.Dpienc.decode_iter}) and processes each record in
    order, calling [f event ~embed_pos] on every match, where [embed_pos]
    locates the matching record's 16-byte embed inside [wire] ([-1] when
    the record has none).  Matching updates the keyword's counter and
    index entry.  Returns the number of tokens processed. *)
val process_stream :
  t -> string -> f:(event -> embed_pos:int -> unit) -> int

(** [recover_key t ~event ~embed] implements probable-cause decryption
    (§5): given the matching event and the paired ciphertext [c2], returns
    the 16-byte [k_ssl].  Raises [Invalid_argument] outside [Probable]
    mode. *)
val recover_key : t -> event:event -> embed:string -> string

(** [reset t ~salt0] handles the sender's periodic counter reset: clears
    all counters and rebuilds the index under the new initial salt. *)
val reset : t -> salt0:int -> unit

(** {1 Snapshot / restore}

    The per-connection half of a detector is exactly (salt0, one int per
    keyword): current ciphertexts and the index are derivable from it
    plus the encrypted rule tokens.  Connection migration serialises
    {!salt_counts} and rebuilds with [create ~counts]. *)

(** The live salt-counter table, one entry per keyword id (a copy). *)
val salt_counts : t -> int array

(** Resident bytes of this detector's per-connection state: the counter
    array and the index (its two slot arrays and its filter of one byte
    per slot), exactly; the detector's fixed-size records are not
    charged.  The borrowed keyword array is charged to its owner. *)
val footprint_bytes : t -> int

(** Number of distinct index entries (= number of keywords, minus any
    duplicate-cipher collisions). *)
val size : t -> int
