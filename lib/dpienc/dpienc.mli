(** The DPIEnc encryption scheme (paper §3.1) and the sender-side salt
    machinery of BlindBox Detect (§3.2).

    A token [t] encrypts to

    {v salt, AES_{AES_k(t)}(salt) mod RS v}

    with [RS = 2^40] (5-byte ciphertexts).  Salts are never transmitted:
    both ends derive them from a shared initial salt and per-token counters
    — the i-th occurrence of the same token value gets salt [salt0 + i]
    (stride 2 under probable-cause mode), so equal tokens never share a salt
    and the scheme stays semantically secure while the middlebox can still
    precompute one tree node per rule keyword.

    Protocol III ({!mode} [Probable]) additionally emits
    [c2 = AES_{AES_k(t)}(salt + 1) XOR k_ssl]: a keyword match lets the
    middlebox reconstruct the mask and recover the session key (§5). *)

(** Width of the ciphertext after reduction: 40 bits = 5 bytes. *)
val rs_bits : int

type key

(** [key_of_secret s] derives the DPIEnc key from the handshake secret [k]
    (any length). *)
val key_of_secret : string -> key

(** [raw_key_of_secret s] — the same derived key as raw bytes; obfuscated
    rule encryption hard-codes these 16 bytes into the garbled AES
    circuit. *)
val raw_key_of_secret : string -> string

(** Kept only for the [e2ebench/] harness, which passes
    [~kernel:Bitsliced] to {!sender_create}; the argument is ignored.  It
    goes in the next benchmark change. *)
type aes_kernel = Bbx_crypto.Aes.kernel = Bitsliced

(** [token_enc key t] is [AES_k(t)] for a [Tokenizer.token_len]-byte token —
    the "encrypted rule" the middlebox obtains through obfuscated rule
    encryption.  Raises [Invalid_argument] on wrong token length. *)
val token_enc : key -> string -> string

(** {2 Token keys on demand}

    A token key [AES_{AES_k(t)}] costs one AES key expansion.  The sender
    keeps one per distinct token of a salt period.  The middlebox keeps
    only [AES_k(t)] per rule chunk, as obfuscated rule encryption hands it
    over (never holding [k]), and encrypts under it whenever it needs that
    chunk's next cipher: at set-up, after a match and at a salt reset.
    Both calls below raise [Invalid_argument] unless [enc = AES_k(t)] is
    16 bytes. *)

(** [cipher enc ~salt] is [AES_{enc}(salt) mod RS] as a 40-bit int,
    computed in one pass with the key schedule inside the rounds
    ({!Bbx_crypto.Aes.encrypt_u64_once}); it allocates nothing. *)
val cipher : string -> salt:int -> int

(** [mask_xor enc ~salt x] is the unreduced block [AES_{enc}(salt)] XOR
    the 16-byte [x]: the probable-cause embed of [x = k_ssl] at salt
    [salt], and, applied to an embed, the recovered [k_ssl].  It expands
    [enc] into a fresh one-key arena. *)
val mask_xor : string -> salt:int -> string -> string

type mode = Exact | Probable

(** The mode's byte, [Exact] 0 and [Probable] 1: the mode field of
    [HELLO], [HELLO_OK] and a connection snapshot. *)
val mode_byte : mode -> int

(** [mode_of_byte b] — inverse of {!mode_byte} ([None] outside 0..1). *)
val mode_of_byte : int -> mode option

(** Sender-side encryptor with the counter table of §3.2. *)
type sender

(** [sender_create ?kernel mode key ~salt0] — [salt0] must be even in
    probable-cause mode (odd salts are reserved for the embedding
    ciphertext).  [kernel] is ignored (see {!aes_kernel}). *)
val sender_create : ?kernel:aes_kernel -> mode -> key -> salt0:int -> sender

(** [sender_reset sender] implements the periodic counter-table reset: the
    table is cleared and the new [salt0] (to announce to the middlebox) is
    returned. *)
val sender_reset : sender -> int

(** [salt_stride mode] is 1 for [Exact], 2 for [Probable] — exposed for the
    middlebox, which must walk its rule counters at the same stride. *)
val salt_stride : mode -> int

(** {2 The token path}

    The sender tokenizes, encrypts and serialises in one pass, with no
    per-token records or strings: the counter table is consulted with
    [(payload, off)] slices packed into two integer words, and wire bytes
    go straight into the caller's [Buffer].

    The wire format ([Wire.version] 3) is a sequence of runs.  A run is
    a layout byte (bit 0: records carry the 16-byte embed; bit 1: offsets
    are explicit; other bits 0), the record count (at least 1) and the
    base offset as LEB128 varints, then the records.  A record is the
    5-byte big-endian cipher, plus the embed in [Probable] mode.  Window
    tokens go in implicit-offset runs, where record [i] sits at
    [base + i]; delimiter tokens in explicit-offset runs, where each
    record starts with the zigzag varint delta from the previous offset
    (from the base for the first).  Offsets are mod 2^32, and every
    varint is at most 5 bytes and below 2^32.  Each
    {!sender_encrypt_into} call that emits a token writes one run, so a
    window token costs 5 bytes (21 with the embed) and a delimiter token
    one more per delta byte. *)

(** Which tokenizer drives {!sender_encrypt_into}. *)
type tokenization = Window | Delimiter of { short_units : bool }

(** [sender_encrypt_into sender ?k_ssl ?base ?tokenization payload buf]
    appends the wire encoding of [payload]'s encrypted token stream to
    [buf] and returns the number of tokens emitted, in the tokenizer
    folds' emission order.  [base] (default 0) is added to every token's
    stream offset.  [k_ssl] (16 bytes) is required in [Probable] mode and
    ignored in [Exact]. *)
val sender_encrypt_into :
  sender -> ?k_ssl:string -> ?base:int -> ?tokenization:tokenization ->
  string -> Buffer.t -> int

(** [decode_iter s ~f] walks the wire format: [f ~cipher ~offset
    ~embed_pos] once per record, where [embed_pos] is the position of the
    record's 16-byte embed inside [s], or [-1] when absent.  Raises
    [Invalid_argument] on malformed input: a truncated run, a bad layout
    byte, an empty run or a varint longer than 5 bytes or not below
    2^32. *)
val decode_iter :
  string -> f:(cipher:int -> offset:int -> embed_pos:int -> unit) -> unit

(** [wire_valid ~mode s] — {!decode_iter} accepts [s], and every run's
    embed bit is the one [mode] implies (clear in [Exact], set in
    [Probable]).  Never raises; an implicit-offset run is checked in
    O(1). *)
val wire_valid : mode:mode -> string -> bool

(** [wire_token_count s] — number of records in a wire encoding. *)
val wire_token_count : string -> int

(** [drop_records s n] — the wire [s] without its first [n] records: the
    run that keeps the first surviving record gets a new header, and the
    surviving records' bytes are unchanged, so they decode to the same
    offsets. *)
val drop_records : string -> int -> string

(** Wire record sizes without an offset delta (without / with embed): the
    bytes of a window token, exposed for sizing buffers and for the wire
    tests. *)
val exact_record_bytes : int
val probable_record_bytes : int

(** The longest run header: a call's wire is at most this plus its
    records. *)
val max_header_bytes : int

(** Keys per page of a sender's token-key arena: a sender holds one page
    per [page_keys] distinct tokens of its busiest salt period, none until
    its first token.  Exposed for the page-boundary tests. *)
val page_keys : int
