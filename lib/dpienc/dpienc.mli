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

(** A token key is the expanded [AES_{AES_k(t)}] cipher; building one is the
    expensive step so both sides cache it per token value. *)
type token_key

val token_key : key -> string -> token_key

(** [token_key_of_enc e] builds a token key directly from [AES_k(t)] — this
    is what the middlebox does with encrypted rules, never holding [k]. *)
val token_key_of_enc : string -> token_key

(** [encrypt tk ~salt] is [AES_{AES_k(t)}(salt) mod RS] as a 40-bit int. *)
val encrypt : token_key -> salt:int -> int

(** [encrypt_full tk ~salt] is the unreduced 16-byte block, used as the
    probable-cause mask. *)
val encrypt_full : token_key -> salt:int -> string

(** [embed_into tk ~salt ~k_ssl ~dst ~dst_off] writes the probable-cause
    embedding [c2 = AES_tk(salt) XOR k_ssl] (16 bytes) into [dst] at
    [dst_off] without allocating — the mask never materialises as a
    string.  Raises [Invalid_argument] if [k_ssl] is not 16 bytes or the
    destination range is out of bounds. *)
val embed_into :
  token_key -> salt:int -> k_ssl:string -> dst:Bytes.t -> dst_off:int -> unit

type mode = Exact | Probable

(** An encrypted token on the wire. *)
type enc_token = {
  cipher : int;            (** 40-bit detection ciphertext [c1] *)
  embed : string option;   (** [c2] (16 bytes), present in [Probable] mode *)
  offset : int;            (** stream offset, used by Protocol II *)
}

(** Sender-side encryptor with the counter table of §3.2. *)
type sender

(** [sender_create ?kernel mode key ~salt0] — [salt0] must be even in
    probable-cause mode (odd salts are reserved for the embedding
    ciphertext).  [kernel] is ignored (see {!aes_kernel}). *)
val sender_create : ?kernel:aes_kernel -> mode -> key -> salt0:int -> sender

(** [sender_encrypt sender ?k_ssl tokens] encrypts a batch.  [k_ssl]
    (16 bytes) is required in [Probable] mode and ignored in [Exact]. *)
val sender_encrypt : sender -> ?k_ssl:string -> Bbx_tokenizer.Tokenizer.token list -> enc_token list

(** [sender_reset sender] implements the periodic counter-table reset: the
    table is cleared and the new [salt0] (to announce to the middlebox) is
    returned. *)
val sender_reset : sender -> int

val sender_salt0 : sender -> int

(** [salt_stride mode] is 1 for [Exact], 2 for [Probable] — exposed for the
    middlebox, which must walk its rule counters at the same stride. *)
val salt_stride : mode -> int

(** {2 Streaming pipeline}

    The streaming API tokenizes, encrypts and serialises in one pass, with
    no per-token records or strings: the counter table is consulted with
    [(payload, off)] slices packed into two integer words, and wire bytes
    go straight into the caller's [Buffer].  It shares the counter table with the legacy list
    API, so the two may be mixed on one [sender] and produce the identical
    byte stream for the identical payload sequence. *)

(** Which tokenizer drives {!sender_encrypt_into}. *)
type tokenization = Window | Delimiter of { short_units : bool }

(** [sender_encrypt_into sender ?k_ssl ?base ?tokenization payload buf]
    appends the wire encoding of [payload]'s encrypted token stream to
    [buf] and returns the number of tokens emitted.  [base] (default 0) is
    added to every token's stream offset.  Byte-identical to
    [encode_tokens (sender_encrypt sender (tokenize payload))]. *)
val sender_encrypt_into :
  sender -> ?k_ssl:string -> ?base:int -> ?tokenization:tokenization ->
  string -> Buffer.t -> int

(** Wire encoding of a batch of encrypted tokens: per token a flag byte,
    5-byte cipher and 4-byte offset, plus the 16-byte embed in [Probable]
    mode (10 or 26 bytes per record). *)
val encode_tokens : enc_token list -> string
val decode_tokens : string -> enc_token list

(** [decode_iter s ~f] walks the wire format without building a list:
    [f ~cipher ~offset ~embed_pos] once per record, where [embed_pos] is
    the position of the record's 16-byte embed inside [s], or [-1] when
    absent.  Raises the same [Invalid_argument] as {!decode_tokens} on
    truncated input. *)
val decode_iter :
  string -> f:(cipher:int -> offset:int -> embed_pos:int -> unit) -> unit

(** [wire_token_count s] — number of records in a wire encoding. *)
val wire_token_count : string -> int

(** Wire record sizes (without / with embed), exposed for sizing buffers
    and for the truncation tests. *)
val exact_record_bytes : int
val probable_record_bytes : int
