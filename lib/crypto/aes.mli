(** AES-128 block cipher (FIPS-197) and CTR mode.

    This is the workhorse of the whole system: DPIEnc keys AES with
    [AES_k(t)] and evaluates it on salts (§3.1 of the paper), the garbling
    scheme hashes with it, the DRBG expands seeds with it, and the TLS-like
    record layer encrypts with AES-CTR. *)

(** {2 Key arenas}

    A party holding many keys — the DPIEnc sender, one per distinct
    token — expands them into one flat [int array] it owns instead of one
    heap block per key; the middlebox expands none and encrypts under a
    rule chunk's key with {!encrypt_u64_once}.  Slot [i] of an arena is words
    [key_words * i] to [key_words * (i + 1) - 1]: the 44 round-key
    columns [w0..w43], each packed little-endian (row 0 in the low byte),
    then four round-1 constants for the small-salt blocks of
    {!encrypt_u64}. *)

type arena = int array

(** Words per expanded key: 48. *)
val key_words : int

(** [expand_into arena slot s] expands the 16-byte key [s] into [slot],
    allocating nothing.  Raises [Invalid_argument] on other key lengths
    or a slot outside [arena]. *)
val expand_into : arena -> int -> string -> unit

(** A boxed key: a one-slot arena, for callers where one key encrypts
    many blocks. *)
type key

(** [expand_key s] builds a key schedule from a 16-byte key string.
    Raises [Invalid_argument] on other lengths. *)
val expand_key : string -> key

(** [key_arena k] is [k]'s expanded words as a one-slot arena: slot 0
    encrypts under [k]. *)
val key_arena : key -> arena

(** [encrypt_block key src] encrypts one 16-byte block.  Raises
    [Invalid_argument] unless [String.length src = 16]. *)
val encrypt_block : key -> string -> string

(** [decrypt_block key src] inverts {!encrypt_block}. *)
val decrypt_block : key -> string -> string

(** [encrypt_block_reference] — the straightforward byte-wise
    implementation, kept as the differential-test oracle for the T-table
    fast path used by {!encrypt_block}. *)
val encrypt_block_reference : key -> string -> string

(** [encrypt_block_into arena slot ~src ~src_off ~dst ~dst_off] encrypts
    one block under the key at [slot], allocating nothing.  [src] and
    [dst] may not overlap.  Raises [Invalid_argument] on a slot or range
    out of bounds. *)
val encrypt_block_into :
  arena -> int -> src:Bytes.t -> src_off:int -> dst:Bytes.t -> dst_off:int -> unit

(** [ctr_transform key ~nonce data] encrypts or decrypts (the operation is
    its own inverse) with AES-CTR.  [nonce] is a 16-byte initial counter
    block; successive blocks increment its low 64 bits big-endian. *)
val ctr_transform : key -> nonce:string -> string -> string

(** [encrypt_u64 arena slot v] encrypts, under the key at [slot], the
    block holding big-endian [v] in its low 8 bytes (zero-padded) and
    returns the first 8 bytes of the result as an unsigned 62-bit integer
    (top 2 bits dropped).  This is the [AES_{k'}(salt)] operation of
    DPIEnc specialised to integer salts; it allocates nothing.  Raises
    [Invalid_argument] on a slot out of bounds. *)
val encrypt_u64 : arena -> int -> int -> int

(** [encrypt_u64_into arena slot v ~dst ~dst_off] encrypts the same block
    as {!encrypt_u64} but writes all 16 output bytes into [dst] at
    [dst_off], allocating nothing.  This is DPIEnc's Probable-mode embed
    mask [AES_tkey(salt+1)] produced straight into the sender's wire
    buffer.  Raises [Invalid_argument] if the slot or range is out of
    bounds. *)
val encrypt_u64_into : arena -> int -> int -> dst:Bytes.t -> dst_off:int -> unit

(** [encrypt_u64_once s v] is [encrypt_u64] under the 16-byte key [s]
    with the key schedule computed inside the rounds, round by round,
    instead of expanded into an arena first: the one-shot cipher for a
    key that encrypts one block at a time (the middlebox's rule-chunk
    keys).  It allocates nothing.  Raises [Invalid_argument] on other key
    lengths. *)
val encrypt_u64_once : string -> int -> int

(** The forward S-box, exposed for the AES boolean circuit tests. *)
val sbox : int array

(** Kept only for the [e2ebench/] harness, which passes
    [~kernel:Bitsliced] to [Dpienc.sender_create], [Record.create] and
    [Engine.create]; all three ignore it.  It goes in the next benchmark
    change. *)
type kernel = Bitsliced
