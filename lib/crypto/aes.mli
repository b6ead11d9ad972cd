(** AES-128 block cipher (FIPS-197) and CTR mode.

    This is the workhorse of the whole system: DPIEnc keys AES with
    [AES_k(t)] and evaluates it on salts (§3.1 of the paper), the garbling
    scheme hashes with it, the DRBG expands seeds with it, and the TLS-like
    record layer encrypts with AES-CTR. *)

type key

(** [expand_key s] builds a key schedule from a 16-byte key string.
    Raises [Invalid_argument] on other lengths. *)
val expand_key : string -> key

(** [encrypt_block key src] encrypts one 16-byte block.  Raises
    [Invalid_argument] unless [String.length src = 16]. *)
val encrypt_block : key -> string -> string

(** [decrypt_block key src] inverts {!encrypt_block}. *)
val decrypt_block : key -> string -> string

(** [encrypt_block_reference] — the straightforward byte-wise
    implementation, kept as the differential-test oracle for the T-table
    fast path used by {!encrypt_block}. *)
val encrypt_block_reference : key -> string -> string

(** [encrypt_block_into key ~src ~src_off ~dst ~dst_off] is the
    allocation-free variant used on hot paths.  [src] and [dst] may not
    overlap. *)
val encrypt_block_into :
  key -> src:Bytes.t -> src_off:int -> dst:Bytes.t -> dst_off:int -> unit

(** [ctr_transform key ~nonce data] encrypts or decrypts (the operation is
    its own inverse) with AES-CTR.  [nonce] is a 16-byte initial counter
    block; successive blocks increment its low 64 bits big-endian. *)
val ctr_transform : key -> nonce:string -> string -> string

(** [encrypt_u64 key v] encrypts the block holding big-endian [v] in its low
    8 bytes (zero-padded) and returns the first 8 bytes of the result as an
    unsigned 62-bit integer (top 2 bits dropped).  This is the
    [AES_{k'}(salt)] operation of DPIEnc specialised to integer salts; it
    performs no string allocation beyond one scratch block. *)
val encrypt_u64 : key -> int -> int

(** [encrypt_u64_into key v ~dst ~dst_off] encrypts the same block as
    {!encrypt_u64} but writes all 16 output bytes into [dst] at
    [dst_off], allocating nothing.  This is DPIEnc's Probable-mode embed
    mask [AES_tkey(salt+1)] produced straight into the sender's wire
    buffer.  Raises [Invalid_argument] if the range is out of bounds. *)
val encrypt_u64_into : key -> int -> dst:Bytes.t -> dst_off:int -> unit

(** The forward S-box, exposed for the AES boolean circuit tests. *)
val sbox : int array

(** Kept only for the [e2ebench/] harness, which passes
    [~kernel:Bitsliced] to [Dpienc.sender_create], [Record.create] and
    [Engine.create]; all three ignore it.  It goes in the next benchmark
    change. *)
type kernel = Bitsliced
