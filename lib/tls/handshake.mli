(** The SSL-like handshake (paper §2.3).

    Sender and receiver run a Diffie-Hellman exchange (over the same group
    the base OTs use) to agree on a master secret [k0], then derive three
    independent keys:

    - [k_ssl]: the record-layer key (ordinary SSL encryption);
    - [k]: the DPIEnc key;
    - [k_rand]: the shared randomness seed, so both endpoints garble
      identical circuits during obfuscated rule encryption.

    The middlebox sees the handshake messages but, holding no endpoint
    secret, learns none of the keys. *)

type keys = {
  k_ssl : string;   (** 16 bytes *)
  k : string;       (** 16 bytes *)
  k_rand : string;  (** 32 bytes *)
}

type state

(** [initiate drbg] produces the client's key share (first flight). *)
val initiate : Bbx_crypto.Drbg.t -> state * string

(** [respond drbg ~peer_share] produces the server's key share and its
    derived keys in one step. *)
val respond : Bbx_crypto.Drbg.t -> peer_share:string -> keys * string

(** [complete state ~peer_share] derives the client's keys. *)
val complete : state -> peer_share:string -> keys

(** [derive_keys k0] — key-schedule from a raw master secret; exposed for
    tests and for resuming sessions. *)
val derive_keys : string -> keys

(** [local seed] runs both endpoints' halves in one process, each drawing
    from a DRBG seeded with [seed], and returns the agreed keys: the
    handshake of in-process sessions and of synthetic daemon clients,
    where S and R live together and the middlebox sees no share at all. *)
val local : string -> keys
