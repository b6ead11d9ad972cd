(** The SSL record layer: AES-128-CTR with HMAC-SHA-256 in
    encrypt-then-MAC composition, with per-direction keys and sequence
    numbers (so records cannot be reordered, replayed or truncated
    silently).

    BlindBox forwards these records unmodified through the middlebox; only
    the parallel DPIEnc token stream is inspectable. *)

exception Auth_failure

type t

(** [create ?kernel ~key ~direction] builds one half-duplex session
    state.  Both ends must create matching states ("client->server" on the
    sender's writer and the receiver's reader, etc.).  [kernel] is ignored
    (see {!Bbx_crypto.Aes.kernel}). *)
val create :
  ?kernel:Bbx_crypto.Aes.kernel -> key:string -> direction:string ->
  unit -> t

(** [seal t plaintext] encrypts and authenticates the next record. *)
val seal : t -> string -> string

(** [open_ t record] verifies and decrypts the next record in order.
    Raises {!Auth_failure} on any tamper, replay or reorder. *)
val open_ : t -> string -> string

(** Bytes of framing + MAC overhead per record. *)
val overhead : int

(** The next sequence number this state will seal or accept. *)
val seq : t -> int

(** [set_seq t n] resumes a migrated half-duplex state at sequence [n]
    (snapshot/restore of record-layer continuity).  Raises
    [Invalid_argument] if [n] is negative. *)
val set_seq : t -> int -> unit
