(** The one big-endian binary codec: the daemon's wire frames
    ({!Bbx_wire.Wire}) and the middlebox's connection snapshots
    ({!Bbx_mbox.Engine.snapshot}, {!Bbx_mbox.Shard.export_conn}) are both
    written and read here, so the two cannot disagree on a value.

    Integers are big-endian; [u8]/[u16]/[u32] are unsigned, [i64] is a
    two's-complement OCaml [int].  Strings carry a [u16] or [u32] length
    prefix, or run to the end of the readable range ([get_rest]).  There
    is no framing: the enclosing transport frames. *)

(** Raised on any input the reader rejects: a read past the end of the
    range, trailing bytes at {!finish}, or an [i64] outside OCaml's [int]
    range. *)
exception Malformed of string

(** [malformed fmt ...] raises {!Malformed} with the formatted message. *)
val malformed : ('a, unit, string, 'b) format4 -> 'a

(** {1 Writing}

    Each [put_*] appends to the buffer.  [put_u16]/[put_u32] raise
    [Invalid_argument] on a value outside their range; [put_u8] keeps the
    value's low 8 bits. *)

val put_u8 : Buffer.t -> int -> unit
val put_u16 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit
val put_i64 : Buffer.t -> int -> unit
val put_bool : Buffer.t -> bool -> unit

(** Length-prefixed strings: a [u16] or [u32] length, then the bytes. *)

val put_str16 : Buffer.t -> string -> unit
val put_str32 : Buffer.t -> string -> unit

(** {1 Reading} *)

(** A read position inside [len] bytes of a string from [off]. *)
type cursor

(** [cursor ?off ?len s] reads [s] from [off] (default 0) for [len]
    bytes (default: to the end).  The bytes are read where they lie, so
    a caller may hand in a buffer it owns (as
    [Bytes.unsafe_to_string]) provided it does not write the range
    before the reads are done; every string a [get_*] returns is a fresh
    copy.  Raises [Invalid_argument] when the range is not inside [s]. *)
val cursor : ?off:int -> ?len:int -> string -> cursor

(** Bytes left between the position and the end of the range. *)
val remaining : cursor -> int

val get_u8 : cursor -> int
val get_u16 : cursor -> int
val get_u32 : cursor -> int

(** Refuses eight bytes whose value lies outside [min_int .. max_int]. *)
val get_i64 : cursor -> int

(** Any non-zero byte reads as [true]. *)
val get_bool : cursor -> bool

(** [get_bytes c n] — the next [n] bytes. *)
val get_bytes : cursor -> int -> string

val get_str16 : cursor -> string
val get_str32 : cursor -> string

(** Everything left in the range. *)
val get_rest : cursor -> string

(** Raises {!Malformed} unless the whole range was read. *)
val finish : cursor -> unit
