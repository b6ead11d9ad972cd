(** Socket-robustness basics shared by the daemon, the load generator and
    the tests: SIGPIPE is turned off once per process, every blocking
    primitive retries [EINTR], and exact-length read/write loops handle
    partial I/O.

    These are the boring invariants a network daemon must hold: a peer
    closing mid-write must surface as [EPIPE] (an exception we can catch
    per-connection), not kill the process; a signal must never make a
    half-finished frame look like a short read. *)

(** [ignore_sigpipe ()] — idempotent; a write to a closed peer then
    raises [Unix.Unix_error (EPIPE, _, _)] instead of killing the
    process.  No-op on platforms without [SIGPIPE]. *)
val ignore_sigpipe : unit -> unit

(** [retry f] runs [f ()], retrying as long as it raises
    [Unix.Unix_error (EINTR, _, _)]. *)
val retry : (unit -> 'a) -> 'a

(** [read fd buf off len] — [Unix.read] with [EINTR] retry (returns 0 at
    EOF, like the primitive). *)
val read : Unix.file_descr -> Bytes.t -> int -> int -> int

(** [write fd buf off len] — [Unix.write] with [EINTR] retry. *)
val write : Unix.file_descr -> Bytes.t -> int -> int -> int

(** [really_write fd buf off len] writes exactly [len] bytes, looping
    over short writes. *)
val really_write : Unix.file_descr -> Bytes.t -> int -> int -> unit

(** [write_string fd s] — {!really_write} the whole string. *)
val write_string : Unix.file_descr -> string -> unit

(** [accept ?cloexec fd] — [Unix.accept] with [EINTR] retry. *)
val accept : ?cloexec:bool -> Unix.file_descr -> Unix.file_descr * Unix.sockaddr
