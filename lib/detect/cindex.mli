(** Flat open-addressing cipher index: the cache-resident fast path of
    BlindBox Detect.

    The paper's AVL search tree gives an O(log n) per-token bound, but
    every comparison is a pointer chase and every match-path re-key copies
    an O(log n) root path.  This index stores the same
    [cipher -> keyword_id] map in two preallocated [int] arrays (cipher
    key and keyword id, parallel slots) with linear probing, so a
    non-matching token costs one multiplicative hash plus a short scan
    over contiguous memory, and a match re-keys in place — delete the old
    cipher, insert the next-salt cipher — with zero allocation.

    Deletion is backward-shift (Knuth 6.4): entries after the hole slide
    back to their preferred position, so no tombstones accumulate and
    probe sequences stay short under Detect's constant delete/insert
    churn.

    Semantics match the AVL exactly where Detect cares: {!insert} on a
    present key replaces its binding (last writer wins — the
    duplicate-cipher behaviour {!Detect.create} documents), {!remove} of
    an absent key is a no-op, and lookups are exact [int] equality.
    Keyword ids must be [>= 0] ([-1] marks an empty slot).

    Not thread-safe; owned by one domain, like the {!Detect.t} holding
    it. *)

type t

(** [create ~capacity ()] — [capacity] is the expected number of live
    entries; the table preallocates at least twice that (next power of
    two, min 16) and grows itself if the load factor would exceed 1/2. *)
val create : ?capacity:int -> unit -> t

(** Number of live entries. *)
val size : t -> int

(** Current slot count (power of two, >= 2 * {!size}). *)
val capacity : t -> int

(** [find t key] is the id bound to [key], or [-1] — the allocation-free
    hot-path lookup. *)
val find : t -> int -> int

(** [find_probe t key ~steps] is {!find}, additionally adding the number
    of slots inspected (the probe length) to [steps].  The cell is
    caller-preallocated so the instrumented lookup allocates nothing. *)
val find_probe : t -> int -> steps:int ref -> int

val mem : t -> int -> bool

(** [insert t key id] binds [key] to [id], replacing any existing binding
    of [key].  Raises [Invalid_argument] if [id < 0]. *)
val insert : t -> int -> int -> unit

(** [remove t key] — backward-shift deletion; no-op if [key] is unbound. *)
val remove : t -> int -> unit

(** [clear t] empties the table, keeping its arrays. *)
val clear : t -> unit

(** [iter t ~f] calls [f ~key ~id] for every live entry, in slot order. *)
val iter : t -> f:(key:int -> id:int -> unit) -> unit

(** [check_invariants t] verifies that every live entry is reachable by
    probing from its home slot (no entry stranded behind an empty slot)
    and that the stored count matches; used by the property tests. *)
val check_invariants : t -> bool
