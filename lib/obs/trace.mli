(** [Obs.Trace]: a preallocated per-domain ring-buffer flight recorder.

    Where {!Obs} answers "how much, in aggregate", the flight recorder
    answers "what happened to {e this} frame, when": fixed-size event
    slots (phase, span id, connection id, start timestamp, duration — five
    OCaml ints) land in a ring buffer private to the recording domain, so
    the hot path is one flag load, one branch and five integer stores —
    no allocation, no locks, no cross-domain traffic.  With recording
    disabled (the default) every {!record} is a single load-and-branch.

    Each domain lazily acquires its own ring on first record (registered
    in a process-wide list for {!events}); when a ring is full the oldest
    events are overwritten, which is exactly the flight-recorder contract:
    dumping always shows the most recent 8 192 events per domain.

    {b Dumping} merges every domain's ring, sorts by start time and
    renders either Chrome-trace-event JSON ({!dump_chrome} — loadable by
    [chrome://tracing] and Perfetto, with the recording domain as the
    track/tid and span/conn ids in [args]) or one JSON object per line
    ({!dump_jsonl}).  Dumps are best-effort snapshots: a domain recording
    concurrently with a dump may tear the handful of slots it is writing;
    quiesce the recorders (e.g. drain the daemon) for an exact window.

    Timestamps are nanoseconds relative to a process-start epoch
    ({!now_ns}), so they keep microsecond precision in a 63-bit int and
    convert losslessly to the microsecond scale Chrome traces use. *)

(** {1 Master switch} *)

(** Recording defaults to {e off}; the environment variable
    [BLINDBOX_TRACE=1] turns it on at startup, [set_enabled] at any
    time. *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** {1 Phases} *)

(** A registered phase (pipeline-stage) name; registration is idempotent
    by name and costs a mutex — do it at module init, never per event. *)
type phase

val phase : string -> phase

val phase_name : phase -> string

(** {1 Recording} *)

(** Nanoseconds since the process-start epoch.  Monotone enough for span
    arithmetic (wall clock under the hood, like {!Obs} spans). *)
val now_ns : unit -> int

(** [record ph ~id ~conn ~start_ns ~dur_ns] appends one event to the
    calling domain's ring.  [id] is the caller's span id (e.g. a frame
    sequence number; [-1] when absent), [conn] the connection id ([-1]
    when absent).  No-op when disabled. *)
val record : phase -> id:int -> conn:int -> start_ns:int -> dur_ns:int -> unit

(** {1 Dumping} *)

type event = {
  e_phase : phase;
  e_id : int;
  e_conn : int;
  e_start_ns : int;
  e_dur_ns : int;
  e_dom : int;          (** recording domain's id *)
}

(** All buffered events across every domain's ring, oldest first. *)
val events : unit -> event list

(** Chrome trace-event JSON ([{"traceEvents":[...]}]) — complete ["X"]
    events, timestamps in microseconds, one track per recording domain. *)
val dump_chrome : unit -> string

(** One JSON object per line:
    [{"phase":...,"id":...,"conn":...,"dom":...,"start_ns":...,"dur_ns":...}]. *)
val dump_jsonl : unit -> string

(** [save ~path] writes {!dump_jsonl} when [path] ends in [.jsonl],
    {!dump_chrome} otherwise. *)
val save : path:string -> unit

(** [reset ()] empties every ring (registrations stay). *)
val reset : unit -> unit
