(** [bbx_obs]: low-overhead metrics for the streaming DPI path.

    A process-wide registry of named counters, gauges, fixed-bucket
    histograms and span timers.  The design rule is that the {e hot path}
    (one bump per token or per tree lookup) costs one flag load, one
    branch and one integer store — no closures, no allocation, no hashing.
    All hashing happens once, at registration time, which handlers do at
    module-initialisation or connection-setup time and cache in a slot.

    Metrics are cumulative since process start (or the last {!reset}).
    The whole registry renders to Prometheus text exposition
    ({!render_prometheus}) or JSONL ({!dump_jsonl}).

    {b Domain safety}: counters, gauges and histograms are [Atomic]-backed
    — concurrent bumps from any number of OCaml domains (e.g. the
    {!Bbx_mbox.Shardpool} workers) lose no increments, and registration
    plus exposition are mutex-protected.  Spans accumulate in plain
    mutable fields but are guarded by an atomic owner slot: {!span_enter}
    takes ownership with a compare-and-set, so a concurrent enter from a
    second domain while the span is open is {e dropped} (counted in
    [bbx_obs_span_conflicts_total]) instead of corrupting the
    accumulators, and only the owning domain's {!span_exit} accumulates.

    Naming scheme: [bbx_<subsystem>_<quantity>[_<unit>]], with Prometheus
    label syntax baked into the name string where a dimension is needed
    (e.g. [bbx_tokenizer_tokens_total{kind="window"}]).  Counters end in
    [_total], gauges are bare, histograms get [_bucket]/[_sum]/[_count]
    expansions, spans expand to [_seconds_sum], [_alloc_bytes_sum] and
    [_count]. *)

(** {1 Master switch} *)

(** [set_enabled b] flips instrumentation globally.  Defaults to [true];
    the environment variable [BLINDBOX_OBS=0] turns it off at startup.
    With instrumentation off every hot-path operation is a single
    load-and-branch. *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** {1 Counters} *)

type counter

(** [counter name] registers (or retrieves — registration is idempotent by
    name) a monotonic counter slot. *)
val counter : string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> int -> unit

(** [add_gauge g n] bumps the gauge by [n] (which may be negative).  The
    delta form is the domain-safe way to maintain an aggregate gauge from
    several shards — concurrent [set_gauge] calls would clobber each
    other. *)
val add_gauge : gauge -> int -> unit

val gauge_value : gauge -> int

(** {1 Histograms} *)

type histogram

(** [histogram name ~buckets] — [buckets] are ascending upper bounds; an
    implicit [+Inf] bucket is appended.  Re-registering an existing name
    returns the existing histogram (its buckets win). *)
val histogram : string -> buckets:int array -> histogram

(** The 17 bucket bounds every microsecond latency histogram uses, 1 us
    to 1 s. *)
val us_buckets : int array

(** [observe h v] bumps the first bucket with bound [>= v] ([+Inf] when
    none), plus the running sum and count. *)
val observe : histogram -> int -> unit

val histogram_count : histogram -> int
val histogram_sum : histogram -> int

(** [percentile_of_counts ~bounds ~counts q] estimates the [q]-quantile
    ([0 < q <= 1]) from a bucket snapshot: [bounds] the finite upper
    bounds, [counts] the per-bucket (non-cumulative) counts with the
    [+Inf] bucket last.  It returns the first
    bucket bound whose cumulative count reaches the quantile — an upper
    bound, except for mass in the [+Inf] bucket which reports the last
    finite bound (a floor; the histogram holds no finer information).
    [0.0] when the counts are all zero.  Taking snapshots as arrays lets
    callers diff two snapshots to get interval percentiles. *)
val percentile_of_counts : bounds:int array -> counts:int array -> float -> float

(** {1 Spans}

    A span accumulates wall-clock seconds, GC-allocated bytes and an entry
    count across [enter]/[exit] pairs.  Spans are not reentrant: the open
    timestamp lives in the span slot itself so that entering costs no
    allocation. *)

type span

val span : string -> span

(** [span_enter sp] records the open timestamp and GC mark and takes
    ownership of the span for the calling domain; a second [span_enter]
    from the {e same} domain before [span_exit] restarts the span, while
    one from another domain is dropped and counted in
    [bbx_obs_span_conflicts_total]. *)
val span_enter : span -> unit

(** [span_exit sp] accumulates elapsed seconds and allocated bytes since
    the matching {!span_enter} and releases ownership; a no-op if the
    span is not open or owned by another domain. *)
val span_exit : span -> unit

(** [time sp f] = [span_enter sp; f ()] with [span_exit] on both return
    and raise.  Allocates a closure — setup paths only, not per-token. *)
val time : span -> (unit -> 'a) -> 'a

val span_count : span -> int
val span_seconds : span -> float
val span_alloc_bytes : span -> float

(** {1 Exposition} *)

(** Prometheus text exposition (sorted by metric name, with [# TYPE]
    headers). *)
val render_prometheus : unit -> string

(** One JSON object per line: [{"metric":...,"type":...,"value":...}] for
    counters/gauges, richer objects for histograms and spans. *)
val dump_jsonl : unit -> string

(** [save ~path] writes {!dump_jsonl} when [path] ends in [.json]/[.jsonl],
    {!render_prometheus} otherwise. *)
val save : path:string -> unit

(** [reset ()] zeroes every registered metric (registrations, slots and
    cached handles stay valid). *)
val reset : unit -> unit
