(* Process-wide metric registry.  Slots are records the instrumented
   modules obtain once (at init or connection setup) and bump directly;
   the registry only exists for registration-by-name and for rendering.

   Counters, gauges and histogram cells are [Atomic.t] so that shard
   workers on different domains (lib/mbox/shardpool.ml) can bump the same
   slot without losing increments.  The hot path is still one flag load,
   one branch and one fetch-and-add — no locks, no allocation.  Spans
   keep plain mutable fields: they bracket setup-path work and are
   documented single-domain (see obs.mli). *)

let on =
  Atomic.make
    (match Sys.getenv_opt "BLINDBOX_OBS" with
     | Some ("0" | "false" | "off") -> false
     | _ -> true)

let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

type counter = { c_name : string; c_cell : int Atomic.t }

type gauge = { g_name : string; g_cell : int Atomic.t }

type histogram = {
  h_name : string;
  bounds : int array;          (* ascending upper bounds; +Inf implicit *)
  counts : int Atomic.t array; (* length = Array.length bounds + 1 *)
  h_sum : int Atomic.t;
  h_count : int Atomic.t;
}

type span = {
  s_name : string;
  mutable s_count : int;
  mutable s_seconds : float;
  mutable s_alloc : float;     (* GC-allocated bytes across all entries *)
  s_owner : int Atomic.t;      (* domain holding the span open; -1 = closed *)
  mutable open_at : float;
  mutable open_alloc : float;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Span of span

(* Registration and rendering are cold paths; a mutex makes them safe to
   call from any domain (worker domains never register, but nothing should
   break if one does). *)
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let register name mk unwrap =
  with_registry @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some m ->
    (match unwrap m with
     | Some slot -> slot
     | None -> invalid_arg (Printf.sprintf "Obs: %S registered with another type" name))
  | None ->
    let slot = mk () in
    slot

let counter name =
  register name
    (fun () ->
       let c = { c_name = name; c_cell = Atomic.make 0 } in
       Hashtbl.add registry name (Counter c);
       c)
    (function Counter c -> Some c | _ -> None)

let incr c = if Atomic.get on then Atomic.incr c.c_cell
let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c.c_cell n : int)
let counter_value c = Atomic.get c.c_cell

let gauge name =
  register name
    (fun () ->
       let g = { g_name = name; g_cell = Atomic.make 0 } in
       Hashtbl.add registry name (Gauge g);
       g)
    (function Gauge g -> Some g | _ -> None)

let set_gauge g v = if Atomic.get on then Atomic.set g.g_cell v
let add_gauge g n = if Atomic.get on then ignore (Atomic.fetch_and_add g.g_cell n : int)
let gauge_value g = Atomic.get g.g_cell

let histogram name ~buckets =
  register name
    (fun () ->
       let bounds = Array.copy buckets in
       Array.iteri
         (fun i b -> if i > 0 && b <= bounds.(i - 1) then
             invalid_arg "Obs.histogram: buckets must be strictly ascending")
         bounds;
       let h =
         { h_name = name; bounds;
           counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
           h_sum = Atomic.make 0; h_count = Atomic.make 0 }
       in
       Hashtbl.add registry name (Histogram h);
       h)
    (function Histogram h -> Some h | _ -> None)

let us_buckets =
  [| 1; 5; 10; 25; 50; 100; 250; 500; 1000; 2500; 5000; 10000; 25000;
     50000; 100000; 250000; 1000000 |]

let observe h v =
  if Atomic.get on then begin
    let n = Array.length h.bounds in
    let i = ref 0 in
    while !i < n && h.bounds.(!i) < v do Stdlib.incr i done;
    Atomic.incr h.counts.(!i);
    ignore (Atomic.fetch_and_add h.h_sum v : int);
    Atomic.incr h.h_count
  end

let histogram_count h = Atomic.get h.h_count
let histogram_sum h = Atomic.get h.h_sum

(* Upper-bound percentile estimate: the first bucket bound whose cumulative
   count reaches the quantile (the +Inf bucket reports the last finite
   bound — a floor, but the histogram holds no finer information). *)
let percentile_of_counts ~bounds ~counts q =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.0
  else begin
    let target = q *. float_of_int total in
    let cum = ref 0 and i = ref 0 and result = ref nan in
    while Float.is_nan !result && !i < Array.length counts do
      cum := !cum + counts.(!i);
      if float_of_int !cum >= target then
        result :=
          (if !i < Array.length bounds then float_of_int bounds.(!i)
           else if Array.length bounds = 0 then 0.0
           else float_of_int bounds.(Array.length bounds - 1));
      Stdlib.incr i
    done;
    if Float.is_nan !result then 0.0 else !result
  end

let span name =
  register name
    (fun () ->
       let s =
         { s_name = name; s_count = 0; s_seconds = 0.0; s_alloc = 0.0;
           s_owner = Atomic.make (-1); open_at = -1.0; open_alloc = 0.0 }
       in
       Hashtbl.add registry name (Span s);
       s)
    (function Span s -> Some s | _ -> None)

(* A concurrent [span_enter] from a second domain while the span is open
   must not corrupt the accumulators: the opening domain takes ownership
   with a CAS, a losing domain drops its entry and bumps this counter
   instead.  Plain mutable fields stay safe because only the owning
   domain ever touches them between the CAS and the releasing exit. *)
let span_conflicts = counter "bbx_obs_span_conflicts_total"

let span_enter s =
  if Atomic.get on then begin
    let me = (Domain.self () :> int) in
    let cur = Atomic.get s.s_owner in
    if cur = me || (cur = -1 && Atomic.compare_and_set s.s_owner (-1) me) then begin
      (* re-enter on the owning domain restarts the span *)
      s.open_alloc <- Gc.allocated_bytes ();
      s.open_at <- Unix.gettimeofday ()
    end
    else incr span_conflicts
  end

let span_exit s =
  if Atomic.get on && Atomic.get s.s_owner = (Domain.self () :> int) then begin
    s.s_seconds <- s.s_seconds +. (Unix.gettimeofday () -. s.open_at);
    s.s_alloc <- s.s_alloc +. (Gc.allocated_bytes () -. s.open_alloc);
    s.s_count <- s.s_count + 1;
    s.open_at <- -1.0;
    Atomic.set s.s_owner (-1)
  end

let time s f =
  span_enter s;
  match f () with
  | x -> span_exit s; x
  | exception e -> span_exit s; raise e

let span_count s = s.s_count
let span_seconds s = s.s_seconds
let span_alloc_bytes s = s.s_alloc

(* ---- exposition ---- *)

(* A name may carry baked-in labels ([base{k="v"}]); Prometheus suffixes
   and TYPE headers apply to the base. *)
let split_labels name =
  match String.index_opt name '{' with
  | None -> (name, "")
  | Some i -> (String.sub name 0 i, String.sub name i (String.length name - i))

let sorted_metrics () =
  with_registry (fun () -> Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let fmt_float f =
  (* shortest representation that round-trips enough precision for metrics *)
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

(* merge a label suffix with extra labels: base{a="1"} + [le="5"] *)
let with_label labels extra =
  if labels = "" then Printf.sprintf "{%s}" extra
  else Printf.sprintf "%s,%s}" (String.sub labels 0 (String.length labels - 1)) extra

let render_prometheus () =
  let buf = Buffer.create 4096 in
  let typed = Hashtbl.create 32 in
  let type_header base kind =
    if not (Hashtbl.mem typed (base, kind)) then begin
      Hashtbl.add typed (base, kind) ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" base kind)
    end
  in
  List.iter
    (fun (name, m) ->
       let base, labels = split_labels name in
       match m with
       | Counter c ->
         type_header base "counter";
         Buffer.add_string buf (Printf.sprintf "%s%s %d\n" base labels (Atomic.get c.c_cell))
       | Gauge g ->
         type_header base "gauge";
         Buffer.add_string buf (Printf.sprintf "%s%s %d\n" base labels (Atomic.get g.g_cell))
       | Histogram h ->
         type_header base "histogram";
         let cum = ref 0 in
         Array.iteri
           (fun i bound ->
              cum := !cum + Atomic.get h.counts.(i);
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" base
                   (with_label labels (Printf.sprintf "le=\"%d\"" bound)) !cum))
           h.bounds;
         cum := !cum + Atomic.get h.counts.(Array.length h.bounds);
         Buffer.add_string buf
           (Printf.sprintf "%s_bucket%s %d\n" base (with_label labels "le=\"+Inf\"") !cum);
         Buffer.add_string buf (Printf.sprintf "%s_sum%s %d\n" base labels (Atomic.get h.h_sum));
         Buffer.add_string buf (Printf.sprintf "%s_count%s %d\n" base labels (Atomic.get h.h_count))
       | Span s ->
         type_header (base ^ "_seconds_sum") "counter";
         Buffer.add_string buf
           (Printf.sprintf "%s_seconds_sum%s %s\n" base labels (fmt_float s.s_seconds));
         type_header (base ^ "_alloc_bytes_sum") "counter";
         Buffer.add_string buf
           (Printf.sprintf "%s_alloc_bytes_sum%s %s\n" base labels (fmt_float s.s_alloc));
         type_header (base ^ "_count") "counter";
         Buffer.add_string buf (Printf.sprintf "%s_count%s %d\n" base labels s.s_count))
    (sorted_metrics ());
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let dump_jsonl () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, m) ->
       let line =
         match m with
         | Counter c ->
           Printf.sprintf {|{"metric":"%s","type":"counter","value":%d}|}
             (json_escape name) (Atomic.get c.c_cell)
         | Gauge g ->
           Printf.sprintf {|{"metric":"%s","type":"gauge","value":%d}|}
             (json_escape name) (Atomic.get g.g_cell)
         | Histogram h ->
           let buckets =
             String.concat ","
               (List.init (Array.length h.bounds)
                  (fun i ->
                     Printf.sprintf {|{"le":%d,"count":%d}|} h.bounds.(i)
                       (Atomic.get h.counts.(i)))
                @ [ Printf.sprintf {|{"le":"+Inf","count":%d}|}
                      (Atomic.get h.counts.(Array.length h.bounds)) ])
           in
           Printf.sprintf
             {|{"metric":"%s","type":"histogram","sum":%d,"count":%d,"buckets":[%s]}|}
             (json_escape name) (Atomic.get h.h_sum) (Atomic.get h.h_count) buckets
         | Span s ->
           Printf.sprintf
             {|{"metric":"%s","type":"span","count":%d,"seconds":%s,"alloc_bytes":%s}|}
             (json_escape name) s.s_count (fmt_float s.s_seconds) (fmt_float s.s_alloc)
       in
       Buffer.add_string buf line;
       Buffer.add_char buf '\n')
    (sorted_metrics ());
  Buffer.contents buf

let save ~path =
  let is_json =
    Filename.check_suffix path ".json" || Filename.check_suffix path ".jsonl"
  in
  let oc = open_out path in
  output_string oc (if is_json then dump_jsonl () else render_prometheus ());
  close_out oc

let reset () =
  with_registry @@ fun () ->
  Hashtbl.iter
    (fun _ m ->
       match m with
       | Counter c -> Atomic.set c.c_cell 0
       | Gauge g -> Atomic.set g.g_cell 0
       | Histogram h ->
         Array.iter (fun cell -> Atomic.set cell 0) h.counts;
         Atomic.set h.h_sum 0;
         Atomic.set h.h_count 0
       | Span s ->
         s.s_count <- 0;
         s.s_seconds <- 0.0;
         s.s_alloc <- 0.0;
         s.open_at <- -1.0;
         Atomic.set s.s_owner (-1))
    registry
