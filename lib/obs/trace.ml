(* Per-domain ring-buffer flight recorder.  Event slots are five ints in
   a flat array owned by the recording domain (via Domain.DLS), so
   recording never allocates, never locks and never shares a cache line
   with another domain's ring.  The global registry of rings exists only
   for the dump side, which is cold. *)

let on =
  Atomic.make
    (match Sys.getenv_opt "BLINDBOX_TRACE" with
     | Some ("1" | "true" | "on") -> true
     | _ -> false)

let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

(* Relative timestamps keep full microsecond precision in a float-derived
   int (absolute epoch nanoseconds would exceed the 53-bit mantissa). *)
let epoch = Unix.gettimeofday ()
let now_ns () = int_of_float ((Unix.gettimeofday () -. epoch) *. 1e9)

(* ---- phases ---- *)

type phase = int

let phases_lock = Mutex.create ()
let phase_names : string array ref = ref [||]

let phase name =
  Mutex.lock phases_lock;
  let arr = !phase_names in
  let found = ref (-1) in
  Array.iteri (fun i n -> if !found < 0 && n = name then found := i) arr;
  let id =
    if !found >= 0 then !found
    else begin
      phase_names := Array.append arr [| name |];
      Array.length arr
    end
  in
  Mutex.unlock phases_lock;
  id

let phase_name i =
  let arr = !phase_names in
  if i >= 0 && i < Array.length arr then arr.(i) else Printf.sprintf "phase%d" i

(* ---- rings ---- *)

let fields = 5 (* phase, id, conn, start_ns, dur_ns *)

(* events per domain *)
let capacity = 8192

type ring = {
  dom : int;
  data : int array;             (* fields * capacity *)
  mutable next : int;           (* slot the next event lands in *)
  mutable count : int;          (* live events, <= capacity *)
}

let rings_lock = Mutex.create ()
let rings : ring list ref = ref []

let dls_ring : ring Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let r =
        { dom = (Domain.self () :> int);
          data = Array.make (capacity * fields) 0;
          next = 0;
          count = 0 }
      in
      Mutex.lock rings_lock;
      rings := r :: !rings;
      Mutex.unlock rings_lock;
      r)

let record ph ~id ~conn ~start_ns ~dur_ns =
  if Atomic.get on then begin
    let r = Domain.DLS.get dls_ring in
    let base = r.next * fields in
    r.data.(base) <- ph;
    r.data.(base + 1) <- id;
    r.data.(base + 2) <- conn;
    r.data.(base + 3) <- start_ns;
    r.data.(base + 4) <- dur_ns;
    r.next <- (if r.next + 1 = capacity then 0 else r.next + 1);
    if r.count < capacity then r.count <- r.count + 1
  end

(* ---- dumping ---- *)

type event = {
  e_phase : phase;
  e_id : int;
  e_conn : int;
  e_start_ns : int;
  e_dur_ns : int;
  e_dom : int;
}

let events () =
  Mutex.lock rings_lock;
  let rs = !rings in
  Mutex.unlock rings_lock;
  List.concat_map
    (fun r ->
       let first = if r.count < capacity then 0 else r.next in
       List.init r.count (fun i ->
           let b = (first + i) mod capacity * fields in
           { e_phase = r.data.(b);
             e_id = r.data.(b + 1);
             e_conn = r.data.(b + 2);
             e_start_ns = r.data.(b + 3);
             e_dur_ns = r.data.(b + 4);
             e_dom = r.dom }))
    rs
  |> List.sort (fun a b -> compare (a.e_start_ns, a.e_dom) (b.e_start_ns, b.e_dom))

let dump_chrome () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf {|{"traceEvents":[|};
  List.iteri
    (fun i e ->
       if i > 0 then Buffer.add_char buf ',';
       Buffer.add_string buf
         (Printf.sprintf
            {|{"name":"%s","cat":"bbx","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"conn":%d,"id":%d}}|}
            (phase_name e.e_phase) e.e_dom
            (float_of_int e.e_start_ns /. 1e3)
            (float_of_int e.e_dur_ns /. 1e3)
            e.e_conn e.e_id))
    (events ());
  Buffer.add_string buf {|],"displayTimeUnit":"ms"}|};
  Buffer.contents buf

let dump_jsonl () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
       Buffer.add_string buf
         (Printf.sprintf
            {|{"phase":"%s","id":%d,"conn":%d,"dom":%d,"start_ns":%d,"dur_ns":%d}|}
            (phase_name e.e_phase) e.e_id e.e_conn e.e_dom e.e_start_ns e.e_dur_ns);
       Buffer.add_char buf '\n')
    (events ());
  Buffer.contents buf

let save ~path =
  let oc = open_out path in
  output_string oc
    (if Filename.check_suffix path ".jsonl" then dump_jsonl () else dump_chrome ());
  close_out oc

let reset () =
  Mutex.lock rings_lock;
  List.iter
    (fun r ->
       r.next <- 0;
       r.count <- 0)
    !rings;
  Mutex.unlock rings_lock
