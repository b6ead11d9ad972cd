module Obs = Bbx_obs.Obs
module Trace = Bbx_obs.Trace
module Pool = Bbx_exec.Pool

let obs_submitted = Obs.counter "bbx_shardpool_submitted_total"
let obs_dropped = Obs.counter "bbx_shardpool_dropped_total"
let obs_domains = Obs.gauge "bbx_shardpool_domains"
let obs_conn_bytes = Obs.gauge "bbx_conn_bytes"
let obs_migrations = Obs.counter "bbx_conn_migrations_total"

(* Per-delivery pipeline stages, microseconds: submit -> worker dequeue
   (queue wait) and the Shard inspection itself (service).  These are the
   daemon-facing names the ROADMAP's queue-wait-vs-service question needs;
   the generic mailbox residency is bbx_exec_queue_wait_us in Pool. *)
let obs_queue_wait = Obs.histogram "bbx_daemon_queue_wait_us" ~buckets:Obs.us_buckets
let obs_service = Obs.histogram "bbx_shard_service_us" ~buckets:Obs.us_buckets

let ph_queue = Trace.phase "queue_wait"
let ph_service = Trace.phase "service"

type conn_id = Shard.conn_id

type stats = Shard.stats

type result = {
  r_conn : conn_id;
  r_verdicts : Engine.verdict list;
}

(* The shard pool is a thin routing layer over the generic domain pool
   ({!Bbx_exec.Pool}): worker [i] owns one {!Shard}, every message for a
   connection goes to worker [conn_id mod domains], and the pool's
   per-worker FIFO mailboxes guarantee a connection's deliveries (and
   salt resets, registrations, rule updates) execute in submission order
   on one domain — so its per-token salt counters stay in lock-step with
   the sender. *)
type t = {
  pool : (Shard.t, result) Pool.t;
  mode : Bbx_dpienc.Dpienc.mode;           (* for validating imported state *)
  registered : (conn_id, int) Hashtbl.t;   (* front-side pin table:
                                              conn_id -> owning shard (also
                                              the duplicate/unknown guard) *)
}

(* Default placement: dense conn ids spread perfectly evenly (important
   for scaling), arbitrary ids still land deterministically.  Migration
   can re-pin a connection to any shard afterwards — routing always goes
   through the pin table. *)
let default_shard t conn_id = (conn_id land max_int) mod Pool.domains t.pool

(* The owning shard of a registered connection. *)
let shard_of t conn_id op =
  match Hashtbl.find_opt t.registered conn_id with
  | Some w -> w
  | None ->
    invalid_arg (Printf.sprintf "Shardpool.%s: unknown connection %d" op conn_id)

let default_domains = Pool.default_domains

let create ?domains config =
  let n = match domains with Some n -> n | None -> default_domains () in
  if n < 1 then invalid_arg "Shardpool.create: domains must be >= 1";
  let pool = Pool.create ~domains:n ~state:(fun _ -> Shard.create config) () in
  Obs.set_gauge obs_domains n;
  { pool; mode = config.Engine.mode; registered = Hashtbl.create 64 }

let domains t = Pool.domains t.pool

let check_live t op =
  if not (Pool.live t.pool) then
    invalid_arg (Printf.sprintf "Shardpool.%s: pool is shut down" op)

let register t ~conn_id ~salt0 ~direction keys =
  check_live t "register";
  if Hashtbl.mem t.registered conn_id then
    invalid_arg (Printf.sprintf "Shardpool.register: connection %d exists" conn_id);
  let worker = default_shard t conn_id in
  Hashtbl.add t.registered conn_id worker;
  Pool.exec t.pool ~worker (fun core ->
      Shard.register core ~conn_id ~salt0 ~direction (keys ()))


(* Record retention rides the same per-worker FIFO mailbox as deliveries,
   so a record frame submitted before its token frames is guaranteed to
   reach the engine first — ordering matters because the record layer
   decrypts strictly in sequence. *)
let record_stream t ~conn_id record =
  check_live t "record_stream";
  Pool.exec t.pool ~worker:(shard_of t conn_id "record_stream") (fun core ->
      Shard.record_stream core ~conn_id record)

let submit ?(tag = -1) t ~conn_id wire =
  check_live t "submit";
  let worker = shard_of t conn_id "submit" in
  (* [timing] is decided at submit time and captured by the closure, so a
     worker never reads the Obs/Trace switches mid-batch; [tag] is the
     caller's frame id (the wire seq for daemon deliveries) and keys the
     per-frame trace events together with [conn_id]. *)
  let timing = Obs.enabled () || Trace.enabled () in
  let t_sub = if timing then Trace.now_ns () else -1 in
  let seq =
    Pool.submit t.pool ~worker (fun core ->
        let t_deq = if timing then Trace.now_ns () else -1 in
        if timing then begin
          Obs.observe obs_queue_wait ((t_deq - t_sub) / 1000);
          Trace.record ph_queue ~id:tag ~conn:conn_id ~start_ns:t_sub
            ~dur_ns:(t_deq - t_sub)
        end;
        let r =
          if Shard.is_blocked core ~conn_id then begin
            Obs.incr obs_dropped;
            None
          end
          else
            Some { r_conn = conn_id; r_verdicts = Shard.process_wire core ~conn_id wire }
        in
        if timing then begin
          let t_done = Trace.now_ns () in
          Obs.observe obs_service ((t_done - t_deq) / 1000);
          Trace.record ph_service ~id:tag ~conn:conn_id ~start_ns:t_deq
            ~dur_ns:(t_done - t_deq)
        end;
        r)
  in
  Obs.incr obs_submitted;
  seq

let reset_conn t ~conn_id ~salt0 =
  check_live t "reset_conn";
  Pool.exec t.pool ~worker:(shard_of t conn_id "reset_conn") (fun core ->
      Shard.reset_conn core ~conn_id ~salt0)

let update_rules t ~conn_id next =
  check_live t "update_rules";
  Pool.exec t.pool ~worker:(shard_of t conn_id "update_rules") (fun core ->
      Shard.update_rules core ~conn_id (next ()))

let unregister t ~conn_id =
  check_live t "unregister";
  match Hashtbl.find_opt t.registered conn_id with
  | None -> ()
  | Some worker ->
    Hashtbl.remove t.registered conn_id;
    Pool.exec t.pool ~worker (fun core -> Shard.unregister core ~conn_id)

let barrier t =
  check_live t "barrier";
  Pool.barrier t.pool

let drain t ~f =
  check_live t "drain";
  Pool.drain t.pool ~f:(fun ~seq r -> f ~seq ~conn_id:r.r_conn r.r_verdicts)

let process_wire t ~conn_id wire =
  check_live t "process_wire";
  if Pool.pending t.pool > 0 then
    invalid_arg "Shardpool.process_wire: async submissions pending (drain first)";
  let seq = submit t ~conn_id wire in
  match List.assoc_opt seq (Pool.drain_list t.pool) with
  | Some r -> r.r_verdicts
  | None ->
    (* the worker dropped the delivery: connection already blocked *)
    invalid_arg (Printf.sprintf "Shardpool.process_wire: connection %d is blocked" conn_id)

let is_blocked t ~conn_id =
  check_live t "is_blocked";
  Pool.quiesce t.pool ~worker:(shard_of t conn_id "is_blocked") (fun core ->
      Shard.is_blocked core ~conn_id)

let stats t =
  check_live t "stats";
  Pool.fold_workers t.pool ~init:Shard.empty_stats ~f:(fun acc core ->
      Shard.merge_stats acc (Shard.stats core))

let flow_stats t ~conn_id =
  check_live t "flow_stats";
  Pool.quiesce t.pool ~worker:(shard_of t conn_id "flow_stats") (fun core ->
      Shard.flow_stats core ~conn_id)

let fold_flows t ~init ~f =
  check_live t "fold_flows";
  Pool.fold_workers t.pool ~init ~f:(fun acc core -> Shard.fold_flows core ~init:acc ~f)

(* ---------- connection migration -------------------------------------- *)

let conn_shard t ~conn_id =
  check_live t "conn_shard";
  shard_of t conn_id "conn_shard"

let conns_per_shard t =
  let counts = Array.make (Pool.domains t.pool) 0 in
  Hashtbl.iter (fun _ w -> counts.(w) <- counts.(w) + 1) t.registered;
  counts

(* Draining through the FIFO mailbox: [Pool.quiesce] runs the export on
   the owning worker only after every message submitted before it —
   deliveries, record frames, salt resets — has executed, so the snapshot
   reflects exactly the traffic submitted so far.  Results of those
   deliveries stay in the pool's completion buffer and are still returned
   by the next {!drain}. *)
let export_conn t ~conn_id =
  check_live t "export_conn";
  let worker = shard_of t conn_id "export_conn" in
  let blob =
    Pool.quiesce t.pool ~worker (fun core -> Shard.export_conn core ~conn_id)
  in
  Hashtbl.remove t.registered conn_id;
  blob

let import_conn ?shard t ~conn_id blob =
  check_live t "import_conn";
  if Hashtbl.mem t.registered conn_id then
    invalid_arg (Printf.sprintf "Shardpool.import_conn: connection %d exists" conn_id);
  let worker = match shard with Some s -> s | None -> default_shard t conn_id in
  if worker < 0 || worker >= Pool.domains t.pool then
    invalid_arg (Printf.sprintf "Shardpool.import_conn: no shard %d" worker);
  (* Parse and validate on the front side: a malformed blob raises here,
     where the caller can reject it, never on a worker domain (a worker
     exception poisons the pool). *)
  let c = Shard.parse_export ~mode:t.mode blob in
  Hashtbl.add t.registered conn_id worker;
  Pool.exec t.pool ~worker (fun core -> Shard.adopt core ~conn_id c);
  Obs.incr obs_migrations

let migrate t ~conn_id ~shard =
  check_live t "migrate";
  if shard < 0 || shard >= Pool.domains t.pool then
    invalid_arg (Printf.sprintf "Shardpool.migrate: no shard %d" shard);
  if shard_of t conn_id "migrate" <> shard then begin
    let blob = export_conn t ~conn_id in
    import_conn ~shard t ~conn_id blob
  end

(* Even out the pin table: move connections from shards above the ceiling
   target to shards below it.  Placement-only — verdicts, stats and wire
   behaviour are invariant under migration (differential-tested), so
   rebalancing is safe to run at any quiet moment.  Returns how many
   connections moved. *)
let rebalance t =
  check_live t "rebalance";
  let d = Pool.domains t.pool in
  let counts = conns_per_shard t in
  let total = Hashtbl.length t.registered in
  let target = (total + d - 1) / d in
  let moves = ref [] in
  Hashtbl.iter
    (fun conn_id w -> if counts.(w) > target then begin
         counts.(w) <- counts.(w) - 1;
         moves := conn_id :: !moves
       end)
    t.registered;
  let moved = ref 0 in
  List.iter
    (fun conn_id ->
       (* cheapest destination each time; [d] is small *)
       let dest = ref 0 in
       for w = 1 to d - 1 do
         if counts.(w) < counts.(!dest) then dest := w
       done;
       if counts.(!dest) < target then begin
         counts.(!dest) <- counts.(!dest) + 1;
         migrate t ~conn_id ~shard:!dest;
         incr moved
       end)
    !moves;
  !moved

(* ---------- footprint accounting -------------------------------------- *)

(* Quiesces every worker; refreshes the [bbx_conn_bytes] gauge. *)
let footprint_bytes t =
  check_live t "footprint_bytes";
  let bytes =
    Pool.fold_workers t.pool ~init:0 ~f:(fun acc core ->
        acc + Shard.footprint_bytes core)
  in
  Obs.set_gauge obs_conn_bytes bytes;
  bytes

let shutdown t =
  if Pool.live t.pool then begin
    Pool.shutdown t.pool;
    Obs.set_gauge obs_domains 0
  end

let with_pool ?domains config f =
  let t = create ?domains config in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
