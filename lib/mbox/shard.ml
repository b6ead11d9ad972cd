module Obs = Bbx_obs.Obs
module Codec = Bbx_codec.Codec

(* Aggregate middlebox accounting, mirrored into the process-wide obs
   registry so `blindbox stats` / bench snapshots see middlebox activity
   without holding a reference to the box.  The connection gauge is
   maintained by deltas ([add_gauge]) so shards on different domains sum
   into one aggregate instead of clobbering each other. *)
let obs_tokens = Obs.counter "bbx_mbox_tokens_total"
let obs_hits = Obs.counter "bbx_mbox_keyword_hits_total"
let obs_alerts = Obs.counter "bbx_mbox_alerts_total"
let obs_blocked = Obs.counter "bbx_mbox_blocked_total"
let obs_deliveries = Obs.counter "bbx_mbox_deliveries_total"
let obs_connections = Obs.gauge "bbx_mbox_connections"

type conn_id = int

type stats = {
  connections : int;
  total_tokens : int;
  total_keyword_hits : int;
  alerts : int;
  blocked : int;
}

type flow_stats = {
  flow_tokens : int;
  flow_hits : int;
  flow_verdicts : int;
  flow_blocked : bool;
}

type conn = {
  engine : Engine.t;
  mutable conn_blocked : bool;
  mutable conn_tokens : int;
  mutable conn_verdicts : int;
}

type t = {
  config : Engine.config;
  conns : (conn_id, conn) Hashtbl.t;
  mutable total_tokens : int;
  mutable total_keyword_hits : int;
  mutable alerts : int;
  mutable blocked_count : int;
}

let create config =
  { config; conns = Hashtbl.create 64;
    total_tokens = 0; total_keyword_hits = 0; alerts = 0; blocked_count = 0 }

let check_fresh t op conn_id =
  if Hashtbl.mem t.conns conn_id then
    invalid_arg (Printf.sprintf "Shard.%s: connection %d exists" op conn_id)

let register t ~conn_id ~salt0 ~direction keys =
  check_fresh t "register" conn_id;
  let engine = Engine.make t.config keys ~direction ~salt0 in
  Hashtbl.add t.conns conn_id
    { engine; conn_blocked = false; conn_tokens = 0; conn_verdicts = 0 };
  Obs.add_gauge obs_connections 1

let get t conn_id =
  match Hashtbl.find_opt t.conns conn_id with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Shard: unknown connection %d" conn_id)

(* Keyword-hit accounting uses [Engine.hit_count] deltas: the old
   [List.length (Engine.keyword_hits ...)] bracketing folded and sorted
   the whole hit history twice per delivery, turning long-lived noisy
   connections O(hits^2).  [Engine.verdicts] returns each rule once per
   connection, so its result is this delivery's report as it stands. *)
let process_wire t ~conn_id wire =
  let c = get t conn_id in
  if c.conn_blocked then
    invalid_arg (Printf.sprintf "Shard.process_wire: connection %d is blocked" conn_id);
  let hits_before = Engine.hit_count c.engine in
  let tokens = Engine.process_wire c.engine wire in
  t.total_tokens <- t.total_tokens + tokens;
  c.conn_tokens <- c.conn_tokens + tokens;
  let new_hits = Engine.hit_count c.engine - hits_before in
  t.total_keyword_hits <- t.total_keyword_hits + new_hits;
  let fresh = Engine.verdicts c.engine in
  let n_fresh = List.length fresh in
  t.alerts <- t.alerts + n_fresh;
  c.conn_verdicts <- c.conn_verdicts + n_fresh;
  Obs.incr obs_deliveries;
  Obs.add obs_tokens tokens;
  Obs.add obs_hits new_hits;
  Obs.add obs_alerts n_fresh;
  if Engine.blocks fresh then begin
    c.conn_blocked <- true;
    t.blocked_count <- t.blocked_count + 1;
    Obs.incr obs_blocked
  end;
  fresh

(* Retain one sealed record of the inspected stream for probable-cause
   decryption.  Blocked connections carry no further traffic; records for
   them are silently ignored (the flow is already torn down). *)
let record_stream t ~conn_id record =
  let c = get t conn_id in
  if not c.conn_blocked then Engine.record_stream c.engine record

let is_blocked t ~conn_id = (get t conn_id).conn_blocked

let unregister t ~conn_id =
  if Hashtbl.mem t.conns conn_id then begin
    Hashtbl.remove t.conns conn_id;
    Obs.add_gauge obs_connections (-1)
  end

let engine t ~conn_id = (get t conn_id).engine

let reset_conn t ~conn_id ~salt0 = Engine.reset (get t conn_id).engine ~salt0

let update_rules t ~conn_id keys = Engine.update (get t conn_id).engine keys

let stats t =
  { connections = Hashtbl.length t.conns;
    total_tokens = t.total_tokens;
    total_keyword_hits = t.total_keyword_hits;
    alerts = t.alerts;
    blocked = t.blocked_count }

let merge_stats a b =
  { connections = a.connections + b.connections;
    total_tokens = a.total_tokens + b.total_tokens;
    total_keyword_hits = a.total_keyword_hits + b.total_keyword_hits;
    alerts = a.alerts + b.alerts;
    blocked = a.blocked + b.blocked }

let empty_stats =
  { connections = 0; total_tokens = 0; total_keyword_hits = 0; alerts = 0; blocked = 0 }

let flow_stats_of c =
  { flow_tokens = c.conn_tokens;
    flow_hits = Engine.hit_count c.engine;
    flow_verdicts = c.conn_verdicts;
    flow_blocked = c.conn_blocked }

let flow_stats t ~conn_id = flow_stats_of (get t conn_id)

let fold_flows t ~init ~f =
  Hashtbl.fold (fun conn_id c acc -> f acc conn_id (flow_stats_of c)) t.conns init

(* ---------- connection export / import (migration) -------------------- *)

(* A shard-level export carries the engine snapshot plus the wrapper
   state {!Shardpool} and the daemon cannot reconstruct: the blocked
   flag and the flow counters.  The snapshot's decided table is what
   keeps a migrated connection from re-reporting a verdict.  Aggregate
   shard totals deliberately stay where they accrued — migrating a
   connection moves its future accounting, not its history, so summed
   stats across shards match an unmigrated run.  v1 also carried a
   reported-rule bitset and is rejected. *)

let export_version = 2

type imported = conn

let export_conn t ~conn_id =
  let c = get t conn_id in
  let b = Buffer.create 4096 in
  Codec.put_u8 b export_version;
  Codec.put_str32 b (Engine.snapshot c.engine);
  Codec.put_bool b c.conn_blocked;
  Codec.put_i64 b c.conn_tokens;
  Codec.put_i64 b c.conn_verdicts;
  Hashtbl.remove t.conns conn_id;
  Obs.add_gauge obs_connections (-1);
  Buffer.contents b

let parse_export ~mode blob =
  match
    let cur = Codec.cursor blob in
    let version = Codec.get_u8 cur in
    if version <> export_version then
      invalid_arg (Printf.sprintf "Shard.parse_export: unknown version %d" version);
    let engine = Engine.restore (Codec.get_str32 cur) in
    if (Engine.config engine).Engine.mode <> mode then
      invalid_arg "Shard.parse_export: mode mismatch";
    let conn_blocked = Codec.get_bool cur in
    let conn_tokens = Codec.get_i64 cur in
    let conn_verdicts = Codec.get_i64 cur in
    if conn_tokens < 0 || conn_verdicts < 0 then
      invalid_arg "Shard.parse_export: negative flow counter";
    Codec.finish cur;
    { engine; conn_blocked; conn_tokens; conn_verdicts }
  with
  | c -> c
  | exception Codec.Malformed msg ->
    invalid_arg ("Shard.parse_export: " ^ msg)

(* Infallible by design: validation happened in {!parse_export} on the
   front side, so adopting on a worker domain cannot poison it.  The
   imported engine carries its own ruleset until the next rule update. *)
let adopt t ~conn_id c =
  Hashtbl.replace t.conns conn_id c;
  Obs.add_gauge obs_connections 1

(* validate before install; a duplicate id is a caller error, as for
   [register] *)
let import_conn t ~conn_id blob =
  let c = parse_export ~mode:t.config.Engine.mode blob in
  check_fresh t "import_conn" conn_id;
  adopt t ~conn_id c

(* ---------- footprint accounting -------------------------------------- *)

let conn_count t = Hashtbl.length t.conns

(* Borrowed rulesets and key material are charged once per shard,
   however many connections share them: a fleet generation costs one
   copy, a daemon connection's private keys cost one copy each. *)
let footprint_bytes t =
  let counted = Hashtbl.create 8 in
  let once id bytes =
    if Hashtbl.mem counted id then 0 else (Hashtbl.add counted id (); bytes)
  in
  Hashtbl.fold
    (fun _ c acc ->
       let keys = Engine.keys_of c.engine in
       let rs = Engine.ruleset_of keys in
       acc + Engine.footprint_bytes c.engine
       + 7 * (Sys.word_size / 8)
       + once (Engine.keys_id keys) (Engine.keys_bytes keys)
       + once (Engine.ruleset_id rs) (Engine.ruleset_bytes rs))
    t.conns 0
