(* The traced run's per-layer table, from three sources outside the
   program:

   - the benchmark client's own spans around its calls into public functions
     ({!Drive}, with [traced]);
   - the daemon's flight-recorder phases ([serve --trace-out]), keyed by
     [(conn, seq)] exactly like the client's spans, so the two join;
   - an in-process replay of each connection's captured frames through
     [Engine], whose verdicts must equal the daemon's for every delivery
     (a free differential test). *)

module Engine = Bbx_mbox.Engine
module Wire = Bbx_wire.Wire
module Dpienc = Bbx_dpienc.Dpienc

(* ---------- flight recorder ---------- *)

let phases = [ "read"; "validate"; "queue_wait"; "service"; "write" ]

(* (phase, conn, seq) -> duration ns, for the TOKEN_STREAM frames of
   writes (seq >= 1). *)
let load_trace path =
  let tbl = Hashtbl.create 4096 in
  let add line =
    match
      Scanf.sscanf line
        "{\"phase\":\"%s@\",\"id\":%d,\"conn\":%d,\"dom\":%d,\"start_ns\":%d,\"dur_ns\":%d}"
        (fun ph id conn _dom _start dur -> (ph, id, conn, dur))
    with
    | ph, id, conn, dur when id >= 1 && conn >= 0 -> Hashtbl.replace tbl (ph, conn, id) dur
    | _ -> ()
    | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> ()
  in
  (* a daemon that died before its teardown leaves no dump: nothing joins *)
  if Sys.file_exists path then begin
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        try while true do add (input_line ic) done with End_of_file -> ())
  end;
  tbl

(* ---------- in-process replay ---------- *)

type replay = {
  mutable r_conns : int;
  mutable r_deliveries : int;
  mutable r_mismatches : int;
  mutable r_create_ns : int;
  mutable r_tokens : int;
  mutable r_hits : int;
  mutable r_detect_ns : int;           (* process_wire *)
  mutable r_record_ns : int;           (* record_stream *)
  mutable r_verdicts_ns : int;         (* verdicts, every delivery *)
  mutable r_esc_deliveries : int;
  mutable r_esc_ns : int;              (* record_stream + verdicts after k_ssl recovery *)
  mutable r_escalated_conns : int;
}

let replay (inputs : Workload.inputs) (conns : Drive.conn list) ~deadline_ns =
  let w = inputs.Workload.w in
  let r =
    { r_conns = 0; r_deliveries = 0; r_mismatches = 0; r_create_ns = 0;
      r_tokens = 0; r_hits = 0; r_detect_ns = 0; r_record_ns = 0;
      r_verdicts_ns = 0; r_esc_deliveries = 0; r_esc_ns = 0;
      r_escalated_conns = 0 }
  in
  let now = Drive.now_ns in
  List.iter
    (fun (c : Drive.conn) ->
       if c.Drive.captured && c.Drive.setup_ns >= 0 && now () < deadline_ns then begin
         let tbl = Hashtbl.create (2 * Array.length c.Drive.pairs) in
         Array.iter (fun (chunk, enc) -> Hashtbl.replace tbl chunk enc) c.Drive.pairs;
         let t0 = now () in
         let eng =
           Engine.create ~kernel:Dpienc.Bitsliced ~mode:w.Workload.mode ~salt0:0
             ~rules:inputs.Workload.rules ~enc_chunk:(Hashtbl.find tbl) ()
         in
         r.r_create_ns <- r.r_create_ns + (now () - t0);
         r.r_conns <- r.r_conns + 1;
         let daemon = Hashtbl.create 64 in
         List.iter
           (fun (seq, _status, vs) ->
              Hashtbl.replace daemon seq
                (List.sort compare
                   (List.map (fun v -> (v.Wire.v_sid, v.Wire.v_detail)) vs)))
           c.Drive.verdicts;
         let reported = Hashtbl.create 16 in
         List.iter
           (function
             | Drive.Reset salt0 -> Engine.reset eng ~salt0
             | Drive.Deliver { seq; records; record } ->
               let t0 = now () in
               Option.iter (Engine.record_stream eng) record;
               let t1 = now () in
               let h0 = Engine.hit_count eng in
               let ntok = Engine.process_wire eng records in
               let t2 = now () in
               let vs = Engine.verdicts eng in
               let t3 = now () in
               r.r_deliveries <- r.r_deliveries + 1;
               r.r_tokens <- r.r_tokens + ntok;
               r.r_hits <- r.r_hits + (Engine.hit_count eng - h0);
               r.r_record_ns <- r.r_record_ns + (t1 - t0);
               r.r_detect_ns <- r.r_detect_ns + (t2 - t1);
               r.r_verdicts_ns <- r.r_verdicts_ns + (t3 - t2);
               if Engine.recovered_key eng <> None then begin
                 r.r_esc_deliveries <- r.r_esc_deliveries + 1;
                 r.r_esc_ns <- r.r_esc_ns + (t1 - t0) + (t3 - t2)
               end;
               (* each rule is reported once per connection, as Shard does *)
               let fresh =
                 List.filter (fun v -> not (Hashtbl.mem reported v.Engine.rule_idx)) vs
               in
               List.iter (fun v -> Hashtbl.replace reported v.Engine.rule_idx ()) fresh;
               let mine =
                 List.sort compare
                   (List.map
                      (fun v -> (Workload.sid v.Engine.rule, v.Engine.detail))
                      fresh)
               in
               let theirs = Option.value (Hashtbl.find_opt daemon seq) ~default:[] in
               if mine <> theirs then r.r_mismatches <- r.r_mismatches + 1)
           c.Drive.events;
         if Engine.recovered_key eng <> None then
           r.r_escalated_conns <- r.r_escalated_conns + 1
       end)
    conns;
  r

(* ---------- the daemon's per-connection footprint ---------- *)

let scrape_conn_bytes endpoint =
  let cl = Bbx_daemon.Client.connect endpoint in
  let body =
    Fun.protect ~finally:(fun () -> Bbx_daemon.Client.close cl) (fun () ->
        Bbx_daemon.Client.metrics cl Wire.Jsonl)
  in
  let prefix = "{\"metric\":\"bbx_conn_bytes\"" in
  match
    List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' body)
  with
  | Some line ->
    let i = String.rindex line ':' in
    float_of_string (String.sub line (i + 1) (String.length line - i - 2))
  | None -> nan
