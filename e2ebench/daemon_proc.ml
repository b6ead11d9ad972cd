(* A [blindbox serve] child process on a private Unix socket, plus the
   /proc readings the benchmark takes from it and from the host.

   Every exit path stops the child: [stop] sends SIGTERM, reaps it (with
   a SIGKILL fallback) and removes its socket; [at_exit] covers paths
   that never reach [stop]. *)

type t = {
  pid : int;
  socket : string;          (* relative to the benchmark's working directory *)
  log : string;
  mutable live : bool;
}

let children : t list ref = ref []

(* /proc files report length 0; read them line by line. *)
let read_proc path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      let buf = Buffer.create 1024 in
      (try
         while true do
           Buffer.add_string buf (input_line ic);
           Buffer.add_char buf '\n'
         done
       with End_of_file -> ());
      Buffer.contents buf)

let remove path = try Sys.remove path with Sys_error _ -> ()

let reap ?(grace = 5.0) t =
  let deadline = Unix.gettimeofday () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] t.pid)
      end
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let stop t =
  if t.live then begin
    t.live <- false;
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    reap t;
    remove t.socket;
    children := List.filter (fun c -> c != t) !children
  end

let () = at_exit (fun () -> List.iter stop !children)

let endpoint t = Bbx_daemon.Daemon.Unix_path t.socket

(* The daemon runs with its own defaults for observability: the
   flight recorder is on only when [trace_out] is given. *)
let child_env () =
  Array.of_list
    (List.filter
       (fun kv ->
          not (String.starts_with ~prefix:"BLINDBOX_TRACE=" kv
               || String.starts_with ~prefix:"BLINDBOX_OBS=" kv))
       (Array.to_list (Unix.environment ())))

let start ~exe ~dir ~tag ~rules_file ~probable ?trace_out () =
  let socket = Filename.concat dir (tag ^ ".sock") in
  let log = Filename.concat dir (tag ^ ".log") in
  remove socket;
  let args =
    [ exe; "serve"; socket; "--rules"; rules_file; "--domains"; "1" ]
    @ (if probable then [ "--probable-cause"; "--tier"; "3" ] else [])
    @ (match trace_out with Some f -> [ "--trace-out"; f ] | None -> [])
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close out) (fun () ->
        Unix.create_process_env exe (Array.of_list args) (child_env ())
          Unix.stdin out out)
  in
  let t = { pid; socket; log; live = true } in
  children := t :: !children;
  (* ready once the socket accepts a connection *)
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait_ready () =
    match Bbx_daemon.Daemon.connect (endpoint t) with
    | fd -> Unix.close fd
    | exception Unix.Unix_error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ ->
         t.live <- false;
         failwith ("blindbox serve exited early; see " ^ log)
       | exception Unix.Unix_error _ -> ());
      if Unix.gettimeofday () > deadline then begin
        stop t;
        failwith "blindbox serve did not start listening"
      end;
      Unix.sleepf 0.01;
      wait_ready ()
  in
  wait_ready ();
  t

(* ---------- /proc readings ---------- *)

(* USER_HZ: /proc reports CPU time in clock ticks of 1/100 s on Linux. *)
let clk_tck = 100.

(* utime + stime of every thread of [pid], seconds; nan once the process
   is gone. *)
let cpu_seconds pid =
  match read_proc (Printf.sprintf "/proc/%d/stat" pid) with
  | s ->
    let i = String.rindex s ')' + 2 in
    let f = Array.of_list (String.split_on_char ' ' (String.sub s i (String.length s - i))) in
    (* the split starts at field 3 (state); utime and stime are fields 14 and 15 *)
    (float_of_string f.(11) +. float_of_string f.(12)) /. clk_tck
  | exception Sys_error _ -> nan

(* Peak resident set (VmHWM), MiB; nan once the process is gone. *)
let peak_rss_mib pid =
  match read_proc (Printf.sprintf "/proc/%d/status" pid) with
  | s ->
    (match
       List.find_opt (String.starts_with ~prefix:"VmHWM:") (String.split_on_char '\n' s)
     with
     | Some line -> Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
     | None -> nan)
  | exception Sys_error _ -> nan

(* (steal, total) ticks over all CPUs, from the first line of /proc/stat. *)
let steal () =
  match String.split_on_char ' ' (List.hd (String.split_on_char '\n' (read_proc "/proc/stat"))) with
  | "cpu" :: rest ->
    let f = List.filter_map int_of_string_opt rest in
    (* user nice system idle iowait irq softirq steal ... *)
    ((match List.nth_opt f 7 with Some s -> s | None -> 0), List.fold_left ( + ) 0 f)
  | _ -> (0, 0)
  | exception Sys_error _ -> (0, 0)

let loadavg () =
  match String.split_on_char ' ' (read_proc "/proc/loadavg") with
  | a :: b :: c :: _ -> Printf.sprintf "%s %s %s" a b c
  | _ -> "?"

let nproc () = Domain.recommended_domain_count ()
