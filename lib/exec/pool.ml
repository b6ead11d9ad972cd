module Obs = Bbx_obs.Obs
module Trace = Bbx_obs.Trace

(* Pool-level metrics use the delta gauge form: several pools may be live
   at once (the middlebox shard pool plus a rule-preparation pool), so
   their domain counts sum instead of clobbering. *)
let obs_tasks = Obs.counter "bbx_exec_tasks_total"
let obs_batches = Obs.counter "bbx_exec_batches_total"
let obs_domains = Obs.gauge "bbx_exec_domains"

(* Mailbox residency (enqueue -> batch splice), microseconds.  The
   timestamp rides in the message so it costs one clock read at push and
   one per drained batch; with both Obs and Trace disabled the sentinel
   [-1] skips the clock entirely. *)
let obs_queue_wait = Obs.histogram "bbx_exec_queue_wait_us" ~buckets:Obs.us_buckets

let stamp_ns () =
  if Obs.enabled () || Trace.enabled () then Trace.now_ns () else -1

(* Everything a worker may be asked to do goes through its mailbox, in
   FIFO order.  That single rule is the whole concurrency story: a
   worker's state is only ever touched by the domain owning it (plus the
   front under {!quiesce}, while the worker provably holds no batch). *)
type ('s, 'r) msg =
  | Exec of { f : 's -> unit; enq_ns : int }
  | Ticketed of { seq : int; task : 's -> 'r option; enq_ns : int }

type ('s, 'r) worker = {
  state : 's;
  lock : Mutex.t;
  nonempty : Condition.t;          (* worker waits for work *)
  space : Condition.t;             (* front waits for mailbox capacity *)
  idle : Condition.t;              (* front waits for quiescence *)
  queue : ('s, 'r) msg Queue.t;
  mutable busy : bool;             (* worker is processing a batch *)
  mutable stopping : bool;
  mutable out : (int * 'r) list;   (* completed ticketed results, newest first *)
  mutable failed : exn option;     (* first worker-side exception, sticky *)
}

type ('s, 'r) t = {
  workers : ('s, 'r) worker array;
  threads : unit Domain.t array;
  capacity : int;
  mutable seq : int;               (* next submission ticket *)
  mutable pending : int;           (* tickets not yet drained *)
  mutable is_live : bool;
}

(* ---- worker ---- *)

let exec_msg state msg acc =
  match msg with
  | Exec { f; _ } -> f state
  | Ticketed { seq; task; _ } ->
    (match task state with
     | None -> ()
     | Some r -> acc := (seq, r) :: !acc)

let msg_enq_ns = function
  | Exec { enq_ns; _ } | Ticketed { enq_ns; _ } -> enq_ns

(* One domain per worker: splice out up to [batch_max] messages under the
   lock, process them without it, publish results, repeat.  Quiescence
   ([idle]) means "mailbox empty and no batch in flight" — the front uses
   it for [drain]/[quiesce] and all other reads of worker state. *)
let worker_loop batch_max w =
  let batch = Queue.create () in
  Mutex.lock w.lock;
  let rec loop () =
    if Queue.is_empty w.queue then begin
      w.busy <- false;
      Condition.broadcast w.idle;
      if w.stopping then Mutex.unlock w.lock
      else begin
        Condition.wait w.nonempty w.lock;
        loop ()
      end
    end
    else begin
      w.busy <- true;
      let n = ref 0 in
      while !n < batch_max && not (Queue.is_empty w.queue) do
        Queue.add (Queue.pop w.queue) batch;
        incr n
      done;
      Condition.broadcast w.space;
      Mutex.unlock w.lock;
      let acc = ref [] in
      (* one clock read covers the whole spliced batch: every message in
         it became runnable at the same moment *)
      let t_deq = ref (-1) in
      Queue.iter
        (fun msg ->
           let enq = msg_enq_ns msg in
           if enq >= 0 then begin
             if !t_deq < 0 then t_deq := Trace.now_ns ();
             Obs.observe obs_queue_wait ((!t_deq - enq) / 1000)
           end;
           try exec_msg w.state msg acc
           with e -> if w.failed = None then w.failed <- Some e)
        batch;
      Queue.clear batch;
      Obs.add obs_tasks !n;
      Obs.incr obs_batches;
      Mutex.lock w.lock;
      w.out <- !acc @ w.out;
      loop ()
    end
  in
  loop ()

(* ---- front ---- *)

let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

let create ?domains ?(capacity = 1024) ?(batch_max = 64) ~state () =
  let n = match domains with Some n -> n | None -> default_domains () in
  if n < 1 then invalid_arg "Pool.create: domains must be >= 1";
  if capacity < 1 then invalid_arg "Pool.create: capacity must be >= 1";
  if batch_max < 1 then invalid_arg "Pool.create: batch_max must be >= 1";
  let workers =
    Array.init n (fun i ->
        { state = state i;
          lock = Mutex.create ();
          nonempty = Condition.create ();
          space = Condition.create ();
          idle = Condition.create ();
          queue = Queue.create ();
          busy = false;
          stopping = false;
          out = [];
          failed = None })
  in
  let threads = Array.map (fun w -> Domain.spawn (fun () -> worker_loop batch_max w)) workers in
  Obs.add_gauge obs_domains n;
  { workers; threads; capacity; seq = 0; pending = 0; is_live = true }

let domains t = Array.length t.workers

let live t = t.is_live

let check_live t op =
  if not t.is_live then invalid_arg (Printf.sprintf "Pool.%s: pool is shut down" op)

let worker_of t i op =
  if i < 0 || i >= Array.length t.workers then
    invalid_arg (Printf.sprintf "Pool.%s: no worker %d" op i);
  t.workers.(i)

let push t w msg =
  Mutex.lock w.lock;
  while Queue.length w.queue >= t.capacity do Condition.wait w.space w.lock done;
  Queue.add msg w.queue;
  Condition.signal w.nonempty;
  Mutex.unlock w.lock

let exec t ~worker f =
  check_live t "exec";
  push t (worker_of t worker "exec") (Exec { f; enq_ns = stamp_ns () })

let submit t ~worker task =
  check_live t "submit";
  let w = worker_of t worker "submit" in
  let seq = t.seq in
  t.seq <- seq + 1;
  t.pending <- t.pending + 1;
  push t w (Ticketed { seq; task; enq_ns = stamp_ns () });
  seq

let pending t = t.pending

(* Block until the worker's mailbox is empty and its domain idle, then
   run [f] while still holding the lock: the mutex acquisition orders the
   worker's writes before the front's reads, so [f] may freely read the
   worker's state. *)
let quiesce_worker w f =
  Mutex.lock w.lock;
  while not (Queue.is_empty w.queue && not w.busy) do
    Condition.wait w.idle w.lock
  done;
  Fun.protect ~finally:(fun () -> Mutex.unlock w.lock) (fun () -> f ())

let quiesce t ~worker f =
  check_live t "quiesce";
  let w = worker_of t worker "quiesce" in
  quiesce_worker w (fun () -> f w.state)

let fold_workers t ~init ~f =
  check_live t "fold_workers";
  Array.fold_left (fun acc w -> quiesce_worker w (fun () -> f acc w.state)) init t.workers

let check_failed t =
  Array.iter (fun w -> match w.failed with Some e -> raise e | None -> ()) t.workers

let barrier t =
  check_live t "barrier";
  Array.iter (fun w -> quiesce_worker w (fun () -> ())) t.workers;
  check_failed t

let drain_list t =
  check_live t "drain";
  let results =
    Array.fold_left
      (fun acc w ->
         quiesce_worker w (fun () ->
             let out = w.out in
             w.out <- [];
             List.rev_append out acc))
      [] t.workers
  in
  check_failed t;
  t.pending <- 0;
  List.sort (fun (a, _) (b, _) -> compare a b) results

let drain t ~f = List.iter (fun (seq, r) -> f ~seq r) (drain_list t)

let map t ~n ~f =
  check_live t "map";
  if n = 0 then [||]
  else begin
    let slots = Array.make n None in
    let d = Array.length t.workers in
    for i = 0 to n - 1 do
      (* distinct slots from distinct domains: race-free by construction,
         and the barrier's mutex acquisitions publish the writes *)
      exec t ~worker:(i mod d) (fun s -> slots.(i) <- Some (f i s))
    done;
    barrier t;
    Array.map (function Some v -> v | None -> assert false) slots
  end

let shutdown t =
  if t.is_live then begin
    t.is_live <- false;
    Array.iter
      (fun w ->
         Mutex.lock w.lock;
         w.stopping <- true;
         Condition.signal w.nonempty;
         Mutex.unlock w.lock)
      t.workers;
    Array.iter Domain.join t.threads;
    Obs.add_gauge obs_domains (- Array.length t.workers)
  end

let with_pool ?domains ?capacity ?batch_max ~state f =
  let t = create ?domains ?capacity ?batch_max ~state () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
