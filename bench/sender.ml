(* Per-layer timing of the DPIEnc sender in e2ebench's bulk-window shape:
   a pool of 64 generated 16 KiB HTML writes (the counters bench's
   sender-html pool), a fresh Exact-mode window sender per 3 MiB
   connection (192 writes, stream offsets running across the connection)
   and a salt reset before every 1 MiB (64 writes).

   Each connection is timed in three parts:
   - the first salt period, where the sender starts empty and grows its
     counter table and key pages;
   - the later periods, where every distinct token is first-seen again
     and its key is expanded into pages the sender already owns (each
     period's reset is timed with it);
   - a warm pass: the last period's writes once more, without a reset,
     so every key is already expanded and a token costs its table probe,
     one AES block and a 5-byte store.
   It prints the median and range over connections of ns/token for each
   part.  There is no gate: the sender's wire bytes are checked against
   the reference sender by test_dpienc, and its allocation by the
   counters bench's sender-cold and sender-html rows.

   Usage: bench/main.exe sender [--smoke]
     --smoke  one short connection (12 writes, a reset every 4) *)

open Bbx_dpienc

let key = Dpienc.key_of_secret "bench-sender"

type shape = { writes_per_conn : int; reset_every : int; conns : int }

let full = { writes_per_conn = 192; reset_every = 64; conns = 9 }
let short = { writes_per_conn = 12; reset_every = 4; conns = 1 }

let periods shape = shape.writes_per_conn / shape.reset_every

(* The writes of period [p]; the warm pass repeats the last period's. *)
let period_writes shape pool p =
  Array.init shape.reset_every (fun j ->
      pool.(((p * shape.reset_every) + j) mod Array.length pool))

(* One timed part of a connection: ns and tokens. *)
type part = { ns : int; tokens : int }

(* One connection on a fresh sender: each period's part, then the warm
   pass's. *)
let connection shape pool =
  let sender = Dpienc.sender_create Dpienc.Exact key ~salt0:0 in
  let buf = Buffer.create (Dpienc.max_header_bytes + (Dpienc.exact_record_bytes * 16_384)) in
  let base = ref 0 in
  let part ~reset writes =
    let t0 = Bbx_obs.Trace.now_ns () in
    if reset then ignore (Dpienc.sender_reset sender : int);
    let tokens = ref 0 in
    Array.iter
      (fun payload ->
         Buffer.clear buf;
         tokens := !tokens + Dpienc.sender_encrypt_into sender ~base:!base payload buf;
         base := !base + String.length payload)
      writes;
    { ns = Bbx_obs.Trace.now_ns () - t0; tokens = !tokens }
  in
  let last = periods shape - 1 in
  let ps = List.init (last + 1) (fun p -> part ~reset:(p > 0) (period_writes shape pool p)) in
  (ps, part ~reset:false (period_writes shape pool last))

let ns_per_token parts =
  let sum f = List.fold_left (fun a p -> a + f p) 0 parts in
  float_of_int (sum (fun p -> p.ns)) /. float_of_int (sum (fun p -> p.tokens))

let run () =
  let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv in
  let shape = if smoke then short else full in
  Bench_util.section
    (if smoke then "DPIEnc sender (smoke)"
     else "DPIEnc sender: bulk-window connections, per salt period");
  let pool = Counters.html_writes "bench-counters/html" ~n:64 ~bytes:16_384 in
  Printf.printf
    "  workload: 64 x 16 KiB HTML writes, Exact window tokens, %d writes per connection, \
     a reset every %d, %d connection(s)\n%!"
    shape.writes_per_conn shape.reset_every shape.conns;
  let conns = List.init shape.conns (fun _ -> connection shape pool) in
  let report name f =
    let xs = List.map f conns in
    Printf.printf "  %-14s median %6.1f ns/token  (range %.1f-%.1f over %d)\n" name
      (Bench_util.median xs) (List.fold_left min infinity xs) (List.fold_left max 0.0 xs)
      (List.length xs)
  in
  report "first period:" (fun (ps, _) -> ns_per_token [ List.hd ps ]);
  report "later periods:" (fun (ps, _) -> ns_per_token (List.tl ps));
  report "warm pass:" (fun (_, warm) -> ns_per_token [ warm ])
