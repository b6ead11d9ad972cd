(* Timing helpers shared by all experiments.

   Fast operations (ns-us) go through Bechamel's OLS estimator; slow ones
   (ms-minutes) are timed directly with enough repetitions for stability. *)

open Bechamel
open Bechamel.Toolkit

(* ns per run, estimated by Bechamel (monotonic clock, OLS on run count). *)
let bechamel_ns ~name ?(quota = 0.5) f =
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:3000 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let estimate = ref nan in
  Hashtbl.iter
    (fun _ v ->
       match Analyze.OLS.estimates v with
       | Some (e :: _) -> estimate := e
       | _ -> ())
    results;
  !estimate

(* Direct wall-clock timing: seconds for one call, averaged over reps. *)
let time_direct ?(reps = 1) f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do f () done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

(* Repeat until ~min_time total, return seconds per call. *)
let time_per ?(min_time = 0.2) f =
  f (); (* warmup *)
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  while Unix.gettimeofday () -. t0 < min_time do
    f ();
    incr reps
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int !reps

let fmt_seconds s =
  if Float.is_nan s then "n/a"
  else if s < 0.0 then "??"
  else if s < 1e-6 then Printf.sprintf "%.0f ns" (s *. 1e9)
  else if s < 1e-3 then Printf.sprintf "%.2f us" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.2f ms" (s *. 1e3)
  else if s < 120.0 then Printf.sprintf "%.2f s" s
  else Printf.sprintf "%.1f min" (s /. 60.0)

let fmt_bytes b =
  if b < 1024 then Printf.sprintf "%d B" b
  else if b < 1024 * 1024 then Printf.sprintf "%.1f KB" (float_of_int b /. 1024.0)
  else Printf.sprintf "%.1f MB" (float_of_int b /. (1024.0 *. 1024.0))

let fmt_rate bytes seconds =
  Printf.sprintf "%.0f Mbps" (float_of_int bytes *. 8.0 /. seconds /. 1e6)

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let subsection title = Printf.printf "\n--- %s ---\n%!" title

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  note: %s\n%!" s) fmt

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let idx = int_of_float (p *. float_of_int (n - 1)) in
    sorted.(idx)
  end

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  percentile a 0.5
