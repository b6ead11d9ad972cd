(* bbx_obs unit tests: registration semantics, the enabled switch, bucket
   placement, span accumulation and both exposition formats. *)

module Obs = Bbx_obs.Obs

(* Each test names its metrics uniquely (the registry is process-wide),
   and re-enables instrumentation in case an earlier test disabled it. *)
let fresh =
  let n = ref 0 in
  fun base ->
    incr n;
    Printf.sprintf "test_%s_%d" base !n

let counter_tests =
  [ Alcotest.test_case "incr and add accumulate" `Quick (fun () ->
        Obs.set_enabled true;
        let c = Obs.counter (fresh "counter") in
        Obs.incr c;
        Obs.add c 41;
        Alcotest.(check int) "42" 42 (Obs.counter_value c));
    Alcotest.test_case "registration is idempotent by name" `Quick (fun () ->
        Obs.set_enabled true;
        let name = fresh "counter" in
        let a = Obs.counter name in
        let b = Obs.counter name in
        Obs.incr a;
        Obs.incr b;
        Alcotest.(check int) "same slot" 2 (Obs.counter_value a));
    Alcotest.test_case "name clash across types rejected" `Quick (fun () ->
        let name = fresh "clash" in
        let _ = Obs.counter name in
        Alcotest.(check bool) "raises" true
          (match Obs.gauge name with exception Invalid_argument _ -> true | _ -> false));
    Alcotest.test_case "disabled: bumps are dropped" `Quick (fun () ->
        let c = Obs.counter (fresh "counter") in
        Obs.set_enabled false;
        Obs.incr c;
        Obs.add c 10;
        Obs.set_enabled true;
        Alcotest.(check int) "still 0" 0 (Obs.counter_value c);
        Obs.incr c;
        Alcotest.(check int) "counts again" 1 (Obs.counter_value c));
    Alcotest.test_case "reset zeroes but keeps handles live" `Quick (fun () ->
        Obs.set_enabled true;
        let c = Obs.counter (fresh "counter") in
        Obs.add c 7;
        Obs.reset ();
        Alcotest.(check int) "zeroed" 0 (Obs.counter_value c);
        Obs.incr c;
        Alcotest.(check int) "live" 1 (Obs.counter_value c));
  ]

let gauge_tests =
  [ Alcotest.test_case "set overwrites" `Quick (fun () ->
        Obs.set_enabled true;
        let g = Obs.gauge (fresh "gauge") in
        Obs.set_gauge g 5;
        Obs.set_gauge g 3;
        Alcotest.(check int) "3" 3 (Obs.gauge_value g));
    Alcotest.test_case "add_gauge accumulates deltas" `Quick (fun () ->
        Obs.set_enabled true;
        let g = Obs.gauge (fresh "gauge") in
        Obs.add_gauge g 5;
        Obs.add_gauge g (-2);
        Alcotest.(check int) "3" 3 (Obs.gauge_value g));
  ]

(* Metric bumps must be domain-safe: concurrent increments from several
   domains may not lose updates (middlebox shards on separate domains
   share these process-wide slots). *)
let concurrency_tests =
  [ Alcotest.test_case "bumps from 4 domains lose nothing" `Quick (fun () ->
        Obs.set_enabled true;
        let c = Obs.counter (fresh "mt_counter") in
        let g = Obs.gauge (fresh "mt_gauge") in
        let h = Obs.histogram (fresh "mt_hist") ~buckets:[| 10; 100 |] in
        let n_domains = 4 and iters = 50_000 in
        let work () =
          for i = 1 to iters do
            Obs.incr c;
            Obs.add_gauge g 1;
            Obs.add_gauge g (-1);
            Obs.observe h (i land 127)
          done
        in
        let ds = List.init n_domains (fun _ -> Domain.spawn work) in
        List.iter Domain.join ds;
        Alcotest.(check int) "counter exact" (n_domains * iters) (Obs.counter_value c);
        Alcotest.(check int) "gauge deltas cancel" 0 (Obs.gauge_value g);
        Alcotest.(check int) "histogram count exact" (n_domains * iters)
          (Obs.histogram_count h));
  ]

let histogram_tests =
  [ Alcotest.test_case "values land in the right buckets" `Quick (fun () ->
        Obs.set_enabled true;
        let h = Obs.histogram (fresh "hist") ~buckets:[| 10; 100 |] in
        List.iter (Obs.observe h) [ 1; 10; 11; 1000 ];
        Alcotest.(check int) "count" 4 (Obs.histogram_count h);
        Alcotest.(check int) "sum" 1022 (Obs.histogram_sum h));
    Alcotest.test_case "non-ascending buckets rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (match Obs.histogram (fresh "hist") ~buckets:[| 5; 5 |] with
           | exception Invalid_argument _ -> true
           | _ -> false));
  ]

let span_tests =
  [ Alcotest.test_case "span accumulates time and count" `Quick (fun () ->
        Obs.set_enabled true;
        let s = Obs.span (fresh "span") in
        for _ = 1 to 3 do
          Obs.span_enter s;
          ignore (Sys.opaque_identity (String.make 1024 'x') : string);
          Obs.span_exit s
        done;
        Alcotest.(check int) "3 entries" 3 (Obs.span_count s);
        Alcotest.(check bool) "time >= 0" true (Obs.span_seconds s >= 0.0);
        Alcotest.(check bool) "alloc > 0" true (Obs.span_alloc_bytes s > 0.0));
    Alcotest.test_case "exit without enter is a no-op" `Quick (fun () ->
        Obs.set_enabled true;
        let s = Obs.span (fresh "span") in
        Obs.span_exit s;
        Alcotest.(check int) "0" 0 (Obs.span_count s));
    Alcotest.test_case "time restores on raise" `Quick (fun () ->
        Obs.set_enabled true;
        let s = Obs.span (fresh "span") in
        (try Obs.time s (fun () -> failwith "boom") with Failure _ -> ());
        Alcotest.(check int) "recorded" 1 (Obs.span_count s));
    Alcotest.test_case "cross-domain enter is rejected, not corrupting" `Quick (fun () ->
        Obs.set_enabled true;
        let s = Obs.span (fresh "guarded") in
        let conflicts () =
          Obs.counter_value (Obs.counter "bbx_obs_span_conflicts_total")
        in
        let before = conflicts () in
        Obs.span_enter s;
        (* another domain fights over the open span: its enter must lose
           the owner CAS and its exit must be a no-op *)
        let d =
          Domain.spawn (fun () ->
              Obs.span_enter s;
              Obs.span_exit s)
        in
        Domain.join d;
        Obs.span_exit s;
        Alcotest.(check int) "exactly the owner's interval" 1 (Obs.span_count s);
        Alcotest.(check bool) "conflict counted" true (conflicts () > before);
        Alcotest.(check bool) "time sane" true
          (Obs.span_seconds s >= 0.0 && Obs.span_seconds s < 60.0));
    Alcotest.test_case "4 domains hammering one span never corrupt it" `Quick (fun () ->
        Obs.set_enabled true;
        let s = Obs.span (fresh "hammer") in
        let iters = 10_000 in
        let ds =
          List.init 4 (fun _ ->
              Domain.spawn (fun () ->
                  for _ = 1 to iters do
                    Obs.span_enter s;
                    Obs.span_exit s
                  done))
        in
        List.iter Domain.join ds;
        Alcotest.(check bool) "count within attempts" true
          (Obs.span_count s > 0 && Obs.span_count s <= 4 * iters);
        Alcotest.(check bool) "seconds finite and sane" true
          (Float.is_finite (Obs.span_seconds s)
           && Obs.span_seconds s >= 0.0
           && Obs.span_seconds s < 60.0));
    Alcotest.test_case "span allocation is exact" `Quick (fun () ->
        (* 1 000 conses are 24 000 B on a 64-bit host, whether or not a
           minor collection falls inside the span *)
        Obs.set_enabled true;
        let conses () = ignore (Sys.opaque_identity (List.init 1000 Fun.id) : int list) in
        let span_bytes ~collect body =
          let s = Obs.span (fresh "alloc") in
          Obs.span_enter s;
          body ();
          if collect then Gc.minor ();
          Obs.span_exit s;
          Obs.span_alloc_bytes s
        in
        let cons_bytes = float_of_int (1000 * 3 * (Sys.word_size / 8)) in
        List.iter
          (fun collect ->
             let label = if collect then "with a minor GC" else "without a GC" in
             Alcotest.(check (float 0.)) label cons_bytes
               (span_bytes ~collect conses -. span_bytes ~collect ignore))
          [ false; true ]);
  ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let exposition_tests =
  [ Alcotest.test_case "prometheus exposition carries values and types" `Quick (fun () ->
        Obs.set_enabled true;
        let name = fresh "prom" in
        let c = Obs.counter name in
        Obs.add c 17;
        let out = Obs.render_prometheus () in
        Alcotest.(check bool) "TYPE line" true (contains out ("# TYPE " ^ name ^ " counter"));
        Alcotest.(check bool) "value line" true (contains out (name ^ " 17")));
    Alcotest.test_case "labelled names render with label syntax" `Quick (fun () ->
        Obs.set_enabled true;
        let name = fresh "labelled" in
        let c = Obs.counter (Printf.sprintf {|%s{kind="x"}|} name) in
        Obs.incr c;
        let out = Obs.render_prometheus () in
        Alcotest.(check bool) "TYPE on base name" true
          (contains out ("# TYPE " ^ name ^ " counter"));
        Alcotest.(check bool) "labels kept" true
          (contains out (Printf.sprintf {|%s{kind="x"} 1|} name)));
    Alcotest.test_case "histogram renders cumulative buckets" `Quick (fun () ->
        Obs.set_enabled true;
        let name = fresh "promhist" in
        let h = Obs.histogram name ~buckets:[| 10; 100 |] in
        List.iter (Obs.observe h) [ 1; 10; 11; 1000 ];
        let out = Obs.render_prometheus () in
        Alcotest.(check bool) "le=10 cum 2" true (contains out (name ^ {|_bucket{le="10"} 2|}));
        Alcotest.(check bool) "le=100 cum 3" true (contains out (name ^ {|_bucket{le="100"} 3|}));
        Alcotest.(check bool) "+Inf cum 4" true (contains out (name ^ {|_bucket{le="+Inf"} 4|}));
        Alcotest.(check bool) "sum" true (contains out (name ^ "_sum 1022"));
        Alcotest.(check bool) "count" true (contains out (name ^ "_count 4")));
    Alcotest.test_case "jsonl has one parseable-looking line per metric" `Quick (fun () ->
        Obs.set_enabled true;
        let name = fresh "jsonl" in
        let c = Obs.counter name in
        Obs.add c 3;
        let lines = String.split_on_char '\n' (Obs.dump_jsonl ()) in
        let line = List.find (fun l -> contains l name) lines in
        Alcotest.(check bool) "object shape" true
          (contains line (Printf.sprintf {|{"metric":"%s","type":"counter","value":3}|} name)));
    Alcotest.test_case "save picks format from extension" `Quick (fun () ->
        Obs.set_enabled true;
        let c = Obs.counter (fresh "save") in
        Obs.incr c;
        let json = Filename.temp_file "obs" ".json" in
        let prom = Filename.temp_file "obs" ".prom" in
        Obs.save ~path:json;
        Obs.save ~path:prom;
        let read p = let ic = open_in p in let s = really_input_string ic (in_channel_length ic) in close_in ic; s in
        Alcotest.(check bool) "jsonl body" true (contains (read json) {|"type":"counter"|});
        Alcotest.(check bool) "prom body" true (contains (read prom) "# TYPE");
        Sys.remove json; Sys.remove prom);
  ]

(* ---------- qcheck: the expositions stay machine-parseable ----------

   Random batches of metrics (every kind, occasionally labelled) land in
   the registry; afterwards [render_prometheus] must satisfy the format's
   structural invariants and every [dump_jsonl] line must be a valid JSON
   object.  The registry is process-wide and append-only across qcheck
   iterations — which is the point: validity must hold for the whole
   accumulated registry, not a curated one. *)

(* minimal JSON validity checker: objects, arrays, strings (with the
   escapes the emitter produces), numbers, true/false/null *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t') -> incr pos; skip_ws ()
    | _ -> ()
  in
  let lit w =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then (pos := !pos + l; true)
    else false
  in
  let string_body () =
    (* opening quote consumed *)
    let rec go () =
      match peek () with
      | None -> false
      | Some '"' -> incr pos; true
      | Some '\\' ->
        incr pos;
        (match peek () with
         | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> incr pos; go ()
         | Some 'u' ->
           incr pos;
           let ok = ref true in
           for _ = 1 to 4 do
             (match peek () with
              | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> incr pos
              | _ -> ok := false)
           done;
           !ok && go ()
         | _ -> false)
      | Some c when Char.code c < 0x20 -> false
      | Some _ -> incr pos; go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    let digits () =
      let d = ref 0 in
      let rec go () =
        match peek () with
        | Some '0' .. '9' -> incr d; incr pos; go ()
        | _ -> ()
      in
      go (); !d > 0
    in
    if not (digits ()) then false
    else begin
      (if peek () = Some '.' then begin incr pos; ignore (digits () : bool) end);
      (match peek () with
       | Some ('e' | 'E') ->
         incr pos;
         (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
         ignore (digits () : bool)
       | _ -> ());
      !pos > start
    end
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> incr pos; members true
    | Some '[' -> incr pos; elements true
    | Some '"' -> incr pos; string_body ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | _ -> false
  and members first =
    skip_ws ();
    match peek () with
    | Some '}' -> incr pos; true
    | _ ->
      (if first then true
       else if peek () = Some ',' then (incr pos; skip_ws (); true)
       else false)
      && peek () = Some '"'
      && (incr pos; string_body ())
      && (skip_ws ();
          peek () = Some ':' && (incr pos; value () && members false))
  and elements first =
    skip_ws ();
    match peek () with
    | Some ']' -> incr pos; true
    | _ ->
      (if first then true
       else if peek () = Some ',' then (incr pos; true)
       else false)
      && value ()
      && elements false
  in
  value () && (skip_ws (); !pos = n)

(* structural invariants of the Prometheus text format over the whole
   exposition: line shapes, non-decreasing TYPE bases, and histogram
   family consistency for unlabelled histograms *)
let validate_prometheus out =
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  let sample_re line =
    (* name[{labels}] SP value *)
    match String.rindex_opt line ' ' with
    | None -> None
    | Some sp ->
      let name = String.sub line 0 sp in
      let v = String.sub line (sp + 1) (String.length line - sp - 1) in
      (match float_of_string_opt v with
       | Some f -> Some (name, f)
       | None -> None)
  in
  let type_bases = ref [] in
  let hist_bases = ref [] in
  let samples = ref [] in
  let shape_ok =
    List.for_all
      (fun line ->
        if String.length line > 7 && String.sub line 0 7 = "# TYPE " then begin
          match String.split_on_char ' ' line with
          | [ "#"; "TYPE"; base; kind ] ->
            type_bases := base :: !type_bases;
            if kind = "histogram" then hist_bases := base :: !hist_bases;
            List.mem kind [ "counter"; "gauge"; "histogram" ]
          | _ -> false
        end
        else
          match sample_re line with
          | Some (name, v) ->
            samples := (name, v) :: !samples;
            true
          | None -> false)
      lines
  in
  let bases = List.rev !type_bases in
  (* span metrics derive three families (_seconds_sum, _alloc_bytes_sum,
     _count) emitted at the parent metric's position in the sorted walk,
     so sortedness holds for the normalized (suffix-stripped) bases *)
  let normalize b =
    List.fold_left
      (fun b suf -> if Filename.check_suffix b suf then Filename.chop_suffix b suf else b)
      b
      [ "_seconds_sum"; "_alloc_bytes_sum"; "_count" ]
  in
  let normalized = List.map normalize bases in
  let sorted_ok = List.sort compare normalized = normalized in
  let samples = List.rev !samples in
  let find name = List.assoc_opt name samples in
  let hist_ok =
    List.for_all
      (fun base ->
        (* only unlabelled histograms are checked in depth *)
        let prefix = base ^ "_bucket{le=\"" in
        let buckets =
          List.filter_map
            (fun (name, v) ->
              if
                String.length name > String.length prefix
                && String.sub name 0 (String.length prefix) = prefix
              then
                let le =
                  String.sub name (String.length prefix)
                    (String.length name - String.length prefix - 2)
                in
                Some (le, v)
              else None)
            samples
        in
        match buckets with
        | [] -> true (* labelled family; shape already checked *)
        | _ ->
          let les = List.map fst buckets in
          let counts = List.map snd buckets in
          let finite, inf = List.partition (( <> ) "+Inf") les in
          let le_values = List.filter_map float_of_string_opt finite in
          let ascending l = List.sort compare l = l && List.length (List.sort_uniq compare l) = List.length l in
          inf = [ "+Inf" ]
          && List.length le_values = List.length finite
          && ascending le_values
          && List.sort compare counts = counts  (* cumulative *)
          && (match (find (base ^ "_count"), List.rev counts) with
              | Some c, total :: _ -> c = total
              | _ -> false)
          && find (base ^ "_sum") <> None)
      (List.rev !hist_bases)
  in
  shape_ok && sorted_ok && hist_ok

let gen_spec =
  QCheck.Gen.(
    oneof
      [ map (fun v -> `Counter v) (int_bound 1_000_000);
        map (fun v -> `Labelled v) (int_bound 1000);
        map (fun v -> `Gauge (v - 500)) (int_bound 1000);
        map (fun vs -> `Hist vs) (list_size (int_bound 20) (int_bound 100_000));
        map (fun k -> `Span k) (int_bound 3) ])

let apply_spec spec =
  match spec with
  | `Counter v -> Obs.add (Obs.counter (fresh "qc_counter")) v
  | `Labelled v ->
    Obs.add (Obs.counter (Printf.sprintf {|%s{kind="q"}|} (fresh "qc_lab"))) v
  | `Gauge v -> Obs.set_gauge (Obs.gauge (fresh "qc_gauge")) v
  | `Hist vs ->
    let h = Obs.histogram (fresh "qc_hist") ~buckets:[| 10; 100; 1000 |] in
    List.iter (Obs.observe h) vs
  | `Span k ->
    let s = Obs.span (fresh "qc_span") in
    for _ = 1 to k do
      Obs.span_enter s;
      Obs.span_exit s
    done

let qcheck_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:50
         ~name:"prometheus exposition stays structurally valid"
         QCheck.(make Gen.(list_size (int_bound 6) gen_spec))
         (fun specs ->
           Obs.set_enabled true;
           List.iter apply_spec specs;
           validate_prometheus (Obs.render_prometheus ())));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:50 ~name:"every jsonl line is a valid JSON object"
         QCheck.(make Gen.(list_size (int_bound 6) gen_spec))
         (fun specs ->
           Obs.set_enabled true;
           List.iter apply_spec specs;
           String.split_on_char '\n' (Obs.dump_jsonl ())
           |> List.for_all (fun line -> line = "" || json_valid line))) ]

let () =
  Alcotest.run "obs"
    [ ("counters", counter_tests);
      ("gauges", gauge_tests);
      ("concurrency", concurrency_tests);
      ("histograms", histogram_tests);
      ("spans", span_tests);
      ("exposition", exposition_tests);
      ("qcheck", qcheck_tests) ]
