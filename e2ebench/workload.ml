(* Workload definitions and input generation.

   Everything in this module runs before the clock starts.  The daemon
   receives only the ruleset file and the bytes the client writes on its
   socket; the client receives only the inputs generated here. *)

module Rule = Bbx_rules.Rule
module Classify = Bbx_rules.Classify
module Datasets = Bbx_rules.Datasets
module Dpienc = Bbx_dpienc.Dpienc
module Engine = Bbx_mbox.Engine
module Drbg = Bbx_crypto.Drbg
module Page = Bbx_net.Page

type t = {
  name : string;
  why : string;                    (* one line, same text as BENCHMARK.json *)
  mode : Dpienc.mode;
  tokenization : Dpienc.tokenization;
  rules : unit -> Rule.t list;
  write_bytes : int;               (* plaintext bytes per write *)
  writes_per_conn : int;
  exact_plants : int;              (* Protocol I/II rules planted in write 0 *)
  decrypt_plant_at : int option;   (* write carrying a decrypt-tier plant *)
  setup_samples : int;             (* set-up-only connections before the clock *)
  plans : int;                     (* distinct connection plans (reused cyclically) *)
}

(* Session's salt-reset period (1 MiB): the sender resets its counter
   table and announces a SALT_RESET after this many plaintext bytes. *)
let reset_period = Blindbox.Session.default_config.Blindbox.Session.reset_period

let delimiter = Dpienc.Delimiter { short_units = false }

(* Distinct benign writes each run draws its connections' writes from;
   64 writes of 16 KiB fill one 1 MiB salt period. *)
let pool_size = 64

let all =
  [ (* Per-token work takes nearly all the time: tokenizer and DPIEnc on
       the sender, decode and Cindex probe on the shard.  Long connections
       of 16 KiB writes keep set-up, wake-ups and the 50-rule verdict scan
       small, so a change to the sender or to detect shows here. *)
    { name = "bulk-window";
      why = "per-token work dominates: window tokens, 16 KiB writes on 3 MiB \
             connections, the daemon's default 50-rule ET set, so sender \
             and detect changes show";
      mode = Dpienc.Exact;
      tokenization = Dpienc.Window;
      rules = (fun () -> Datasets.generate Datasets.Emerging_threats ~n:50);
      write_bytes = 16384;
      writes_per_conn = 192;
      exact_plants = 3;
      decrypt_plant_at = None;
      setup_samples = 40;
      plans = 64 };
    (* The mirror image of bulk-window: per-connection set-up (3k-rule
       HELLO_OK text, the 12k-chunk pair table, the shard's deferred
       engine build) and the O(rules) verdict scan on every delivery
       dominate; per-token work is small and the sender starts cold on
       every connection. *)
    { name = "ruleset-3k";
      why = "set-up and the O(rules) verdict scan dominate: 3000 ET rules, \
             short connections of 16 writes of 600 B with delimiter tokens";
      mode = Dpienc.Exact;
      tokenization = delimiter;
      rules = (fun () -> Datasets.generate Datasets.Emerging_threats ~n:3000);
      write_bytes = 600;
      writes_per_conn = 16;
      exact_plants = 2;
      decrypt_plant_at = None;
      setup_samples = 6;
      plans = 256 };
    (* The only workload that runs the k_ssl embed, record seal and open,
       key recovery and AC + regex confirmation.  The second write plants
       a decrypt-tier rule, and confirmation re-scans the growing
       recovered stream on every later delivery, so flow length (40
       writes of 8 KiB) is part of the workload. *)
    { name = "probable-escalate";
      why = "escalation dominates: Probable mode at tier 3, 8 KiB sealed \
             writes, a decrypt-tier plant in write 2 unlocks k_ssl and \
             regex confirmation over the growing stream";
      mode = Dpienc.Probable;
      tokenization = delimiter;
      rules = (fun () -> Datasets.real_shape ~n:100 ());
      write_bytes = 8192;
      writes_per_conn = 40;
      exact_plants = 0;
      decrypt_plant_at = Some 1;
      setup_samples = 40;
      plans = 160 } ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Highest protocol the daemon's engines can decide in this mode: Exact
   mode never recovers k_ssl, so Protocol III rules never confirm. *)
let supported w r =
  match w.mode with
  | Dpienc.Exact -> Classify.supported_by Classify.Protocol_II r
  | Dpienc.Probable -> true

let expected_detail r : Engine.detail =
  match Classify.classify r with
  | Classify.Protocol_I -> `Exact_hit
  | Classify.Protocol_II -> `Composite_match
  | Classify.Protocol_III -> `Regex_match

let sid r = Option.value r.Rule.sid ~default:0

(* ---------- plaintext oracle ----------

   [Classify.matches_plaintext] is the spec.  Running it for every rule
   over a multi-MiB stream is slow, so candidates are filtered first: a
   rule can only match if the lowercased first 8 bytes of each of its
   contents occur in the stream.  The filter is exact (it only drops
   rules that cannot match). *)

type oracle = {
  o_rules : Rule.t array;
  o_supported : bool array;
  o_keys : (int, unit) Hashtbl.t;          (* every content's prefix key *)
  o_rule_keys : int list option array;     (* None: always a candidate *)
}

let key_mask = (1 lsl 56) - 1

let prefix_key s =
  let k = ref 0 in
  for i = 0 to 7 do
    k := (!k lsl 7) lor (Char.code (Char.lowercase_ascii s.[i]) land 0x7f)
  done;
  !k land key_mask

let oracle w rules =
  let o_rules = Array.of_list rules in
  let o_keys = Hashtbl.create 4096 in
  let o_rule_keys =
    Array.map
      (fun r ->
         if r.Rule.contents = []
         || List.exists (fun c -> String.length c.Rule.pattern < 8) r.Rule.contents
         then None
         else
           Some
             (List.map
                (fun c ->
                   let k = prefix_key c.Rule.pattern in
                   Hashtbl.replace o_keys k ();
                   k)
                r.Rule.contents))
      o_rules
  in
  { o_rules; o_supported = Array.map (supported w) o_rules; o_keys; o_rule_keys }

let present_keys o stream =
  let found = Hashtbl.create 16 in
  let k = ref 0 in
  for i = 0 to String.length stream - 1 do
    k := ((!k lsl 7) lor (Char.code (Char.lowercase_ascii (String.unsafe_get stream i)) land 0x7f))
         land key_mask;
    if i >= 7 && Hashtbl.mem o.o_keys !k then Hashtbl.replace found !k ()
  done;
  found

(* Every start offset of [pattern] in [payload]: the candidate set
   [Classify.keyword_match_positions] computes, without its per-offset
   [String.sub] (which costs ~0.15 s per content over a 3 MiB stream). *)
let positions ~nocase pattern ~payload ~payload_lc =
  let p = if nocase then String.lowercase_ascii pattern else pattern in
  let s = if nocase then Lazy.force payload_lc else payload in
  let np = String.length p and ns = String.length s in
  let hits = ref [] in
  for q = ns - np downto 0 do
    let j = ref 0 in
    while !j < np && String.unsafe_get s (q + !j) = String.unsafe_get p !j do incr j done;
    if !j = np then hits := q :: !hits
  done;
  !hits

(* [Classify.matches_plaintext r payload], with the candidate positions
   above; plant validation checks the two agree on every run. *)
let matches r ~payload ~payload_lc =
  Classify.contents_satisfiable r.Rule.contents
    ~candidates:(fun c -> positions ~nocase:c.Rule.nocase c.Rule.pattern ~payload ~payload_lc)
  && (match r.Rule.pcre with
      | None -> true
      | Some p -> Bbx_regex.Regex.matches (Bbx_regex.Regex.parse_pcre p) payload)

let candidates o stream =
  let present = present_keys o stream in
  List.filter
    (fun i ->
       o.o_supported.(i)
       && (match o.o_rule_keys.(i) with
           | None -> true
           | Some ks -> List.for_all (Hashtbl.mem present) ks))
    (List.init (Array.length o.o_rules) Fun.id)

(* Sids of the supported rules that match [stream], ascending. *)
let expected o stream =
  let payload_lc = lazy (String.lowercase_ascii stream) in
  List.sort compare
    (List.filter_map
       (fun i ->
          let r = o.o_rules.(i) in
          if matches r ~payload:stream ~payload_lc then Some (sid r) else None)
       (candidates o stream))

(* The same set through [Classify.matches_plaintext] itself. *)
let expected_spec o stream =
  List.sort compare
    (List.filter_map
       (fun i ->
          let r = o.o_rules.(i) in
          if Classify.matches_plaintext r stream then Some (sid r) else None)
       (candidates o stream))

(* ---------- planting ----------

   Contents are laid down token-aligned (delimiter-separated) at
   positions that satisfy their offset/depth/distance/within modifiers,
   then the pcre witness for Protocol III rules — the same construction
   the tiered-inspection bench uses. *)

let add_gap buf g =
  if g <= 1 then Buffer.add_char buf ' '
  else begin
    Buffer.add_char buf ' ';
    Buffer.add_string buf (String.make (g - 2) 'z');
    Buffer.add_char buf ' '
  end

let plant_rule r =
  let buf = Buffer.create 256 in
  List.iteri
    (fun i (c : Rule.content) ->
       if i = 0 then begin
         let s = Option.value c.Rule.offset ~default:0 in
         if s > 0 then add_gap buf s
       end
       else add_gap buf (max 1 (Option.value c.Rule.distance ~default:0));
       Buffer.add_string buf c.Rule.pattern)
    r.Rule.contents;
  (match r.Rule.pcre with
   | None -> ()
   | Some p ->
     (match Datasets.pcre_witness p with
      | Some w -> Buffer.add_char buf ' '; Buffer.add_string buf w
      | None -> invalid_arg ("no witness for pcre " ^ p)));
  Buffer.add_string buf " trailingfiller";
  Buffer.contents buf

(* A rule whose first content is anchored (offset/depth) can only match
   at the very start of the stream. *)
let anchored r =
  match r.Rule.contents with
  | c :: _ -> c.Rule.offset <> None || c.Rule.depth <> None
  | [] -> false

(* ---------- inputs ---------- *)

type plan = {
  writes : string array;               (* plaintext of each write, in order *)
  planted : (int * Engine.detail * int) list;
  (* sid, the detail the daemon must report, index of the planting write *)
}

type inputs = {
  w : t;
  rules : Rule.t list;
  rules_text : string;                 (* the ruleset as HELLO_OK announces it *)
  oracle : oracle;
  plans : plan array;                  (* connection i runs plans.(i mod n) *)
}

let truncate n s = if String.length s > n then String.sub s 0 n else s

let benign w drbg =
  truncate w.write_bytes (Page.gen_html drbg ~bytes:w.write_bytes)

(* A write starting with [plant] and padded with benign markup. *)
let with_plant w drbg plant =
  truncate (max w.write_bytes (String.length plant + 1))
    (plant ^ " " ^ Page.gen_html drbg ~bytes:w.write_bytes)

let pick drbg arr = arr.(Drbg.uniform drbg (Array.length arr))

(* Draw plants until the write's oracle verdict set is exactly the
   planted set.  Delimiter tokens cannot see a keyword that starts
   mid-word, so a plant whose text also contains another rule's keyword
   inside a longer word would be an unreachable expectation; such draws
   are skipped. *)
let draw_plant w o drbg ~first ~rest ~count =
  let rec attempt n =
    if n = 0 then failwith (w.name ^ ": no valid plant found");
    let rules = List.init count (fun i -> pick drbg (if i = 0 then first else rest)) in
    let sids = List.sort_uniq compare (List.map sid rules) in
    let text = String.concat " " (List.map plant_rule rules) in
    let write = with_plant w drbg text in
    let got = expected o write in
    if got <> expected_spec o write then
      failwith (w.name ^ ": oracle disagrees with Classify.matches_plaintext");
    if List.length sids = count && got = sids then
      (write, List.map (fun r -> (sid r, expected_detail r)) rules)
    else attempt (n - 1)
  in
  attempt 64

let generate (w : t) ~seed =
  let rules = w.rules () in
  let o = oracle w rules in
  let drbg = Drbg.create (Printf.sprintf "e2ebench/%s/%d" w.name seed) in
  (* benign writes hold no rule match of their own *)
  let pool =
    Array.init pool_size (fun _ ->
        let rec fresh n =
          let s = benign w drbg in
          if expected o s = [] then s
          else if n = 0 then failwith (w.name ^ ": benign pool matches a rule")
          else fresh (n - 1)
        in
        fresh 16)
  in
  let exact_ok = Array.of_list (List.filter (fun r -> supported w r) rules) in
  let exact_free = Array.of_list (List.filter (fun r -> not (anchored r)) (Array.to_list exact_ok)) in
  let decrypt_free =
    Array.of_list
      (List.filter
         (fun r -> Classify.classify r = Classify.Protocol_III && not (anchored r))
         rules)
  in
  let plan i =
    let d = Drbg.fork drbg (Printf.sprintf "conn%d" i) in
    (* each run of [pool_size] consecutive writes is a permutation of the
       pool: no write repeats an earlier one byte for byte within a salt
       period, whose fully warm sender pass would be a second, faster
       latency mode *)
    let order = Array.init pool_size Fun.id in
    let writes =
      Array.init w.writes_per_conn (fun j ->
          let k = j mod pool_size in
          if k = 0 then
            for i = pool_size - 1 downto 1 do
              let r = Drbg.uniform d (i + 1) in
              let t = order.(i) in
              order.(i) <- order.(r);
              order.(r) <- t
            done;
          pool.(order.(k)))
    in
    let planted = ref [] in
    if w.exact_plants > 0 then begin
      let write, p =
        draw_plant w o d ~first:exact_ok ~rest:exact_free ~count:w.exact_plants
      in
      writes.(0) <- write;
      planted := List.map (fun (s, d) -> (s, d, 0)) p @ !planted
    end;
    (match w.decrypt_plant_at with
     | Some at ->
       let write, p =
         draw_plant w o d ~first:decrypt_free ~rest:decrypt_free ~count:1
       in
       writes.(at) <- write;
       planted := List.map (fun (s, d) -> (s, d, at)) p @ !planted
     | None -> ());
    { writes; planted = !planted }
  in
  { w;
    rules;
    rules_text = String.concat "\n" (List.map Rule.to_string rules);
    oracle = o;
    plans = Array.init w.plans plan }
