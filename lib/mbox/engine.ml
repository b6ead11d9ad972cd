open Bbx_dpienc
open Bbx_rules
open Bbx_tokenizer
module Obs = Bbx_obs.Obs

let obs_hits = Obs.counter "bbx_engine_keyword_hits_total"
let obs_recoveries = Obs.counter "bbx_engine_key_recoveries_total"
let obs_escalations = Obs.counter "bbx_tier_escalations_total"
let obs_plain_bytes = Obs.counter "bbx_tier_plain_bytes_total"
let obs_confirms = Obs.counter "bbx_tier_regex_confirms_total"
let obs_exhausted = Obs.counter "bbx_tier_budget_exhausted_total"
let obs_flagged = Obs.counter "bbx_tier_flagged_total"
let obs_dropped = Obs.counter "bbx_tier_records_dropped_total"
let obs_evaluated = Obs.counter "bbx_engine_rules_evaluated_total"
let obs_visited = Obs.counter "bbx_engine_candidates_visited_total"

type detail = [ `Exact_hit | `Composite_match | `Regex_match | `Budget_exceeded ]

let detail_name = function
  | `Exact_hit -> "exact-hit"
  | `Composite_match -> "composite-match"
  | `Regex_match -> "regex-match"
  | `Budget_exceeded -> "budget-exceeded"

type verdict = { rule_idx : int; rule : Rule.t; detail : detail }

let via = function
  | `Exact_hit | `Composite_match -> `Exact_match
  | `Regex_match | `Budget_exceeded -> `Probable_cause

(* A budget-exceeded verdict is a flag, not a match: it never tears the
   connection down, even under a drop rule. *)
let blocks fresh =
  List.exists
    (fun v -> v.rule.Rule.action = Rule.Drop && v.detail <> `Budget_exceeded)
    fresh

type budget = { max_plain_bytes : int; max_scan_ms : int }

let default_budget = { max_plain_bytes = 1 lsl 22; max_scan_ms = 0 }

(* Per-chunk hit evidence: a growable int array of stream offsets in
   arrival order.  Arrival order is ascending on any well-formed stream,
   so membership ([content_candidates]) is a binary search; a client
   sending non-monotonic offsets merely clears [sorted] and degrades that
   chunk to a linear scan.  Replaces the previous offsets-list +
   per-offset hash-set pair (~10 words per hit) with 1 word per hit. *)
type hitvec = {
  mutable ha : int array;
  mutable hn : int;
  mutable sorted : bool;
}

let hitvec () = { ha = [||]; hn = 0; sorted = true }

(* The hit vector of every chunk that has not hit yet, shared by all
   engines on every domain and never written: [record_hit] gives a chunk
   its own vector on its first hit, so an engine over 12 045 chunks
   allocates none up front. *)
let no_hits = hitvec ()

(* [a] with [x] stored at index [n], grown when full: the growable int
   vectors of hit offsets and of the dirty queues *)
let append a n x =
  let a =
    if n < Array.length a then a
    else begin
      let grown = Array.make (max 8 (2 * n)) 0 in
      Array.blit a 0 grown 0 n;
      grown
    end
  in
  a.(n) <- x;
  a

let hitvec_push hv off =
  if hv.hn > 0 && off < hv.ha.(hv.hn - 1) then hv.sorted <- false;
  hv.ha <- append hv.ha hv.hn off;
  hv.hn <- hv.hn + 1

let hitvec_mem hv off =
  if hv.sorted then begin
    let lo = ref 0 and hi = ref hv.hn in
    while !hi - !lo > 0 do
      let mid = (!lo + !hi) / 2 in
      if hv.ha.(mid) < off then lo := mid + 1 else hi := mid
    done;
    !lo < hv.hn && hv.ha.(!lo) = off
  end
  else begin
    let found = ref false in
    for i = 0 to hv.hn - 1 do
      if hv.ha.(i) = off then found := true
    done;
    !found
  end

type config = { mode : Dpienc.mode; tier : Classify.protocol_class; budget : budget }

let default_config =
  { mode = Dpienc.Exact; tier = Classify.Protocol_III; budget = default_budget }

(* Per-rule escalation state is two byte tables indexed by rule_idx
   (previously two hashtables): [decided] holds 0 for undecided or
   [detail_byte + 1]; [gates] holds 0/1 for the sticky keyword gate. *)
let detail_byte = function
  | `Exact_hit -> 0
  | `Composite_match -> 1
  | `Regex_match -> 2
  | `Budget_exceeded -> 3

let detail_of_byte = function
  | 0 -> `Exact_hit
  | 1 -> `Composite_match
  | 2 -> `Regex_match
  | 3 -> `Budget_exceeded
  | b -> invalid_arg (Printf.sprintf "Engine: bad detail byte %d" b)

(* Identity for footprint accounting: a shard charges each ruleset and
   key material once, however many of its connections borrow it. *)
let next_id = Atomic.make 0

(* One rule generation: everything derived from the rules alone.  Never
   written after [ruleset] returns — the search loop never writes the
   automaton and [chunk_ids] is only read — so engines on any domain
   borrow it.  The Aho-Corasick prefilter covers the (lowercased) content
   patterns of decrypt-tier rules: a Protocol III rule only pays a
   [Classify.matches_plaintext] confirm once every one of its patterns
   has appeared somewhere in the recovered stream — a necessary
   condition for the full rule to match, so the filter can never
   suppress a true verdict.

   [plans] and [postings] are what makes [verdicts] cost O(new hits):
   a hit on chunk [c] can only change the rules on [postings.(c)], and
   evaluating one reads its contents' hit vectors by chunk id, never by
   re-splitting and hashing the keyword. *)
type ruleset = {
  rs_id : int;
  rules : Rule.t array;
  chunks : string array;                       (* chunk_id -> chunk bytes *)
  chunk_ids : (string, int) Hashtbl.t;         (* chunk bytes -> chunk_id *)
  classes : Classify.protocol_class array;     (* rule_idx -> class *)
  plans : int array array array;               (* rule_idx -> content -> chunk ids
                                                  and relative offsets, interleaved
                                                  [|id; rel; id; rel; ...|] *)
  postings : int array array;                  (* chunk_id -> rules with a content
                                                  on it, ascending *)
  decrypt_rules : int array;                   (* Protocol III rules, ascending *)
  rule_needs : int list array;                 (* rule_idx -> prefilter pattern
                                                  ids it must see ([] = none) *)
  ac : (Bbx_ac.Aho_corasick.t * int) option;   (* automaton, longest pattern *)
  npats : int;
}

(* One key's chunk encryptions over one ruleset:
   [encs.(i) = AES_k(ruleset.chunks.(i))].  A chunk's token key is
   expanded from its enc by the detector, each time it is needed. *)
type keys = {
  k_id : int;
  ruleset : ruleset;
  encs : string array;
}

type t = {
  config : config;
  direction : string;                          (* record-layer direction of
                                                  the inspected stream *)
  mutable keys : keys;                         (* borrowed generation *)
  mutable detect : Bbx_detect.Detect.t;
  mutable salt0 : int;                         (* current salt epoch *)
  mutable hits : hitvec array;                 (* chunk_id -> stream offsets,
                                                  [no_hits] until its first *)
  mutable hit_count : int;                     (* monotonic, survives [reset] *)
  mutable recovered : string option;
  (* --- escalation state (all of it survives [reset]: probable cause and
     everything derived from it are connection-lifetime facts) --- *)
  mutable decided : Bytes.t;                   (* rule_idx -> 0 | detail + 1 *)
  mutable gates : Bytes.t;                     (* rule_idx -> keyword gate
                                                  passed at some point *)
  mutable pending : string list;               (* sealed records, newest first,
                                                  awaiting key recovery *)
  mutable pending_est : int;                   (* estimated plaintext bytes in
                                                  [pending] *)
  mutable reader : Bbx_tls.Record.t option;    (* record-layer state, created
                                                  at recovery *)
  plain : Buffer.t;                            (* recovered plaintext so far *)
  mutable plain_cache : string option;
  mutable seen_pat : Bytes.t;                  (* prefilter pattern id -> seen
                                                  in the stream? *)
  mutable ac_scanned : int;                    (* [plain] prefix already swept *)
  mutable scan_ns : int;                       (* cumulative confirm time *)
  mutable exhausted : bool;                    (* sticky: budget blown or
                                                  record stream undecryptable *)
  (* --- dirty rules: undecided in-tier rules whose inputs changed since
     they were last evaluated; only these are evaluated by [verdicts] --- *)
  mutable dirty : Bytes.t;                     (* rule_idx -> queued in [dq] *)
  mutable dq : int array;                      (* queued rule indices, unordered *)
  mutable dn : int;                            (* [dq] entries in use *)
  mutable walked : Bytes.t;                    (* chunk_id -> every rule on its
                                                  posting list is queued, decided
                                                  or out of tier *)
  mutable wq : int array;                      (* chunks set in [walked] *)
  mutable wn : int;
}

let distinct_chunks rules =
  let seen = Hashtbl.create 256 in
  let order = ref [] in
  List.iter
    (fun r ->
       List.iter
         (fun kw ->
            List.iter
              (fun (chunk, _) ->
                 if not (Hashtbl.mem seen chunk) then begin
                   Hashtbl.add seen chunk (Hashtbl.length seen);
                   order := chunk :: !order
                 end)
              (Tokenizer.keyword_chunks kw))
         (Rule.keywords r))
    rules;
  Array.of_list (List.rev !order)

let ruleset rule_list =
  let rules = Array.of_list rule_list in
  let chunks = distinct_chunks rule_list in
  let chunk_ids = Hashtbl.create (max 16 (Array.length chunks)) in
  Array.iteri (fun i c -> Hashtbl.replace chunk_ids c i) chunks;
  let classes = Array.map Classify.classify rules in
  let pat_ids = Hashtbl.create 64 in
  let pats = ref [] in
  let id_of p =
    let p = String.lowercase_ascii p in
    match Hashtbl.find_opt pat_ids p with
    | Some id -> id
    | None ->
      let id = Hashtbl.length pat_ids in
      Hashtbl.replace pat_ids p id;
      pats := p :: !pats;
      id
  in
  let rule_needs =
    Array.mapi
      (fun i r ->
         if classes.(i) <> Classify.Protocol_III then []
         else
           List.sort_uniq compare
             (List.map (fun (c : Rule.content) -> id_of c.Rule.pattern) r.Rule.contents))
      rules
  in
  let pats = Array.of_list (List.rev !pats) in
  let plans =
    Array.map
      (fun r ->
         Array.of_list
           (List.map
              (fun (c : Rule.content) ->
                 Array.of_list
                   (List.concat_map
                      (fun (chunk, rel) -> [ Hashtbl.find chunk_ids chunk; rel ])
                      (Tokenizer.keyword_chunks c.Rule.pattern)))
              r.Rule.contents))
      rules
  in
  let postings = Array.make (Array.length chunks) [] in
  for i = Array.length rules - 1 downto 0 do
    Array.iter
      (fun plan ->
         for k = 0 to (Array.length plan / 2) - 1 do
           let c = plan.(2 * k) in
           match postings.(c) with
           | j :: _ when j = i -> ()
           | l -> postings.(c) <- i :: l
         done)
      plans.(i)
  done;
  let decrypt_rules = ref [] in
  for i = Array.length rules - 1 downto 0 do
    if classes.(i) = Classify.Protocol_III then decrypt_rules := i :: !decrypt_rules
  done;
  { rs_id = Atomic.fetch_and_add next_id 1;
    rules;
    chunks;
    chunk_ids;
    classes;
    plans;
    postings = Array.map Array.of_list postings;
    decrypt_rules = Array.of_list !decrypt_rules;
    rule_needs;
    ac =
      (if Array.length pats = 0 then None
       else
         Some
           ( Bbx_ac.Aho_corasick.build pats,
             Array.fold_left (fun m p -> max m (String.length p)) 0 pats ));
    npats = Array.length pats }

let rules_of rs = Array.to_list rs.rules

let next_rules rules ~remove_sids ~add =
  List.filter
    (fun r ->
       match r.Rule.sid with Some s -> not (List.mem s remove_sids) | None -> true)
    rules
  @ add
let chunks rs = rs.chunks

let keys_of_encs ruleset encs =
  if Array.length encs <> Array.length ruleset.chunks then
    invalid_arg "Engine.keys_of_encs: one encryption per chunk";
  Array.iter
    (fun e ->
       if String.length e <> 16 then invalid_arg "Engine.keys_of_encs: encryptions are 16 bytes")
    encs;
  { k_id = Atomic.fetch_and_add next_id 1; ruleset; encs }

let keys ruleset ~enc_chunk = keys_of_encs ruleset (Array.map enc_chunk ruleset.chunks)

let ruleset_of k = k.ruleset
let ruleset_id rs = rs.rs_id
let keys_id k = k.k_id

(* A connection's engine on [keys] around [detect], which was built on
   [keys.encs] at [salt0], with empty evidence.  [make] starts from zeroed
   counters; [restore] from a snapshot's. *)
let make_on config keys ~direction ~salt0 detect =
  let rs = keys.ruleset in
  let nrules = Array.length rs.rules in
  { config;
    direction;
    keys;
    detect;
    salt0;
    hits = Array.make (Array.length rs.chunks) no_hits;
    hit_count = 0;
    recovered = None;
    decided = Bytes.make nrules '\000';
    gates = Bytes.make nrules '\000';
    pending = [];
    pending_est = 0;
    reader = None;
    plain = Buffer.create 256;
    plain_cache = None;
    seen_pat = Bytes.make rs.npats '\000';
    ac_scanned = 0;
    scan_ns = 0;
    exhausted = false;
    dirty = Bytes.make nrules '\000';
    dq = [||];
    dn = 0;
    walked = Bytes.make (Array.length rs.chunks) '\000';
    wq = [||];
    wn = 0 }

(* [salt0] must be even in [Probable] mode ([Detect.create] checks). *)
let make config keys ~direction ~salt0 =
  make_on config keys ~direction ~salt0
    (Bbx_detect.Detect.create ~mode:config.mode ~salt0 keys.encs)

let create ?kernel:_ ~mode ~salt0 ~rules ~enc_chunk () =
  make { default_config with mode } (keys (ruleset rules) ~enc_chunk)
    ~direction:"client->server" ~salt0

let config t = t.config
let keys_of t = t.keys

(* ---------- dirty rules ----------------------------------------------- *)

(* A rule's evaluation reads the hit vectors of its contents' chunks and,
   for Protocol III, the escalation state ([recovered], the recovered
   plaintext and its prefilter bits, [exhausted]).  Whoever changes one of
   those queues the rules that read it; [verdicts] evaluates the queue
   and nothing else.  Decided and out-of-tier rules are never queued: no
   input change can alter their outcome. *)

let push t rule_idx =
  t.dq <- append t.dq t.dn rule_idx;
  t.dn <- t.dn + 1

let mark t rule_idx =
  if Bytes.get t.dirty rule_idx = '\000'
  && Bytes.get t.decided rule_idx = '\000'
  && Classify.rank t.keys.ruleset.classes.(rule_idx) <= Classify.rank t.config.tier
  then begin
    Bytes.set t.dirty rule_idx '\001';
    push t rule_idx
  end

(* the escalation state changed: every in-tier Protocol III rule *)
let mark_decrypt t =
  let d = t.keys.ruleset.decrypt_rules in
  for k = 0 to Array.length d - 1 do mark t d.(k) done

let mark_all t =
  for i = 0 to Array.length t.keys.ruleset.rules - 1 do mark t i done

let mark_exhausted t =
  if not t.exhausted then begin
    t.exhausted <- true;
    Obs.incr obs_exhausted;
    mark_decrypt t
  end

let record_hit t chunk_id offset =
  t.hit_count <- t.hit_count + 1;
  Obs.incr obs_hits;
  let hv = t.hits.(chunk_id) in
  let hv =
    if hv != no_hits then hv
    else begin
      let own = hitvec () in
      t.hits.(chunk_id) <- own;
      own
    end
  in
  hitvec_push hv offset;
  (* queued rules stay queued until [verdicts] evaluates them, so one walk
     of the posting list between two calls is enough, however often the
     chunk hits *)
  if Bytes.get t.walked chunk_id = '\000' then begin
    Bytes.set t.walked chunk_id '\001';
    t.wq <- append t.wq t.wn chunk_id;
    t.wn <- t.wn + 1;
    let post = t.keys.ruleset.postings.(chunk_id) in
    for k = 0 to Array.length post - 1 do mark t post.(k) done
  end

let handle_event t ev ~embed =
  record_hit t ev.Bbx_detect.Detect.kw_id ev.Bbx_detect.Detect.offset;
  if t.config.mode = Dpienc.Probable && t.recovered = None then begin
    match embed with
    | Some embed ->
      t.recovered <- Some (Bbx_detect.Detect.recover_key t.detect ~event:ev ~embed);
      Obs.incr obs_recoveries;
      mark_decrypt t
    | None -> ()
  end

(* Decode + detect in one pass over the wire bytes; the (rare) matching
   record's embed is the only substring materialised. *)
let process_wire t wire =
  Bbx_detect.Detect.process_stream t.detect wire ~f:(fun ev ~embed_pos ->
      let embed = if embed_pos < 0 then None else Some (String.sub wire embed_pos 16) in
      handle_event t ev ~embed)

let keyword_hits t =
  let acc = ref [] in
  for chunk_id = Array.length t.hits - 1 downto 0 do
    let hv = t.hits.(chunk_id) in
    for i = hv.hn - 1 downto 0 do
      acc := (t.keys.ruleset.chunks.(chunk_id), hv.ha.(i)) :: !acc
    done
  done;
  List.sort (fun (_, a) (_, b) -> compare a b) !acc

(* Monotonic count of keyword hits ever recorded (not reset by [reset]):
   callers track deltas across deliveries without folding the history. *)
let hit_count t = t.hit_count

let recovered_key t = t.recovered

(* ---------- Protocol III escalation: record retention + decryption ---- *)

let wants_records t =
  t.config.mode = Dpienc.Probable && Classify.rank t.config.tier >= 3

let record_stream t record =
  if wants_records t then begin
    if t.exhausted then Obs.incr obs_dropped
    else begin
      (* Conservative plaintext estimate: record minus framing/MAC and the
         1-byte frame tag.  The byte budget applies to retained-but-sealed
         records too, or a never-escalating flow would buffer unboundedly. *)
      let est = max 0 (String.length record - Bbx_tls.Record.overhead - 1) in
      if t.config.budget.max_plain_bytes > 0
      && Buffer.length t.plain + t.pending_est + est > t.config.budget.max_plain_bytes
      then begin
        (* Dropping a sealed record breaks the strict record-layer ordering
           for everything after it, so exhaustion is final. *)
        mark_exhausted t;
        Obs.incr obs_dropped
      end
      else begin
        t.pending <- record :: t.pending;
        t.pending_est <- t.pending_est + est
      end
    end
  end

let plain_str t =
  match t.plain_cache with
  | Some s -> s
  | None ->
    let s = Buffer.contents t.plain in
    t.plain_cache <- Some s;
    s

(* Sweep the not-yet-scanned suffix of [plain] through the prefilter
   automaton, with maxlen-1 bytes of overlap so matches spanning the old
   boundary are still seen (double counting is harmless: [seen_pat] is a
   bitmap). *)
let prefilter_scan t =
  match t.keys.ruleset.ac with
  | None -> ()
  | Some (ac, maxlen) ->
    let total = Buffer.length t.plain in
    if t.ac_scanned < total then begin
      let start = max 0 (t.ac_scanned - (maxlen - 1)) in
      let seg = String.lowercase_ascii (Buffer.sub t.plain start (total - start)) in
      List.iter
        (fun (pid, _) -> Bytes.set t.seen_pat pid '\001')
        (Bbx_ac.Aho_corasick.search ac seg);
      t.ac_scanned <- total
    end

let prefilter_candidate t rule_idx =
  List.for_all
    (fun id -> Bytes.get t.seen_pat id = '\001')
    t.keys.ruleset.rule_needs.(rule_idx)

(* Decrypt everything retained once [k_ssl] is recovered.  Record-layer
   decryption is strictly in-order from sequence 0, so any failure
   (tampering, a gap) makes the rest of the stream unrecoverable: degrade
   to exhausted — "flagged, not matched" — instead of raising on what may
   be a worker domain. *)
let pump t =
  if wants_records t && t.recovered <> None then begin
    if t.pending <> [] then begin
      let reader =
        match t.reader with
        | Some r -> r
        | None ->
          let key = Option.get t.recovered in
          let r =
            Bbx_tls.Record.create ~key ~direction:t.direction ()
          in
          t.reader <- Some r;
          Obs.incr obs_escalations;
          r
      in
      let batch = List.rev t.pending in
      t.pending <- [];
      t.pending_est <- 0;
      let before = Buffer.length t.plain in
      List.iter
        (fun sealed ->
           if t.exhausted then Obs.incr obs_dropped
           else
             match Bbx_tls.Record.open_ reader sealed with
             | exception _ -> mark_exhausted t
             | pt ->
               (* strip the sender's 1-byte frame tag *)
               let body =
                 if String.length pt > 0 then String.sub pt 1 (String.length pt - 1)
                 else ""
               in
               Buffer.add_string t.plain body;
               t.plain_cache <- None;
               Obs.add obs_plain_bytes (String.length body);
               if t.config.budget.max_plain_bytes > 0
               && Buffer.length t.plain > t.config.budget.max_plain_bytes
               then mark_exhausted t)
        batch;
      if Buffer.length t.plain > before then mark_decrypt t
    end;
    (* also after [update], which restarts the sweep: the prefilter bits
       always cover the whole recovered stream before a rule reads them *)
    prefilter_scan t
  end

let decrypted_stream t =
  pump t;
  if t.recovered = None || not (wants_records t) then None else Some (plain_str t)

let escalation t =
  if t.exhausted then `Exhausted
  else if t.recovered <> None then `Unlocked
  else if t.hit_count > 0 then `Gated
  else `Idle

(* Run the full-rule reference evaluation over the recovered stream,
   charging the time against the scan budget when one is configured. *)
let confirm t rule =
  Obs.incr obs_confirms;
  if t.config.budget.max_scan_ms <= 0 then Classify.matches_plaintext rule (plain_str t)
  else begin
    let t0 = Bbx_obs.Trace.now_ns () in
    let r = Classify.matches_plaintext rule (plain_str t) in
    t.scan_ns <- t.scan_ns + (Bbx_obs.Trace.now_ns () - t0);
    if t.scan_ns > t.config.budget.max_scan_ms * 1_000_000 then mark_exhausted t;
    r
  end

(* Candidate start positions for one content, from its plan
   [|id; rel; ...|]: stream offsets [q >= 0] where every chunk [id] hit
   at [q + rel].  The enumeration is anchored on the chunk with the
   fewest hits and every other chunk is a binary search in its sorted
   offset vector, so a content costs O(min hits * chunks * log hits);
   [visited] counts the anchor offsets enumerated.  Ascending and
   duplicate-free, as the plaintext reference's candidate lists are. *)
let content_candidates t plan ~visited =
  let n = Array.length plan / 2 in
  let anchor = ref 0 in
  for k = 1 to n - 1 do
    if t.hits.(plan.(2 * k)).hn < t.hits.(plan.(2 * !anchor)).hn then anchor := k
  done;
  let hv = t.hits.(plan.(2 * !anchor)) and arel = plan.((2 * !anchor) + 1) in
  visited := !visited + hv.hn;
  let starts = ref [] in
  for i = hv.hn - 1 downto 0 do
    let q = hv.ha.(i) - arel in
    let ok = ref (q >= 0) in
    let k = ref 0 in
    while !ok && !k < n do
      if !k <> !anchor then ok := hitvec_mem t.hits.(plan.(2 * !k)) (q + plan.((2 * !k) + 1));
      incr k
    done;
    if !ok then
      match !starts with
      | q' :: _ when q' = q -> ()
      | l -> starts := q :: l
  done;
  if hv.sorted then !starts else List.sort_uniq compare !starts

(* Whether a chunk of the content has never hit since the last reset: no
   candidate can exist then, and nothing needs enumerating. *)
let content_dead t plan =
  let dead = ref (Array.length plan = 0) in
  for k = 0 to (Array.length plan / 2) - 1 do
    if t.hits.(plan.(2 * k)).hn = 0 then dead := true
  done;
  !dead

(* The rule's contents against the encrypted-side evidence, with the
   plaintext reference's backtracking semantics
   ([Classify.contents_satisfiable]).  A rule is skipped outright while
   one of its contents has no candidate, so a stream that repeats one
   content of a multi-content rule costs the same on every delivery
   however long its hit history grows. *)
let satisfiable t rule_idx ~visited =
  let rs = t.keys.ruleset in
  let contents = rs.rules.(rule_idx).Rule.contents
  and plans = rs.plans.(rule_idx) in
  contents <> []
  && not (Array.exists (content_dead t) plans)
  &&
  let cands = Array.make (Array.length plans) [] in
  let rec build k =
    k = Array.length plans
    || (cands.(k) <- content_candidates t plans.(k) ~visited;
        cands.(k) <> [] && build (k + 1))
  in
  build 0
  &&
  (* contents are aligned with [plans]; physical equality finds the
     position (a content repeated by value has the same candidates) *)
  let candidates c =
    let rec find k = function
      | [] -> []
      | c' :: rest -> if c' == c then cands.(k) else find (k + 1) rest
    in
    find 0 contents
  in
  Classify.contents_satisfiable ~candidates contents

(* Evaluate one queued rule exactly as a full scan would, recording a
   decision in [decided]; returns it, if any. *)
let evaluate t rule_idx ~visited =
  let rs = t.keys.ruleset in
  let rule = rs.rules.(rule_idx) in
  let decide detail =
    Bytes.set t.decided rule_idx (Char.chr (detail_byte detail + 1));
    Some { rule_idx; rule; detail }
  in
  match rs.classes.(rule_idx) with
  | Classify.Protocol_I ->
    if satisfiable t rule_idx ~visited then decide `Exact_hit else None
  | Classify.Protocol_II ->
    if satisfiable t rule_idx ~visited then decide `Composite_match else None
  | Classify.Protocol_III ->
    (* Sticky keyword gate: the encrypted-side evidence that makes this
       rule worth escalating — its contents seen in order on the token
       stream, or (for pure-pcre rules) any probable cause on the flow. *)
    if Bytes.get t.gates rule_idx = '\000' then begin
      let gated =
        if rule.Rule.contents = [] then t.recovered <> None
        else satisfiable t rule_idx ~visited
      in
      if gated then Bytes.set t.gates rule_idx '\001'
    end;
    if t.recovered <> None && not t.exhausted
    && prefilter_candidate t rule_idx && confirm t rule
    then decide `Regex_match
    else if t.exhausted && Bytes.get t.gates rule_idx = '\001' then begin
      Obs.incr obs_flagged;
      decide `Budget_exceeded
    end
    else None

(* Evaluate the queued rules in rule order and return the decisions this
   call made.  A full scan evaluates every undecided rule in rule order on
   every call; the queue holds exactly the rules whose outcome can differ
   from their last evaluation, so the decisions are the same.  One
   ordering effect survives: when a confirm blows the scan budget
   mid-call, the rules after it see the exhausted flow in this call and
   the rules before it in the next, so the ones after it that were not
   queued are evaluated here too. *)
let verdicts t =
  pump t;
  if t.dn = 0 then []
  else begin
    let visited = ref 0 and evaluated = ref 0 and out = ref [] in
    let run rule_idx =
      if Bytes.get t.dirty rule_idx = '\001' then begin
        Bytes.set t.dirty rule_idx '\000';
        if Bytes.get t.decided rule_idx = '\000' then begin
          incr evaluated;
          Option.iter (fun v -> out := v :: !out) (evaluate t rule_idx ~visited)
        end
      end
    in
    for k = 0 to t.wn - 1 do Bytes.set t.walked t.wq.(k) '\000' done;
    t.wn <- 0;
    let take () =
      let order = Array.sub t.dq 0 t.dn in
      t.dn <- 0;
      Array.sort Int.compare order;
      order
    in
    let flip = ref (-1) in
    Array.iter
      (fun i ->
         let was = t.exhausted in
         run i;
         if t.exhausted && not was then flip := i)
      (take ());
    if !flip >= 0 then
      Array.iter (fun i -> if i > !flip then run i else push t i) (take ());
    Obs.add obs_evaluated !evaluated;
    Obs.add obs_visited !visited;
    if !flip >= 0 then
      List.sort (fun a b -> Int.compare a.rule_idx b.rule_idx) !out
    else List.rev !out
  end

let decided t =
  let acc = ref [] in
  for i = Bytes.length t.decided - 1 downto 0 do
    match Char.code (Bytes.get t.decided i) with
    | 0 -> ()
    | b ->
      acc :=
        { rule_idx = i; rule = t.keys.ruleset.rules.(i); detail = detail_of_byte (b - 1) }
        :: !acc
  done;
  !acc

(* Rule update: move onto the next generation.  Rules are matched in
   order (the retained rules of an update come first, in their old order,
   then the additions), so each retained rule carries its escalation
   state across the index shift.  Chunks are matched by value: a surviving
   keyword keeps its salt counter and hit evidence, so the sender's next
   occurrence still matches — rebuilding the detector from zeroed
   counters would miss it until the next salt reset. *)
let update t next =
  let old = t.keys.ruleset and rs = next.ruleset in
  let nrules = Array.length rs.rules in
  let remap = Array.make (Array.length old.rules) (-1) in
  let j = ref 0 in
  Array.iteri
    (fun i r ->
       if !j < nrules && (rs.rules.(!j) == r || rs.rules.(!j) = r) then begin
         remap.(i) <- !j;
         incr j
       end)
    old.rules;
  let rekey b =
    let b' = Bytes.make nrules '\000' in
    Array.iteri (fun i j -> if j >= 0 then Bytes.set b' j (Bytes.get b i)) remap;
    b'
  in
  let old_counts = Bbx_detect.Detect.salt_counts t.detect in
  let counts = Array.make (Array.length rs.chunks) 0 in
  let hits =
    Array.mapi
      (fun j c ->
         match Hashtbl.find_opt old.chunk_ids c with
         | Some i ->
           counts.(j) <- old_counts.(i);
           t.hits.(i)
         | None -> no_hits)
      rs.chunks
  in
  let detect = Bbx_detect.Detect.create ~counts ~mode:t.config.mode ~salt0:t.salt0 next.encs in
  t.keys <- next;
  t.detect <- detect;
  t.hits <- hits;
  t.decided <- rekey t.decided;
  t.gates <- rekey t.gates;
  (* pattern ids are per automaton: re-sweep the retained stream *)
  t.seen_pat <- Bytes.make rs.npats '\000';
  t.ac_scanned <- 0;
  (* rule indices moved and new rules may already be satisfied by the
     evidence carried over *)
  t.dirty <- Bytes.make nrules '\000';
  t.dn <- 0;
  t.walked <- Bytes.make (Array.length rs.chunks) '\000';
  t.wn <- 0;
  mark_all t

(* A salt reset rotates the token encryption only.  Per-chunk hit
   evidence is cleared (post-reset offsets would be incomparable with
   pre-reset ones anyway), but the escalation state deliberately
   survives: [recovered] — probable cause is a connection-lifetime fact;
   once the middlebox has lawfully recovered [k_ssl] a salt rotation does
   not un-recover it — plus everything downstream of it ([decided]
   verdicts, the sticky keyword gates, the retained/decrypted stream and
   the budget accounting) and [hit_count], the monotonic obs-visible hit
   accounting that callers delta across deliveries.  Queued rules stay
   queued: an escalation change recorded before the reset still has to
   reach them. *)
let reset t ~salt0 =
  t.salt0 <- salt0;
  Bbx_detect.Detect.reset t.detect ~salt0;
  Array.iter (fun hv -> if hv != no_hits then begin hv.hn <- 0; hv.sorted <- true end) t.hits

(* ---------- footprint accounting -------------------------------------- *)

let word = Sys.word_size / 8

(* Approximate resident bytes.  An engine charges only what is freed
   with its connection; the borrowed ruleset and key material are charged
   once to whoever holds them ([ruleset_bytes], [keys_bytes]).  String
   bytes are rounded up to whole words + 1 header word. *)
let str_bytes s = ((String.length s + word) / word + 1) * word

let ruleset_bytes rs =
  let arr n = (n + 1) * word in
  Array.fold_left (fun a c -> a + str_bytes c) 0 rs.chunks
  + Hashtbl.length rs.chunk_ids * 6 * word
  + (3 * Array.length rs.rules + 8) * word
  + Array.fold_left
      (fun a plans ->
         Array.fold_left (fun a p -> a + arr (Array.length p)) (a + arr (Array.length plans))
           plans)
      0 rs.plans
  + Array.fold_left (fun a p -> a + arr (Array.length p)) 0 rs.postings
  + arr (Array.length rs.decrypt_rules)
  + (match rs.ac with None -> 0 | Some (ac, _) -> Bbx_ac.Aho_corasick.footprint_bytes ac)

(* Exact: the record (3 fields + header), the encs array and each enc
   string. *)
let keys_bytes k =
  Array.fold_left (fun a e -> a + str_bytes e) ((4 + Array.length k.encs + 1) * word) k.encs

(* The hit vectors: the array of them, plus each vector a chunk owns
   since its first hit (record and offsets); the shared [no_hits] is
   charged to nobody. *)
let footprint_bytes t =
  let hits =
    Array.fold_left
      (fun a hv -> if hv == no_hits then a else a + (Array.length hv.ha + 4) * word)
      ((Array.length t.hits + 1) * word) t.hits
  in
  let pending = List.fold_left (fun a r -> a + str_bytes r) 0 t.pending in
  let tables =
    Bytes.length t.decided + Bytes.length t.gates + Bytes.length t.seen_pat
    + Bytes.length t.dirty + (Array.length t.dq + 1) * word
    + Bytes.length t.walked + (Array.length t.wq + 1) * word
  in
  Bbx_detect.Detect.footprint_bytes t.detect
  + hits + pending + tables
  + Buffer.length t.plain
  + (match t.recovered with None -> 0 | Some k -> str_bytes k)
  + 32 * word

(* ---------- snapshot / restore ---------------------------------------- *)

(* Binary connection snapshot (format v2), self-contained: the config,
   the rules as their text form (the same [Rule.to_string]/
   [Parser.parse_ruleset] roundtrip the daemon already relies on), one
   record per chunk of the ruleset — its encryption, salt counter and hit
   offsets — so restore needs no enc-chunk oracle, and every piece of
   escalation state — sticky decisions and gates, recovered [k_ssl],
   sealed pending records, record-layer sequence, recovered plaintext,
   prefilter progress, budget accounting — so a restored engine is
   observably identical to the original.  v1 carried a cipher-index byte
   and is rejected.  [restore] raises [Invalid_argument] on any malformed
   or inconsistent blob (callers validate front-side before handing state
   to a worker domain). *)

let snapshot_version = 2

let snapshot t =
  let b = Buffer.create 4096 in
  let c = t.config in
  Codec.put_u8 b snapshot_version;
  Codec.put_u8 b (match c.mode with Dpienc.Exact -> 0 | Dpienc.Probable -> 1);
  Codec.put_u8 b (Classify.rank c.tier);
  Codec.put_i64 b c.budget.max_plain_bytes;
  Codec.put_i64 b c.budget.max_scan_ms;
  Codec.put_str32 b t.direction;
  Codec.put_i64 b t.salt0;
  Codec.put_str32 b
    (String.concat "\n" (Array.to_list (Array.map Rule.to_string t.keys.ruleset.rules)));
  let counts = Bbx_detect.Detect.salt_counts t.detect in
  Codec.put_u32 b (Array.length t.keys.encs);
  Array.iteri
    (fun i enc ->
       Codec.put_str32 b enc;
       Codec.put_i64 b counts.(i);
       let hv = t.hits.(i) in
       Codec.put_u32 b hv.hn;
       for j = 0 to hv.hn - 1 do Codec.put_i64 b hv.ha.(j) done)
    t.keys.encs;
  Codec.put_i64 b t.hit_count;
  (match t.recovered with
   | None -> Codec.put_bool b false
   | Some k -> Codec.put_bool b true; Codec.put_str32 b k);
  Codec.put_str32 b (Bytes.to_string t.decided);
  Codec.put_str32 b (Bytes.to_string t.gates);
  let pending = List.rev t.pending in
  Codec.put_u32 b (List.length pending);
  List.iter (Codec.put_str32 b) pending;
  Codec.put_i64 b t.pending_est;
  (match t.reader with
   | None -> Codec.put_bool b false
   | Some r -> Codec.put_bool b true; Codec.put_i64 b (Bbx_tls.Record.seq r));
  Codec.put_str32 b (plain_str t);
  Codec.put_str32 b (Bytes.to_string t.seen_pat);
  Codec.put_i64 b t.ac_scanned;
  Codec.put_i64 b t.scan_ns;
  Codec.put_bool b t.exhausted;
  Buffer.contents b

let fail fmt = Printf.ksprintf invalid_arg ("Engine.restore: " ^^ fmt)

let restore blob =
  match
    let cur = Codec.cursor blob in
    let version = Codec.get_u8 cur in
    if version <> snapshot_version then fail "unknown snapshot version %d" version;
    let mode =
      match Codec.get_u8 cur with
      | 0 -> Dpienc.Exact
      | 1 -> Dpienc.Probable
      | m -> fail "bad mode %d" m
    in
    let tier =
      match Classify.of_rank (Codec.get_u8 cur) with
      | Some c -> c
      | None -> fail "bad tier"
    in
    let max_plain_bytes = Codec.get_i64 cur in
    let max_scan_ms = Codec.get_i64 cur in
    let direction = Codec.get_str32 cur in
    let salt0 = Codec.get_i64 cur in
    let rules_text = Codec.get_str32 cur in
    let rs =
      try ruleset (Parser.parse_ruleset rules_text)
      with Parser.Syntax_error msg -> fail "bad ruleset (%s)" msg
    in
    (* every counted element consumes at least [per] encoded bytes, so a
       forged count beyond the blob's remainder is rejected before the
       allocation it sizes *)
    let guard_count n per =
      if n * per > String.length blob - cur.Codec.pos then fail "count exceeds blob"
    in
    let n_chunks = Codec.get_u32 cur in
    if n_chunks <> Array.length rs.chunks then fail "chunk table size mismatch";
    guard_count n_chunks 16;
    (* explicit ascending loops: the cursor is stateful, and
       [Array.init]/[List.init] do not guarantee evaluation order *)
    let encs = Array.make n_chunks "" in
    let counts = Array.make n_chunks 0 in
    let hits = Array.make n_chunks no_hits in
    for i = 0 to n_chunks - 1 do
      let e = Codec.get_str32 cur in
      if String.length e <> 16 then fail "chunk encryption must be 16 bytes";
      encs.(i) <- e;
      counts.(i) <- Codec.get_i64 cur;
      let k = Codec.get_u32 cur in
      guard_count k 8;
      if k > 0 then begin
        let hv = { ha = Array.make k 0; hn = k; sorted = true } in
        for j = 0 to k - 1 do
          hv.ha.(j) <- Codec.get_i64 cur;
          if j > 0 && hv.ha.(j) < hv.ha.(j - 1) then hv.sorted <- false
        done;
        hits.(i) <- hv
      end
    done;
    let hit_count = Codec.get_i64 cur in
    if hit_count < 0 then fail "negative hit count";
    let recovered =
      if Codec.get_bool cur then begin
        let k = Codec.get_str32 cur in
        if String.length k <> 16 then fail "recovered key must be 16 bytes";
        if mode <> Dpienc.Probable then fail "recovered key in exact mode";
        Some k
      end
      else None
    in
    let decided = Bytes.of_string (Codec.get_str32 cur) in
    let gates = Bytes.of_string (Codec.get_str32 cur) in
    let n_rules = Array.length rs.rules in
    if Bytes.length decided <> n_rules || Bytes.length gates <> n_rules then
      fail "per-rule table size mismatch";
    Bytes.iter
      (fun c -> if Char.code c > 4 then fail "bad decided byte") decided;
    Bytes.iter
      (fun c -> if Char.code c > 1 then fail "bad gate byte") gates;
    let n_pending = Codec.get_u32 cur in
    guard_count n_pending 4;
    let pending = ref [] in
    for _ = 1 to n_pending do pending := Codec.get_str32 cur :: !pending done;
    let pending_est = Codec.get_i64 cur in
    if pending_est < 0 then fail "negative pending estimate";
    let reader_seq = if Codec.get_bool cur then Some (Codec.get_i64 cur) else None in
    (match reader_seq with
     | Some s when s < 0 -> fail "negative record sequence"
     | Some _ when recovered = None -> fail "record reader without recovered key"
     | _ -> ());
    let plain = Codec.get_str32 cur in
    let seen_pat = Codec.get_str32 cur in
    if String.length seen_pat <> rs.npats then fail "prefilter bitmap size mismatch";
    let ac_scanned = Codec.get_i64 cur in
    if ac_scanned < 0 || ac_scanned > String.length plain then
      fail "scan cursor out of range";
    let scan_ns = Codec.get_i64 cur in
    if scan_ns < 0 then fail "negative scan time";
    let exhausted = Codec.get_bool cur in
    Codec.finish cur;
    let config = { mode; tier; budget = { max_plain_bytes; max_scan_ms } } in
    (* [Detect.create] validates the salt's parity and the counts *)
    let t =
      make_on config (keys_of_encs rs encs) ~direction ~salt0
        (Bbx_detect.Detect.create ~counts ~mode ~salt0 encs)
    in
    t.hits <- hits;
    t.hit_count <- hit_count;
    t.recovered <- recovered;
    t.decided <- decided;
    t.gates <- gates;
    t.pending <- !pending;
    t.pending_est <- pending_est;
    (match reader_seq with
     | None -> ()
     | Some seq ->
       let r =
         Bbx_tls.Record.create ~key:(Option.get recovered) ~direction ()
       in
       Bbx_tls.Record.set_seq r seq;
       t.reader <- Some r);
    Buffer.add_string t.plain plain;
    t.plain_cache <- None;
    t.seen_pat <- Bytes.of_string seen_pat;
    t.ac_scanned <- ac_scanned;
    t.scan_ns <- scan_ns;
    t.exhausted <- exhausted;
    (* the queue is not part of the image: evaluating every undecided rule
       once decides exactly what a full scan would *)
    mark_all t;
    t
  with
  | t -> t
  | exception Codec.Corrupt msg -> fail "%s" msg
