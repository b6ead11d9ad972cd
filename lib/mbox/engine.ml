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

type detail = [ `Exact_hit | `Composite_match | `Regex_match | `Budget_exceeded ]

let detail_name = function
  | `Exact_hit -> "exact-hit"
  | `Composite_match -> "composite-match"
  | `Regex_match -> "regex-match"
  | `Budget_exceeded -> "budget-exceeded"

type verdict = {
  rule_idx : int;
  rule : Rule.t;
  via : [ `Exact_match | `Probable_cause ];
  detail : detail;
}

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

let hitvec_push hv off =
  if hv.hn = Array.length hv.ha then begin
    let grown = Array.make (max 8 (2 * hv.hn)) 0 in
    Array.blit hv.ha 0 grown 0 hv.hn;
    hv.ha <- grown
  end;
  if hv.hn > 0 && off < hv.ha.(hv.hn - 1) then hv.sorted <- false;
  hv.ha.(hv.hn) <- off;
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

(* The Aho-Corasick prefilter over the recovered plaintext: one automaton
   for all distinct (lowercased) content patterns of decrypt-tier rules.
   A Protocol III rule only pays a [Classify.matches_plaintext] confirm
   once every one of its patterns has appeared somewhere in the stream —
   a necessary condition for the full rule to match, so the filter can
   never suppress a true verdict. *)
type prefilter = {
  ac : Bbx_ac.Aho_corasick.t;
  maxlen : int;                       (* longest pattern, for scan overlap *)
  seen_pat : Bytes.t;                 (* pattern id -> seen in stream? *)
}

(* Everything the prefilter derives from the ruleset alone: protocol
   classes, the automaton over Protocol III content patterns, and each
   rule's pattern-id needs.  Immutable after construction — the search
   loop never writes the automaton and the arrays are replaced wholesale,
   never element-written — so one prep serves a whole fleet of engines
   (the automaton's dense transition tables are ~2 KiB per trie node,
   by far the largest per-connection structure when not shared). *)
type prefilter_prep = {
  pp_nrules : int;                            (* ruleset length, for validation *)
  pp_classes : Classify.protocol_class array; (* rule_idx -> class *)
  pp_rule_needs : int list array;             (* rule_idx -> pattern ids *)
  pp_ac : (Bbx_ac.Aho_corasick.t * int) option;  (* automaton, longest pattern *)
  pp_npats : int;
}

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

type t = {
  mode : Dpienc.mode;
  index : Bbx_detect.Detect.index_backend;         (* backend for every
                                                      detect (re)build *)
  tier : Classify.protocol_class;              (* highest protocol executed *)
  budget : budget;
  direction : string;                          (* record-layer direction of
                                                  the inspected stream *)
  mutable rules : Rule.t array;
  mutable classes : Classify.protocol_class array; (* rule_idx -> class *)
  mutable chunks : string array;               (* chunk_id -> chunk bytes *)
  mutable encs : string array;                 (* chunk_id -> AES_k(chunk), kept for
                                                  tree rebuilds on rule removal *)
  chunk_ids : (string, int) Hashtbl.t;         (* chunk bytes -> chunk_id *)
  mutable detect : Bbx_detect.Detect.t;
  mutable salt0 : int;                         (* current salt epoch *)
  mutable hits : hitvec array;                 (* chunk_id -> stream offsets *)
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
  mutable prefilter : prefilter option;
  mutable pf_shared : bool;                    (* automaton borrowed from a
                                                  fleet-shared prep? *)
  mutable rule_needs : int list array;         (* rule_idx -> prefilter pattern
                                                  ids it must see ([] = none) *)
  mutable ac_scanned : int;                    (* [plain] prefix already swept *)
  mutable scan_ns : int;                       (* cumulative confirm time *)
  mutable exhausted : bool;                    (* sticky: budget blown or
                                                  record stream undecryptable *)
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

(* Compute the Protocol III prefilter prep from a rule array.  Pure:
   the result is installable into any engine running this ruleset. *)
let prepare_prefilter_arr rules =
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
  { pp_nrules = Array.length rules;
    pp_classes = classes;
    pp_rule_needs = rule_needs;
    pp_ac =
      (if Array.length pats = 0 then None
       else
         Some
           ( Bbx_ac.Aho_corasick.build pats,
             Array.fold_left (fun m p -> max m (String.length p)) 0 pats ));
    pp_npats = Array.length pats }

let prepare_prefilter rules = prepare_prefilter_arr (Array.of_list rules)

(* Install a prep into this engine.  [shared] records whether the
   automaton is borrowed (fleet-owned) or this engine's own, which only
   affects footprint accounting.  The [seen_pat] bitmap is always fresh
   per connection.  Resets the scan cursor so the next pump re-sweeps the
   whole stream against the new automaton. *)
let install_prefilter t ~shared pp =
  t.classes <- pp.pp_classes;
  t.rule_needs <- pp.pp_rule_needs;
  t.prefilter <-
    (match pp.pp_ac with
     | None -> None
     | Some (ac, maxlen) ->
       Some { ac; maxlen; seen_pat = Bytes.make pp.pp_npats '\000' });
  t.pf_shared <- shared;
  t.ac_scanned <- 0

(* (Re)build the prefilter from the current rule array (rule updates,
   restore): the engine owns the result. *)
let rebuild_prefilter t =
  install_prefilter t ~shared:false (prepare_prefilter_arr t.rules)

let create ?(index = Bbx_detect.Detect.Hash) ?(tier = Classify.Protocol_III)
    ?(budget = default_budget) ?(direction = "client->server")
    ?kernel:_ ?prepared ?keys ?prefilter ~mode ~salt0 ~rules
    ~enc_chunk () =
  let chunks, encs =
    match prepared with
    | Some (chunks, encs) ->
      (* shared prep: the caller guarantees [chunks = distinct_chunks rules]
         and [encs.(i) = enc_chunk chunks.(i)] — both arrays are borrowed
         read-only, so a fleet pays for them once, not per connection *)
      if Array.length chunks <> Array.length encs then
        invalid_arg "Engine.create: prepared chunk/enc length mismatch";
      (chunks, encs)
    | None ->
      let chunks = distinct_chunks rules in
      (chunks, Array.map enc_chunk chunks)
  in
  let chunk_ids = Hashtbl.create (max 16 (Array.length chunks)) in
  Array.iteri (fun i c -> Hashtbl.replace chunk_ids c i) chunks;
  let rules = Array.of_list rules in
  let t =
    { mode;
      index;
      tier;
      budget;
      direction;
      rules;
      classes = [||];
      chunks;
      encs;
      chunk_ids;
      detect = Bbx_detect.Detect.create ~index ?keys ~mode ~salt0 encs;
      salt0;
      hits = Array.init (Array.length chunks) (fun _ -> hitvec ());
      hit_count = 0;
      recovered = None;
      decided = Bytes.make (Array.length rules) '\000';
      gates = Bytes.make (Array.length rules) '\000';
      pending = [];
      pending_est = 0;
      reader = None;
      plain = Buffer.create 256;
      plain_cache = None;
      prefilter = None;
      pf_shared = false;
      rule_needs = [||];
      ac_scanned = 0;
      scan_ns = 0;
      exhausted = false }
  in
  (match prefilter with
   | Some pp ->
     if pp.pp_nrules <> Array.length rules then
       invalid_arg "Engine.create: shared prefilter rule count mismatch";
     install_prefilter t ~shared:true pp
   | None -> rebuild_prefilter t);
  t

let tier t = t.tier
let mode t = t.mode

let mark_exhausted t =
  if not t.exhausted then begin
    t.exhausted <- true;
    Obs.incr obs_exhausted
  end

let record_hit t chunk_id offset =
  t.hit_count <- t.hit_count + 1;
  Obs.incr obs_hits;
  hitvec_push t.hits.(chunk_id) offset

let handle_event t ev ~embed =
  record_hit t ev.Bbx_detect.Detect.kw_id ev.Bbx_detect.Detect.offset;
  if t.mode = Dpienc.Probable && t.recovered = None then begin
    match embed with
    | Some embed ->
      t.recovered <- Some (Bbx_detect.Detect.recover_key t.detect ~event:ev ~embed);
      Obs.incr obs_recoveries
    | None -> ()
  end

let process t tokens =
  List.iter
    (fun tok ->
       match Bbx_detect.Detect.process t.detect tok with
       | None -> ()
       | Some ev -> handle_event t ev ~embed:tok.Dpienc.embed)
    tokens

(* Streaming entry point: decode + detect in one pass over the wire bytes;
   the (rare) matching record's embed is the only substring materialised. *)
let process_wire t wire =
  Bbx_detect.Detect.process_stream t.detect wire ~f:(fun ev ~embed_pos ->
      let embed = if embed_pos < 0 then None else Some (String.sub wire embed_pos 16) in
      handle_event t ev ~embed)

let keyword_hits t =
  let acc = ref [] in
  for chunk_id = Array.length t.hits - 1 downto 0 do
    let hv = t.hits.(chunk_id) in
    for i = hv.hn - 1 downto 0 do
      acc := (t.chunks.(chunk_id), hv.ha.(i)) :: !acc
    done
  done;
  List.sort (fun (_, a) (_, b) -> compare a b) !acc

(* Monotonic count of keyword hits ever recorded (not reset by [reset]):
   callers track deltas across deliveries without folding the history. *)
let hit_count t = t.hit_count

let recovered_key t = t.recovered

(* ---------- Protocol III escalation: record retention + decryption ---- *)

let wants_records t =
  t.mode = Dpienc.Probable && Classify.rank t.tier >= 3

let record_stream t record =
  if wants_records t then begin
    if t.exhausted then Obs.incr obs_dropped
    else begin
      (* Conservative plaintext estimate: record minus framing/MAC and the
         1-byte frame tag.  The byte budget applies to retained-but-sealed
         records too, or a never-escalating flow would buffer unboundedly. *)
      let est = max 0 (String.length record - Bbx_tls.Record.overhead - 1) in
      if t.budget.max_plain_bytes > 0
      && Buffer.length t.plain + t.pending_est + est > t.budget.max_plain_bytes
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
  match t.prefilter with
  | None -> ()
  | Some pf ->
    let total = Buffer.length t.plain in
    if t.ac_scanned < total then begin
      let start = max 0 (t.ac_scanned - (pf.maxlen - 1)) in
      let seg = String.lowercase_ascii (Buffer.sub t.plain start (total - start)) in
      List.iter
        (fun (pid, _) -> Bytes.set pf.seen_pat pid '\001')
        (Bbx_ac.Aho_corasick.search pf.ac seg);
      t.ac_scanned <- total
    end

let prefilter_candidate t rule_idx =
  match t.rule_needs.(rule_idx) with
  | [] -> true
  | ids ->
    (match t.prefilter with
     | None -> true
     | Some pf -> List.for_all (fun id -> Bytes.get pf.seen_pat id = '\001') ids)

(* Decrypt everything retained once [k_ssl] is recovered.  Record-layer
   decryption is strictly in-order from sequence 0, so any failure
   (tampering, a gap) makes the rest of the stream unrecoverable: degrade
   to exhausted — "flagged, not matched" — instead of raising on what may
   be a worker domain. *)
let pump t =
  if wants_records t && t.recovered <> None && t.pending <> [] then begin
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
             if t.budget.max_plain_bytes > 0
             && Buffer.length t.plain > t.budget.max_plain_bytes
             then mark_exhausted t)
      batch;
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
  if t.budget.max_scan_ms <= 0 then Classify.matches_plaintext rule (plain_str t)
  else begin
    let t0 = Bbx_obs.Trace.now_ns () in
    let r = Classify.matches_plaintext rule (plain_str t) in
    t.scan_ns <- t.scan_ns + (Bbx_obs.Trace.now_ns () - t0);
    if t.scan_ns > t.budget.max_scan_ms * 1_000_000 then mark_exhausted t;
    r
  end

(* Candidate start positions for a content pattern: stream offsets where
   every one of its chunks matched at the right relative position.
   Membership tests binary-search each chunk's sorted offset vector, so a
   rule with [r] extra chunks costs O(starts * r * log hits) — no per-hit
   hash-set needed.  The chunk->id table lives on [t] (maintained by
   [create]/[add_rules]) instead of being rebuilt on every [verdicts]
   call. *)
let content_candidates t =
  let hit_vec chunk =
    match Hashtbl.find_opt t.chunk_ids chunk with
    | None -> None
    | Some id ->
      let hv = t.hits.(id) in
      if hv.hn = 0 then None else Some hv
  in
  let hit_at chunk off =
    match hit_vec chunk with
    | None -> false
    | Some hv -> hitvec_mem hv off
  in
  fun (c : Rule.content) ->
    match Tokenizer.keyword_chunks c.Rule.pattern with
    | [] -> []
    | (first_chunk, first_rel) :: rest ->
      (match hit_vec first_chunk with
       | None -> []
       | Some hv ->
         let starts = ref [] in
         for i = hv.hn - 1 downto 0 do
           starts := (hv.ha.(i) - first_rel) :: !starts
         done;
         let starts = List.sort_uniq compare !starts in
         List.filter
           (fun q ->
              q >= 0
              && List.for_all (fun (chunk, rel) -> hit_at chunk (q + rel)) rest)
           starts)

let verdicts ?plaintext t =
  pump t;
  let candidates = content_candidates t in
  let tier_rank = Classify.rank t.tier in
  let out = ref [] in
  let emit rule_idx rule detail =
    let via =
      match detail with
      | `Exact_hit | `Composite_match -> `Exact_match
      | `Regex_match | `Budget_exceeded -> `Probable_cause
    in
    out := { rule_idx; rule; via; detail } :: !out
  in
  let decide rule_idx rule detail =
    Bytes.set t.decided rule_idx (Char.chr (detail_byte detail + 1));
    emit rule_idx rule detail
  in
  Array.iteri
    (fun rule_idx rule ->
       let cls = t.classes.(rule_idx) in
       if Classify.rank cls <= tier_rank then begin
         match Char.code (Bytes.get t.decided rule_idx) with
         | b when b > 0 -> emit rule_idx rule (detail_of_byte (b - 1))
         | _ ->
           match cls with
           | Classify.Protocol_I ->
             if rule.Rule.contents <> []
             && Classify.contents_satisfiable ~candidates rule.Rule.contents
             then decide rule_idx rule `Exact_hit
           | Classify.Protocol_II ->
             if rule.Rule.contents <> []
             && Classify.contents_satisfiable ~candidates rule.Rule.contents
             then decide rule_idx rule `Composite_match
           | Classify.Protocol_III ->
             (* Sticky keyword gate: the encrypted-side evidence that makes
                this rule worth escalating — its contents seen in order on
                the token stream, or (for pure-pcre rules) any probable
                cause on the flow. *)
             if Bytes.get t.gates rule_idx = '\000' then begin
               let gated =
                 if rule.Rule.contents = [] then t.recovered <> None
                 else Classify.contents_satisfiable ~candidates rule.Rule.contents
               in
               if gated then Bytes.set t.gates rule_idx '\001'
             end;
             (match plaintext with
              | Some payload ->
                (* Legacy caller-supplied plaintext takes precedence over
                   the recovered stream. *)
                if Classify.matches_plaintext rule payload then
                  decide rule_idx rule `Regex_match
              | None ->
                if t.recovered <> None && not t.exhausted
                && prefilter_candidate t rule_idx && confirm t rule
                then decide rule_idx rule `Regex_match
                else if t.exhausted && Bytes.get t.gates rule_idx = '\001' then begin
                  Obs.incr obs_flagged;
                  decide rule_idx rule `Budget_exceeded
                end)
       end)
    t.rules;
  List.rev !out

(* Extend a byte table with zeroed slots for freshly appended rules. *)
let extend_bytes b n =
  if n <= Bytes.length b then b
  else begin
    let grown = Bytes.make n '\000' in
    Bytes.blit b 0 grown 0 (Bytes.length b);
    grown
  end

(* Rule update on a live connection: only chunks not already covered go
   through (the caller's) rule preparation. *)
let add_rules t ~rules ~enc_chunk =
  let fresh =
    Array.to_list (distinct_chunks rules)
    |> List.filter (fun c -> not (Hashtbl.mem t.chunk_ids c))
  in
  let fresh_encs =
    List.mapi
      (fun i chunk ->
         let enc = enc_chunk chunk in
         let id = Bbx_detect.Detect.add_keyword t.detect enc in
         assert (id = Array.length t.chunks + i);
         Hashtbl.replace t.chunk_ids chunk id;
         enc)
      fresh
  in
  (* one append for the whole batch, not one O(n) copy per chunk *)
  t.chunks <- Array.append t.chunks (Array.of_list fresh);
  t.encs <- Array.append t.encs (Array.of_list fresh_encs);
  t.hits <-
    Array.append t.hits
      (Array.init (List.length fresh) (fun _ -> hitvec ()));
  t.rules <- Array.append t.rules (Array.of_list rules);
  t.decided <- extend_bytes t.decided (Array.length t.rules);
  t.gates <- extend_bytes t.gates (Array.length t.rules);
  rebuild_prefilter t;
  List.length fresh

(* Removing rules shifts [verdict.rule_idx] values, so callers keeping
   per-rule state (the reported-rule bitsets) remap through the returned
   index map.  Chunks no longer needed by any retained rule leave the
   detection tree entirely — the tree is rebuilt from the kept encryptions
   under the current salt epoch, which restarts the retained keywords'
   salt counters; callers must follow with a sender-synchronised salt
   reset (Session/Fleet force one after every rule update anyway). *)
let remove_rules t ~sids =
  if sids = [] then ([], [||])
  else begin
    let drop = Hashtbl.create (List.length sids) in
    List.iter (fun s -> Hashtbl.replace drop s ()) sids;
    let keep_rule r =
      match r.Rule.sid with Some s -> not (Hashtbl.mem drop s) | None -> true
    in
    let remap = Array.make (Array.length t.rules) (-1) in
    let kept = ref [] and next = ref 0 in
    Array.iteri
      (fun i r ->
         if keep_rule r then begin
           remap.(i) <- !next;
           incr next;
           kept := r :: !kept
         end)
      t.rules;
    let kept = Array.of_list (List.rev !kept) in
    let needed = Hashtbl.create 64 in
    Array.iter (fun c -> Hashtbl.replace needed c ()) (distinct_chunks (Array.to_list kept));
    let removed = ref [] and kept_chunks = ref [] and kept_encs = ref [] in
    Array.iteri
      (fun i c ->
         if Hashtbl.mem needed c then begin
           kept_chunks := c :: !kept_chunks;
           kept_encs := t.encs.(i) :: !kept_encs
         end
         else removed := c :: !removed)
      t.chunks;
    let old_rules = Array.length t.rules in
    t.rules <- kept;
    t.chunks <- Array.of_list (List.rev !kept_chunks);
    t.encs <- Array.of_list (List.rev !kept_encs);
    Hashtbl.reset t.chunk_ids;
    Array.iteri (fun i c -> Hashtbl.replace t.chunk_ids c i) t.chunks;
    t.detect <- Bbx_detect.Detect.create ~index:t.index ~mode:t.mode ~salt0:t.salt0 t.encs;
    t.hits <- Array.init (Array.length t.chunks) (fun _ -> hitvec ());
    (* Escalation state is keyed by rule index: rewrite it through the
       remap (dropped rules lose their entries). *)
    let rekey b =
      let b' = Bytes.make (Array.length kept) '\000' in
      for i = 0 to old_rules - 1 do
        if remap.(i) >= 0 then Bytes.set b' remap.(i) (Bytes.get b i)
      done;
      b'
    in
    t.decided <- rekey t.decided;
    t.gates <- rekey t.gates;
    rebuild_prefilter t;
    (List.rev !removed, remap)
  end

(* Swap in a shared prep after a rule update (the update itself rebuilt
   an engine-owned one).  The sweep restart install_prefilter forces is
   harmless here: every caller follows a rule update with a salt reset,
   and [seen_pat] evidence is re-derived from the retained stream. *)
let set_prefilter t pp =
  if pp.pp_nrules <> Array.length t.rules then
    invalid_arg "Engine.set_prefilter: shared prefilter rule count mismatch";
  install_prefilter t ~shared:true pp

(* A salt reset rotates the token encryption only.  Per-chunk hit
   evidence is cleared (post-reset offsets would be incomparable with
   pre-reset ones anyway), but the escalation state deliberately
   survives: [recovered] — probable cause is a connection-lifetime fact;
   once the middlebox has lawfully recovered [k_ssl] a salt rotation does
   not un-recover it — plus everything downstream of it ([decided]
   verdicts, the sticky keyword gates, the retained/decrypted stream and
   the budget accounting) and [hit_count], the monotonic obs-visible hit
   accounting that callers delta across deliveries. *)
let reset t ~salt0 =
  t.salt0 <- salt0;
  Bbx_detect.Detect.reset t.detect ~salt0;
  Array.iter (fun hv -> hv.hn <- 0; hv.sorted <- true) t.hits

let chunk_count t = Bbx_detect.Detect.size t.detect

(* ---------- footprint accounting -------------------------------------- *)

let word = Sys.word_size / 8

(* Approximate resident bytes of this connection's engine state.  Shared,
   per-(tenant, generation) structures — a borrowed [?prepared] chunk/enc
   pair, a shared detect keyset — are charged to their owner; everything
   reported here is freed when the connection is removed.  String bytes
   are rounded up to whole words + 1 header word. *)
let str_bytes s = ((String.length s + word) / word + 1) * word

let footprint_bytes t =
  let hits =
    Array.fold_left (fun a hv -> a + (Array.length hv.ha + 4) * word) 0 t.hits
  in
  let pending = List.fold_left (fun a r -> a + str_bytes r) 0 t.pending in
  let tables =
    Bytes.length t.decided + Bytes.length t.gates
    + (Array.length t.classes + Array.length t.rule_needs + 2) * word
  in
  let chunk_ids = Hashtbl.length t.chunk_ids * 6 * word in
  Bbx_detect.Detect.footprint_bytes t.detect
  + hits + pending + tables + chunk_ids
  + Buffer.length t.plain
  + (match t.recovered with None -> 0 | Some k -> str_bytes k)
  + (match t.prefilter with
     | None -> 0
     | Some pf ->
       Bytes.length pf.seen_pat
       (* a borrowed automaton is charged to the fleet that owns it *)
       + (if t.pf_shared then 0 else Bbx_ac.Aho_corasick.footprint_bytes pf.ac))
  + 32 * word

(* ---------- snapshot / restore ---------------------------------------- *)

(* Binary connection snapshot (format v1), self-contained: rules travel as
   their text form (the same [Rule.to_string]/[Parser.parse_ruleset]
   roundtrip the daemon already relies on), chunks and their encryptions
   travel verbatim so restore needs no enc-chunk oracle, and every piece
   of escalation state — salt counters, hit evidence, sticky decisions and
   gates, recovered [k_ssl], sealed pending records, record-layer
   sequence, recovered plaintext, prefilter progress, budget accounting —
   is carried so a restored engine is observably identical to the
   original.  [restore] raises [Invalid_argument] on any malformed or
   inconsistent blob (callers validate front-side before handing state to
   a worker domain). *)

let snapshot_version = 1

let snapshot t =
  let b = Buffer.create 4096 in
  Codec.put_u8 b snapshot_version;
  Codec.put_u8 b (match t.mode with Dpienc.Exact -> 0 | Dpienc.Probable -> 1);
  Codec.put_u8 b (match t.index with Bbx_detect.Detect.Hash -> 0 | Bbx_detect.Detect.Avl -> 1);
  Codec.put_u8 b (Classify.rank t.tier);
  Codec.put_i64 b t.budget.max_plain_bytes;
  Codec.put_i64 b t.budget.max_scan_ms;
  Codec.put_str32 b t.direction;
  Codec.put_i64 b t.salt0;
  Codec.put_str32 b
    (String.concat "\n" (Array.to_list (Array.map Rule.to_string t.rules)));
  Codec.put_u32 b (Array.length t.chunks);
  Array.iteri
    (fun i c ->
       Codec.put_str32 b c;
       Codec.put_str32 b t.encs.(i))
    t.chunks;
  let counts = Bbx_detect.Detect.salt_counts t.detect in
  Codec.put_u32 b (Array.length counts);
  Array.iter (Codec.put_i64 b) counts;
  Codec.put_u32 b (Array.length t.hits);
  Array.iter
    (fun hv ->
       Codec.put_u32 b hv.hn;
       for i = 0 to hv.hn - 1 do Codec.put_i64 b hv.ha.(i) done)
    t.hits;
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
  (match t.prefilter with
   | None -> Codec.put_bool b false
   | Some pf -> Codec.put_bool b true; Codec.put_str32 b (Bytes.to_string pf.seen_pat));
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
    let index =
      match Codec.get_u8 cur with
      | 0 -> Bbx_detect.Detect.Hash
      | 1 -> Bbx_detect.Detect.Avl
      | i -> fail "bad index backend %d" i
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
    let rules =
      try Parser.parse_ruleset rules_text
      with Parser.Syntax_error msg -> fail "bad ruleset (%s)" msg
    in
    (* every counted element consumes at least [per] encoded bytes, so a
       forged count beyond the blob's remainder is rejected before the
       allocation it sizes *)
    let guard_count n per =
      if n * per > String.length blob - cur.Codec.pos then fail "count exceeds blob"
    in
    let n_chunks = Codec.get_u32 cur in
    guard_count n_chunks 8;
    let chunks = Array.make n_chunks "" in
    let encs = Array.make n_chunks "" in
    for i = 0 to n_chunks - 1 do
      chunks.(i) <- Codec.get_str32 cur;
      let e = Codec.get_str32 cur in
      if String.length e <> 16 then fail "chunk encryption must be 16 bytes";
      encs.(i) <- e
    done;
    let n_counts = Codec.get_u32 cur in
    if n_counts <> n_chunks then fail "salt count table size mismatch";
    (* explicit ascending loops: the cursor is stateful, and
       [Array.init]/[List.init] do not guarantee evaluation order *)
    guard_count n_counts 8;
    let counts = Array.make n_counts 0 in
    for i = 0 to n_counts - 1 do counts.(i) <- Codec.get_i64 cur done;
    let n_hits = Codec.get_u32 cur in
    if n_hits <> n_chunks then fail "hit table size mismatch";
    let hits = Array.make n_hits (hitvec ()) in
    for i = 0 to n_hits - 1 do
      let k = Codec.get_u32 cur in
      guard_count k 8;
      let hv = { ha = Array.make k 0; hn = k; sorted = true } in
      for j = 0 to k - 1 do
        hv.ha.(j) <- Codec.get_i64 cur;
        if j > 0 && hv.ha.(j) < hv.ha.(j - 1) then hv.sorted <- false
      done;
      hits.(i) <- hv
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
    let n_rules = List.length rules in
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
    let pending = List.rev !pending in
    let pending_est = Codec.get_i64 cur in
    if pending_est < 0 then fail "negative pending estimate";
    let reader_seq = if Codec.get_bool cur then Some (Codec.get_i64 cur) else None in
    (match reader_seq with
     | Some s when s < 0 -> fail "negative record sequence"
     | Some _ when recovered = None -> fail "record reader without recovered key"
     | _ -> ());
    let plain = Codec.get_str32 cur in
    let seen_pat = if Codec.get_bool cur then Some (Codec.get_str32 cur) else None in
    let ac_scanned = Codec.get_i64 cur in
    if ac_scanned < 0 || ac_scanned > String.length plain then
      fail "scan cursor out of range";
    let scan_ns = Codec.get_i64 cur in
    if scan_ns < 0 then fail "negative scan time";
    let exhausted = Codec.get_bool cur in
    Codec.finish cur;
    let budget = { max_plain_bytes; max_scan_ms } in
    let t =
      create ~index ~tier ~budget ~direction ~prepared:(chunks, encs)
        ~mode ~salt0:(if mode = Dpienc.Probable then salt0 land lnot 1 else salt0)
        ~rules ~enc_chunk:(fun _ -> assert false) ()
    in
    (* [create] built the detector at a parity-safe salt; now install the
       real per-connection counters (validates parity and table size). *)
    Bbx_detect.Detect.restore_counts t.detect ~salt0 counts;
    t.salt0 <- salt0;
    t.hits <- hits;
    t.hit_count <- hit_count;
    t.recovered <- recovered;
    t.decided <- decided;
    t.gates <- gates;
    t.pending <- List.rev pending;
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
    (match seen_pat, t.prefilter with
     | Some sp, Some pf ->
       if String.length sp <> Bytes.length pf.seen_pat then
         fail "prefilter bitmap size mismatch";
       Bytes.blit_string sp 0 pf.seen_pat 0 (String.length sp)
     | Some _, None -> fail "prefilter bitmap without prefilter rules"
     | None, _ -> ());
    t.ac_scanned <- min ac_scanned (Buffer.length t.plain);
    t.scan_ns <- scan_ns;
    t.exhausted <- exhausted;
    t
  with
  | t -> t
  | exception Codec.Corrupt msg -> fail "%s" msg
