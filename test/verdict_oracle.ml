(* The reference rule-level evaluator: the full scan [Engine.verdicts]
   ran before it evaluated only dirty rules, kept as the oracle.

   On every call it walks every undecided in-tier rule in rule order,
   re-splits each content with [Tokenizer.keyword_chunks], looks the
   chunks up by string in the engine's keyword hits and re-solves the
   rule with [Classify.contents_satisfiable].  It keeps its own sticky
   decision and keyword-gate tables and reads only what the engine
   exposes: keyword hits, the recovered key, the recovered stream and
   whether the flow is exhausted.  Protocol III confirmation is
   [Classify.matches_plaintext] over the recovered stream; the engine's
   Aho-Corasick prefilter is a necessary condition of it, so it has no
   counterpart here.  The byte budget exhausts a flow only before any
   rule is evaluated (in [Engine.record_stream] and in the decryption
   [Engine.verdicts] runs first), so no engine path is out of this
   oracle's scope. *)

open Bbx_rules
module Engine = Bbx_mbox.Engine

type t = {
  tier : Classify.protocol_class;
  mutable rules : Rule.t array;
  mutable decided : Engine.detail option array;
  mutable gates : bool array;
}

let create (config : Engine.config) rules =
  let n = List.length rules in
  { tier = config.Engine.tier;
    rules = Array.of_list rules;
    decided = Array.make n None;
    gates = Array.make n false }

(* The [Engine.next_rules] shape: the retained rules keep their state, in
   order, and the additions start undecided. *)
let update t ~remove_sids ~add =
  let kept = ref [] in
  Array.iteri
    (fun i r ->
       match r.Rule.sid with
       | Some s when List.mem s remove_sids -> ()
       | _ -> kept := (r, t.decided.(i), t.gates.(i)) :: !kept)
    t.rules;
  let kept = List.rev !kept in
  t.rules <- Array.of_list (List.map (fun (r, _, _) -> r) kept @ add);
  t.decided <-
    Array.of_list (List.map (fun (_, d, _) -> d) kept @ List.map (fun _ -> None) add);
  t.gates <- Array.of_list (List.map (fun (_, _, g) -> g) kept @ List.map (fun _ -> false) add)

(* Candidate start positions for a content: offsets where every one of
   its chunks hit at the right relative position. *)
let candidates_of hits =
  let by_chunk = Hashtbl.create 64 in
  List.iter (fun (chunk, off) -> Hashtbl.add by_chunk chunk off) hits;
  let hit_at chunk off = List.mem off (Hashtbl.find_all by_chunk chunk) in
  fun (c : Rule.content) ->
    match Bbx_tokenizer.Tokenizer.keyword_chunks c.Rule.pattern with
    | [] -> []
    | (first, first_rel) :: rest ->
      List.filter
        (fun q -> q >= 0 && List.for_all (fun (chunk, rel) -> hit_at chunk (q + rel)) rest)
        (List.sort_uniq compare
           (List.map (fun off -> off - first_rel) (Hashtbl.find_all by_chunk first)))

(* The decisions this call makes, as (rule_idx, detail), in rule order.
   Call it right after the engine's own [verdicts], so both see the same
   pumped escalation state. *)
let verdicts t e =
  let candidates = candidates_of (Engine.keyword_hits e) in
  let recovered = Engine.recovered_key e <> None in
  let exhausted = Engine.escalation e = `Exhausted in
  let plain = Option.value (Engine.decrypted_stream e) ~default:"" in
  let out = ref [] in
  let decide i detail =
    t.decided.(i) <- Some detail;
    out := (i, detail) :: !out
  in
  Array.iteri
    (fun i rule ->
       let cls = Classify.classify rule in
       if Classify.rank cls <= Classify.rank t.tier && t.decided.(i) = None then begin
         let satisfiable () =
           rule.Rule.contents <> []
           && Classify.contents_satisfiable ~candidates rule.Rule.contents
         in
         match cls with
         | Classify.Protocol_I -> if satisfiable () then decide i `Exact_hit
         | Classify.Protocol_II -> if satisfiable () then decide i `Composite_match
         | Classify.Protocol_III ->
           if not t.gates.(i) then
             t.gates.(i) <- (if rule.Rule.contents = [] then recovered else satisfiable ());
           if recovered && (not exhausted) && Classify.matches_plaintext rule plain then
             decide i `Regex_match
           else if exhausted && t.gates.(i) then decide i `Budget_exceeded
       end)
    t.rules;
  List.rev !out

(* Everything decided so far, as (rule_idx, detail), in rule order. *)
let decided t =
  List.filter_map Fun.id
    (Array.to_list (Array.mapi (fun i d -> Option.map (fun d -> (i, d)) d) t.decided))
