type protocol_class = Protocol_I | Protocol_II | Protocol_III

let classify (r : Rule.t) =
  if r.Rule.pcre <> None then Protocol_III
  else begin
    match r.Rule.contents with
    | [ c ] when c.Rule.offset = None && c.Rule.depth = None
              && c.Rule.distance = None && c.Rule.within = None -> Protocol_I
    | _ -> Protocol_II
  end

let rank = function Protocol_I -> 1 | Protocol_II -> 2 | Protocol_III -> 3

let of_rank = function
  | 1 -> Some Protocol_I
  | 2 -> Some Protocol_II
  | 3 -> Some Protocol_III
  | _ -> None

type detail = [ `Exact_hit | `Composite_match | `Regex_match | `Budget_exceeded ]

let detail_name = function
  | `Exact_hit -> "exact-hit"
  | `Composite_match -> "composite-match"
  | `Regex_match -> "regex-match"
  | `Budget_exceeded -> "budget-exceeded"

let detail_byte = function
  | `Exact_hit -> 0
  | `Composite_match -> 1
  | `Regex_match -> 2
  | `Budget_exceeded -> 3

let detail_of_byte = function
  | 0 -> Some `Exact_hit
  | 1 -> Some `Composite_match
  | 2 -> Some `Regex_match
  | 3 -> Some `Budget_exceeded
  | _ -> None

let supported_by cls r = rank (classify r) <= rank cls

type tiers = {
  exact : (int * Rule.t) list;
  composite : (int * Rule.t) list;
  decrypt : (int * Rule.t) list;
}

(* Route a parsed ruleset into its three executable tiers, keeping each
   rule's original index (the engine's verdict [rule_idx] space). *)
let partition rules =
  let exact = ref [] and composite = ref [] and decrypt = ref [] in
  List.iteri
    (fun i r ->
       let cell =
         match classify r with
         | Protocol_I -> exact
         | Protocol_II -> composite
         | Protocol_III -> decrypt
       in
       cell := (i, r) :: !cell)
    rules;
  { exact = List.rev !exact;
    composite = List.rev !composite;
    decrypt = List.rev !decrypt }

let fractions rules =
  let n = float_of_int (max 1 (List.length rules)) in
  let count cls = float_of_int (List.length (List.filter (supported_by cls) rules)) in
  (count Protocol_I /. n, count Protocol_II /. n, count Protocol_III /. n)

let lower = String.lowercase_ascii

let keyword_match_positions ~nocase pattern payload =
  let pattern = if nocase then lower pattern else pattern in
  let payload = if nocase then lower payload else payload in
  let np = String.length pattern and nh = String.length payload in
  let hits = ref [] in
  for q = nh - np downto 0 do
    if String.sub payload q np = pattern then hits := q :: !hits
  done;
  !hits

(* Sequential content evaluation with backtracking over candidate
   positions.  [offset]/[depth] are absolute (depth measured from offset per
   Snort); [distance]/[within] are relative to the end of the previous
   match: the match must start at >= prev_end + distance and end at
   <= prev_end + distance + within when within is given.

   The candidate positions per content are supplied by the caller, so the
   same constraint semantics serve both the plaintext reference (substring
   scan) and the middlebox's encrypted-side evaluation (DPIEnc keyword
   events). *)
let contents_satisfiable ~candidates contents =
  let rec go contents prev_end =
    match contents with
    | [] -> true
    | (c : Rule.content) :: rest ->
      let len = String.length c.Rule.pattern in
      let base = prev_end in
      let dist = Option.value c.Rule.distance ~default:0 in
      let ok q =
        (match c.Rule.offset with None -> true | Some o -> q >= o)
        && (match c.Rule.depth with
            | None -> true
            | Some d -> q + len <= Option.value c.Rule.offset ~default:0 + d)
        && (match (c.Rule.distance, c.Rule.within, base) with
            | None, None, _ -> true
            | _, _, None -> true (* relative modifier on the first content: no anchor *)
            | _, w, Some pe ->
              q >= pe + dist
              && (match w with None -> true | Some w -> q + len <= pe + dist + w))
      in
      List.exists (fun q -> ok q && go rest (Some (q + len))) (candidates c)
  in
  go contents None

let matches_plaintext (r : Rule.t) payload =
  contents_satisfiable r.Rule.contents
    ~candidates:(fun c -> keyword_match_positions ~nocase:c.Rule.nocase c.Rule.pattern payload)
  && (match r.Rule.pcre with
      | None -> true
      | Some p -> Bbx_regex.Regex.matches (Bbx_regex.Regex.parse_pcre p) payload)
