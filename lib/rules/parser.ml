exception Syntax_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Syntax_error s)) fmt

(* Decode a Snort content string: |3A 4F| hex runs and backslash escapes. *)
let decode_content s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then begin
      match s.[i] with
      | '|' ->
        (* hex run until the next '|' *)
        let close =
          match String.index_from_opt s (i + 1) '|' with
          | Some j -> j
          | None -> fail "unterminated |hex| escape in content"
        in
        let hex = String.sub s (i + 1) (close - i - 1) in
        let digits = String.concat "" (String.split_on_char ' ' hex) in
        if String.length digits mod 2 <> 0 then fail "odd hex run %S" hex;
        String.iteri
          (fun k _ ->
             if k mod 2 = 0 then begin
               let d c =
                 match c with
                 | '0' .. '9' -> Char.code c - Char.code '0'
                 | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
                 | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
                 | _ -> fail "bad hex digit %c" c
               in
               Buffer.add_char buf (Char.chr ((d digits.[k] lsl 4) lor d digits.[k + 1]))
             end)
          digits;
        go (close + 1)
      | '\\' when i + 1 < n ->
        Buffer.add_char buf s.[i + 1];
        go (i + 2)
      | c ->
        Buffer.add_char buf c;
        go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

(* Split the option body on ';' outside double quotes. *)
let split_options body =
  let opts = ref [] in
  let buf = Buffer.create 64 in
  let in_quotes = ref false in
  let flush () =
    let s = String.trim (Buffer.contents buf) in
    Buffer.clear buf;
    if s <> "" then opts := s :: !opts
  in
  String.iteri
    (fun i c ->
       match c with
       | '"' when i = 0 || body.[i - 1] <> '\\' ->
         in_quotes := not !in_quotes;
         Buffer.add_char buf c
       | ';' when not !in_quotes -> flush ()
       | c -> Buffer.add_char buf c)
    body;
  flush ();
  List.rev !opts

let unquote s =
  let s = String.trim s in
  if String.length s >= 2 && s.[0] = '"' && s.[String.length s - 1] = '"' then
    String.sub s 1 (String.length s - 2)
  else fail "expected quoted value, got %S" s

let parse_int_opt name v =
  match int_of_string_opt (String.trim v) with
  | Some i -> i
  | None -> fail "option %s expects an integer, got %S" name v

let parse_rule line =
  let line = String.trim line in
  let open_paren =
    match String.index_opt line '(' with
    | Some i -> i
    | None -> fail "missing '(' in rule"
  in
  if line.[String.length line - 1] <> ')' then fail "missing ')' at end of rule";
  let header = String.trim (String.sub line 0 open_paren) in
  let body = String.sub line (open_paren + 1) (String.length line - open_paren - 2) in
  let fields =
    List.filter (fun s -> s <> "") (String.split_on_char ' ' header)
  in
  let action, proto, src_net, src_port, dir, dst_net, dst_port =
    match fields with
    | [ a; p; sn; sp; d; dn; dp ] -> (a, p, sn, sp, d, dn, dp)
    | _ -> fail "header must have 7 fields, got %d" (List.length fields)
  in
  let action =
    match action with
    | "alert" -> Rule.Alert | "drop" -> Rule.Drop | "pass" -> Rule.Pass | "log" -> Rule.Log
    | a -> fail "unknown action %S" a
  in
  let proto =
    match proto with
    | "tcp" -> Rule.Tcp | "udp" -> Rule.Udp | "icmp" -> Rule.Icmp | "ip" -> Rule.Ip
    | p -> fail "unknown protocol %S" p
  in
  let direction =
    match dir with
    | "->" -> Rule.To_dst
    | "<>" -> Rule.Bidirectional
    | d -> fail "unknown direction %S" d
  in
  (* Options: per-content modifiers attach to the most recent content. *)
  let msg = ref None and pcre = ref None and flow = ref None in
  let sid = ref None and rev = ref None in
  let contents = ref [] in
  let with_last f =
    match !contents with
    | [] -> fail "content modifier before any content"
    | c :: rest -> contents := f c :: rest
  in
  List.iter
    (fun opt ->
       let name, value =
         match String.index_opt opt ':' with
         | Some i ->
           (String.trim (String.sub opt 0 i),
            Some (String.sub opt (i + 1) (String.length opt - i - 1)))
         | None -> (String.trim opt, None)
       in
       match (name, value) with
       | "msg", Some v -> msg := Some (unquote v)
       | "content", Some v -> contents := Rule.make_content (decode_content (unquote v)) :: !contents
       | "nocase", None -> with_last (fun c -> { c with Rule.nocase = true })
       | "offset", Some v -> with_last (fun c -> { c with Rule.offset = Some (parse_int_opt "offset" v) })
       | "depth", Some v -> with_last (fun c -> { c with Rule.depth = Some (parse_int_opt "depth" v) })
       | "distance", Some v -> with_last (fun c -> { c with Rule.distance = Some (parse_int_opt "distance" v) })
       | "within", Some v -> with_last (fun c -> { c with Rule.within = Some (parse_int_opt "within" v) })
       | "pcre", Some v -> pcre := Some (unquote v)
       | "flow", Some v -> flow := Some (String.trim v)
       | "sid", Some v -> sid := Some (parse_int_opt "sid" v)
       | "rev", Some v -> rev := Some (parse_int_opt "rev" v)
       | _ -> () (* classtype, reference, metadata, ... carried semantically nowhere *))
    (split_options body);
  { Rule.action; proto;
    src = { Rule.net = src_net; port = src_port };
    dst = { Rule.net = dst_net; port = dst_port };
    direction;
    msg = !msg;
    contents = List.rev !contents;
    pcre = !pcre;
    flow = !flow;
    sid = !sid;
    rev = !rev }

let parse_ruleset text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then None else Some (parse_rule line))

let render_ruleset rules = String.concat "\n" (List.map Rule.to_string rules)
