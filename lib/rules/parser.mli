(** Parser for the Snort-dialect rule syntax produced by {!Rule.to_string}
    and used by real rulesets (content with [|hex|] escapes, per-content
    modifiers, pcre, etc.). *)

exception Syntax_error of string

(** [parse_rule line] parses one rule.  Raises {!Syntax_error}. *)
val parse_rule : string -> Rule.t

(** [decode_content s] resolves [|hex|] runs and backslash escapes in a
    content string ("Server|3a| nginx" -> "Server: nginx"). *)
val decode_content : string -> string

(** [parse_ruleset text] parses one rule per non-empty, non-comment ([#])
    line. *)
val parse_ruleset : string -> Rule.t list

(** [render_ruleset rules] — one {!Rule.to_string} per line: the text a
    daemon announces in [HELLO_OK], a client ships in [RULE_UPDATE] and a
    connection snapshot carries.  [parse_ruleset (render_ruleset rules)]
    gives back [rules]. *)
val render_ruleset : Rule.t list -> string
