(* Full IDS with probable-cause privacy (paper §5 / Protocol III).

   Regular-expression rules cannot run over encrypted tokens.  Under
   probable cause, every token additionally carries
   [Enc*(salt,t) XOR k_ssl]: if — and only if — a suspicious keyword
   matches, the middlebox reconstructs the mask, recovers the session key,
   hands the recorded stream to its ssldump element, and runs the full
   rule (pcre included) over the plaintext.  Flows that never match stay
   encrypted end-to-end.

   Run with: dune exec examples/ids_probable_cause.exe *)

open Blindbox

let sqli_rule =
  Bbx_rules.Parser.parse_rule
    "alert tcp $EXTERNAL_NET any -> $HOME_NET any (msg:\"SQL injection\"; \
     content:\"userquery\"; pcre:\"/userquery=[0-9]*('|%27)/\"; sid:9001;)"

let show_key t =
  match Session.mb_recovered_key t with
  | None -> "middlebox holds NO session key"
  | Some k -> Printf.sprintf "middlebox RECOVERED k_ssl = %s..." (Bbx_crypto.Util.to_hex (String.sub k 0 4))

let () =
  let config =
    { Session.default_config with
      Session.inspect =
        { Bbx_mbox.Engine.default_config with mode = Bbx_dpienc.Dpienc.Probable } }
  in
  print_endline "--- flow 1: benign traffic (uses the suspicious keyword innocently) ---";
  let t1, _ = Session.establish ~config ~seed:"flow-1" ~rules:[ sqli_rule ] () in
  let d = Session.send t1 "GET /search?userquery=12345 HTTP/1.1\r\n\r\n" in
  Printf.printf "verdicts: %d; %s\n" (List.length d.Session.verdicts) (show_key t1);
  print_endline "  (keyword matched -> probable cause -> stream decrypted, pcre did not confirm)\n";

  print_endline "--- flow 2: actual SQL injection ---";
  let t2, _ = Session.establish ~config ~seed:"flow-2" ~rules:[ sqli_rule ] () in
  let _ = Session.send t2 "GET /search?lang=en HTTP/1.1\r\n\r\n" in
  let d = Session.send t2 "GET /search?userquery=42'--+OR+1=1 HTTP/1.1\r\n\r\n" in
  Printf.printf "verdicts: %d; %s\n" (List.length d.Session.verdicts) (show_key t2);
  (match Session.mb_decrypted_stream t2 with
   | Some stream ->
     Printf.printf "  decrypted stream handed to the regexp stage (%d bytes, both messages)\n"
       (String.length stream)
   | None -> ());

  (* Bro-style scripts on the decrypted stream (the "scripting" half of
     Protocol III's full-IDS claim) *)
  (match Session.mb_decrypted_stream t2 with
   | Some stream ->
     List.iter
       (fun f ->
          Printf.printf "  script %-18s -> %s\n" f.Bbx_mbox.Scripts.script
            f.Bbx_mbox.Scripts.detail)
       (Bbx_mbox.Scripts.run_all Bbx_mbox.Scripts.defaults stream)
   | None -> ());

  print_endline "\n--- flow 3: entirely unsuspicious traffic ---";
  let t3, _ = Session.establish ~config ~seed:"flow-3" ~rules:[ sqli_rule ] () in
  let _ = Session.send t3 "GET /weather?city=london HTTP/1.1\r\n\r\n" in
  let _ = Session.send t3 "POST /love-letter HTTP/1.1\r\n\r\ndearest..." in
  Printf.printf "verdicts: 0; %s\n" (show_key t3);
  print_endline "  (no keyword match -> cryptographically, the middlebox cannot decrypt)"
