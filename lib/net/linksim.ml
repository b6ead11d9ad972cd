type link = { bandwidth_bps : float; rtt_s : float }

(* Broadband is scaled 1/10 to match Corpus page weights (preserving every
   transfer-time ratio).  The gigabit link stays at full rate: its role in
   Fig. 4 is to model the regime where the network is never the bottleneck
   and the sender's encryption CPU is, and scaling it down would
   re-introduce a network bottleneck that the paper's testbed didn't have. *)
let broadband = { bandwidth_bps = 2.0e6; rtt_s = 0.010 }
let gigabit = { bandwidth_bps = 1.0e9; rtt_s = 0.010 }

type cost_model = {
  tls_cpu_per_byte : float;
  bb_text_cpu_per_byte : float;
  token_wire_per_text_byte : float;
}

type scheme = Tls | Blindbox

let page_load link model scheme ~text_bytes ~binary_bytes =
  let text = float_of_int text_bytes and binary = float_of_int binary_bytes in
  let cpu, wire =
    match scheme with
    | Tls ->
      ((text +. binary) *. model.tls_cpu_per_byte, text +. binary)
    | Blindbox ->
      (* binary objects are not tokenized (paper §3): they cost plain TLS *)
      ( (text *. model.bb_text_cpu_per_byte) +. (binary *. model.tls_cpu_per_byte),
        text +. binary +. (text *. model.token_wire_per_text_byte) )
  in
  link.rtt_s +. Float.max cpu (wire *. 8.0 /. link.bandwidth_bps)
