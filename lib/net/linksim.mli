(** Link and page-load simulation for Figs. 3-4.

    A download is modelled as a pipeline: the sender's CPU produces
    encrypted bytes while the link drains them, so

    {v load_time = rtt + max(cpu_seconds, wire_bytes / bandwidth) v}

    — the 20 Mbps "typical client" link is network-bound (token overhead
    shows up as wire bytes), while at 1 Gbps the sender's encryption CPU
    becomes the bottleneck (the paper's 16x worst case, §7.2.2).

    Per-byte CPU costs are *measured* by the benches on the real
    implementation and passed in as a {!cost_model}; this module only does
    the arithmetic. *)

type link = {
  bandwidth_bps : float;
  rtt_s : float;
}

(** The paper's two testbeds, with bandwidth at the same 1/10 scale as
    {!Corpus} page weights. *)
val broadband : link  (* 20 Mbps x 10 ms, scaled *)
val gigabit : link    (* 1 Gbps x 10 ms, scaled *)

type cost_model = {
  tls_cpu_per_byte : float;
  (** seconds/byte: plain SSL record encryption *)
  bb_text_cpu_per_byte : float;
  (** seconds/byte of text: SSL + tokenize + DPIEnc *)
  token_wire_per_text_byte : float;
  (** extra wire bytes per text byte (5-byte ciphertexts x token density) *)
}

type scheme = Tls | Blindbox

(** [page_load link model scheme ~text_bytes ~binary_bytes] in seconds. *)
val page_load :
  link -> cost_model -> scheme -> text_bytes:int -> binary_bytes:int -> float
