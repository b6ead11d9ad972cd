(* A fixed host-speed probe.

   The test host is a 2-vCPU guest on a machine shared with other
   tenants, and its speed drifts by ±20% over minutes: in 24 runs of the
   three workloads, every time and CPU figure moved with the others, on
   every workload at once.  The probe is code of the benchmark's own,
   independent of blindbox: an ALU loop of four independent xorshift
   streams, then a dependent random walk over a 32 MiB arena (L3 and TLB
   bound).  Timed between writes of the timed phase, its median tracked
   the run-level time figures with correlations of 0.91-0.99, and
   scaling them by [nominal_ns / median] halved their run-to-run spread.
   A change to blindbox cannot change the probe's time, so the scaled
   figures still move with the program. *)

(* The probe's median on the host where the benchmark was written; the
   scaled figures read as if every run had seen that host speed. *)
let nominal_ns = 690_000.

(* one probe every this often, between writes: about 0.35% of the phase *)
let every_ns = 200_000_000

let arena = Bytes.make (32 lsl 20) '\001'

let sink = ref 0

(* One probe, ns. *)
let once () =
  let t0 = Drive.now_ns () in
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  for _ = 1 to 40_000 do
    a := !a lxor (!a lsl 13); b := !b lxor (!b lsl 13);
    c := !c lxor (!c lsl 13); d := !d lxor (!d lsl 13);
    a := !a lxor (!a lsr 7); b := !b lxor (!b lsr 7);
    c := !c lxor (!c lsr 7); d := !d lxor (!d lsr 7);
    a := !a lxor (!a lsl 17); b := !b lxor (!b lsl 17);
    c := !c lxor (!c lsl 17); d := !d lxor (!d lsl 17)
  done;
  let mask = Bytes.length arena - 1 in
  let y = ref (!a land mask) in
  for i = 1 to 1_000 do
    let v = Char.code (Bytes.unsafe_get arena !y) in
    Bytes.unsafe_set arena !y (Char.unsafe_chr ((v + i) land 0xff));
    y := ((!y * 1103515245) + 12345 + v) land mask
  done;
  sink := !a + !b + !c + !d + !y;
  Drive.now_ns () - t0
