(* The repo benchmark.  Usage:

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints a human-readable report and, as the last line, one JSON object
   with the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1).  Exits non-zero, with [correct: false] and no metrics,
   if any read, scan, restart check or audit disagrees with the oracle. *)

open Perfbench_core

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit (Bench.main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))
