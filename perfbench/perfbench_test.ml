(* Determinism of the benchmark's inputs and counts.

   - A seed fixes every count exactly: messages, bytes, forces, disk
     reads, duplicates absorbed (and every other registry counter).
   - A different seed changes the generated inputs.
   - The probe assembly and the product [Kernel] give identical counts
     on the same seed, so the traced run cannot drift from the product.

   Workloads run here at reduced sizes, bounded by transaction count
   instead of time. *)

open Perfbench_core
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Transport = Untx_kernel.Transport
module Metrics = Untx_obs.Metrics

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL: %s\n%!" name
  end
  else Printf.printf "ok: %s\n%!" name

let small (w : Kwork.workload) =
  {
    w with
    spec = { w.spec with keys = 3_000; cache_pages = min w.spec.cache_pages 32; ckpt_every = 150 };
    warmup = (match w.shape with Kwork.Steady -> 300 | Kwork.Restart -> 0);
  }

(* Run a fixed amount of work and return every count the run made. *)
let counts ?(probe = false) (w : Kwork.workload) ~seed =
  let e = Kwork.setup ~probe w ~seed in
  let left = ref 600 in
  Load.run e.sys w.spec e.o e.st ~clients:w.spec.clients
    ~next:(fun () -> Load.script e.g)
    ~more:(fun () ->
      decr left;
      !left >= 0);
  ignore (Load.restart_cycle e.sys w.spec e.g e.o e.st ~batch:40);
  let s = e.sys in
  ( [
      ("committed", e.st.committed);
      ("msgs", e.st.msgs);
      ("forces", e.st.forces);
      ("locks", e.st.locks);
      ("bytes", Transport.bytes_sent s.transport);
      ("disk_reads", Sys1.disk_reads s);
      ("disk_writes", Sys1.disk_writes s);
      ("evictions", Sys1.evictions s);
      ("dups_absorbed", Dc.dup_absorbed s.dc);
      ("mismatches", e.o.m.count);
    ]
    @ Metrics.counter_snapshot s.counters,
    e.o.vals )

let scripts (w : Kwork.workload) ~seed =
  let g = Load.gen w.spec ~seed in
  List.init 50 (fun _ -> Load.script g)

let () =
  List.iter
    (fun (w : Kwork.workload) ->
      let w = small w in
      let a, va = counts w ~seed:7 in
      let b, vb = counts w ~seed:7 in
      let p, vp = counts ~probe:true w ~seed:7 in
      check (w.name ^ ": no oracle mismatch") (List.assoc "mismatches" a = 0);
      check (w.name ^ ": same seed, same counts") (a = b && va = vb);
      check (w.name ^ ": probe and Kernel agree on every count") (a = p && va = vp);
      check (w.name ^ ": counts are not trivial")
        (List.assoc "msgs" a > 0 && List.assoc "bytes" a > 0 && List.assoc "forces" a > 0);
      check (w.name ^ ": another seed, other inputs") (scripts w ~seed:7 <> scripts w ~seed:8))
    Kwork.all;
  let sb, _ = counts (small Kwork.scan_big) ~seed:7 in
  check "scan_big: reads miss the cache" (List.assoc "disk_reads" sb > 0);
  let cr, _ = counts (small Kwork.crash_restart) ~seed:7 in
  check "crash_restart: redo absorbs duplicates" (List.assoc "dups_absorbed" cr > 0);
  let front seed =
    let e = Frontwl.setup ~seed in
    Frontwl.run_n e 400;
    (e.committed, e.m.count, Metrics.counter_snapshot e.counters)
  in
  let f1 = front 7 in
  let c, mism, _ = f1 in
  check "front_repl: no oracle mismatch" (mism = 0 && c > 0);
  check "front_repl: same seed, same counts" (f1 = front 7);
  if !failures > 0 then exit 1
