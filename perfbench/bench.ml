(* Run one workload and report it: end-to-end metrics with tracing off,
   or per-layer metrics from a traced run. *)

module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Wire = Untx_msg.Wire
module Transport = Untx_kernel.Transport
module Metrics = Untx_obs.Metrics
module Deploy = Untx_cloud.Deploy
open Report

let us ns = ns /. 1e3

let per a b = if b = 0 then 0. else float a /. float b

let out_dir = "perfbench/out"

(* Set-up time is the median of [setups_before] set-ups before the timed
   phase (the last one is measured) and [setups_after] after it, so a
   slow spell of the host at one end of the run does not decide it.
   Each set-up starts from a compacted heap, so none pays for collecting
   the one before it. *)
let setups_before = 2

let setups_after = 2

let timed_setup f =
  Gc.compact ();
  let t0 = Spans.now_ns () in
  let e = f () in
  (e, float (Spans.now_ns () - t0) /. 1e9)

let setup_before f =
  let rec go i times =
    let e, t = timed_setup f in
    if i = 1 then (e, t :: times) else go (i - 1) (t :: times)
  in
  go setups_before []

(* Called once the measured assembly is unreachable, so its heap does not
   slow these set-ups down. *)
let setup_s ~before f =
  median_f (before @ List.init setups_after (fun _ -> snd (timed_setup f)))

let elapsed_s t0 = float (Spans.now_ns () - t0) /. 1e9

(* Run [f] until [seconds] have passed, and at least [n] times. *)
let repeat_for ~seconds ~n f =
  let t0 = Spans.now_ns () in
  let rec go i acc =
    if i >= n && elapsed_s t0 >= seconds then List.rev acc
    else
      let r = f () in
      go (i + 1) (r :: acc)
  in
  go 0 []

(* The timed phase: slices of the workload, restart times in ns as (DC,
   TC) pairs, the peak heap, and what the restart checks found. *)
type phase = {
  slices : slice list;
  restarts : (int * int) list;
  heap_mb : float;
  restart_problems : string list;
}

let min_cycles = 5

(* Restart cycles, for [seconds] and at least one, after an untimed one
   (the first cycle is several times slower than later ones), run in a
   forked copy of the process, so the measured assembly keeps its state:
   a restart resets volatile state ([Dc.crash] empties the cache, the
   per-page states and the request memo), after which the same workload
   runs faster — 1.4x on point_rw, 5x on scan_big — so no slice may
   follow one.  The parent waits for the child.  [problems ()] is what
   the child's checks found; the child returns it with the restart
   times. *)
let forked_restarts ~seconds ~cycle ~problems =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let r : ((int * int) list * string list, string) result =
      try
        ignore (cycle ());
        let l = repeat_for ~seconds ~n:1 cycle in
        Ok (l, problems ())
      with exn -> Error (Printexc.to_string exn)
    in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc r [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r : ((int * int) list * string list, string) result =
      try Marshal.from_channel ic with End_of_file | Failure _ -> Error "no answer"
    in
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    match (r, status) with
    | Ok (l, p), Unix.WEXITED 0 -> (l, p)
    | Error msg, _ -> ([], [ "restart cycles: " ^ msg ])
    | Ok _, _ -> ([], [ "restart cycles: child process did not exit cleanly" ])

(* A steady workload's timed phase runs in rounds: [round_slices]
   slices, then [round_restart_s] of forked restart cycles.  Rounds
   spread both kinds of measurement over the whole run, so a slow spell
   of the host falls on slices and restarts alike.

   The peak heap is read once [heap_after] transactions have committed
   in the timed phase, not at its end: the product's live heap grows
   with every transaction, so a heap read at a fixed time would grow
   with throughput.  The forked children's heaps are not counted. *)
let round_slices = 6

let round_restart_s = 1.0

let steady_phase ~seconds ~committed ~heap_after ~slice ~cycle ~problems =
  let heap_mb = ref None in
  let slices = ref [] and restarts = ref [] and restart_problems = ref [] in
  let t0 = Spans.now_ns () in
  while elapsed_s t0 < seconds || List.length !restarts < min_cycles do
    for _ = 1 to round_slices do
      slices := slice () :: !slices;
      if !heap_mb = None && committed () >= heap_after then heap_mb := Some (peak_heap_mb ())
    done;
    let l, p = forked_restarts ~seconds:round_restart_s ~cycle ~problems in
    restarts := List.rev_append l !restarts;
    restart_problems := p @ !restart_problems
  done;
  let heap_mb =
    match !heap_mb with
    | Some h -> h
    | None ->
      Printf.printf "  note: only %d of %d transactions committed; heap read at the end\n"
        (committed ()) heap_after;
      peak_heap_mb ()
  in
  {
    slices = List.rev !slices;
    restarts = List.rev !restarts;
    heap_mb;
    restart_problems = List.sort_uniq compare !restart_problems;
  }

let drift tps =
  let a = Array.of_list tps in
  let n = Array.length a in
  if n >= 2 then
    Printf.printf "  drift check: first-half %.1f tps, second-half %.1f tps\n"
      (median_f (Array.to_list (Array.sub a 0 (n / 2))))
      (median_f (Array.to_list (Array.sub a (n / 2) (n - (n / 2)))))

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** oracle mismatches and audit violations *)
  metrics : metric list;
}

let finish ~title o =
  Printf.printf "  attempted %d, failed %d (failed_frac %.5f)\n" o.attempted o.failed
    (per o.failed o.attempted);
  if o.problems = [] then begin
    print_table title o.metrics;
    print_result ~correct:true ~attempted:o.attempted ~failed:o.failed o.metrics;
    0
  end
  else begin
    List.iter (Printf.printf "MISMATCH: %s\n") o.problems;
    print_result ~correct:false ~attempted:o.attempted ~failed:o.failed [];
    1
  end

(* On a shared host the same work runs at one of two speeds, about
   1.5x apart, in spells of seconds to minutes.  The share of fast time
   varies from run to run, so a median over slices jumps between the
   two speeds.  The timing metrics therefore take the slow quartile over
   many short slices (and restart cycles) spread over the whole run:
   throughput is the 25th percentile over slices, the median latency and
   restart times the 75th.  A slice's 99th percentile rests on its few
   slowest transactions, so one stall moves it; the 99th percentile
   latency is the median over slices. *)
let slow_share = 0.25

(* Restart cycles a steady workload's traced run times. *)
let restart_cycles = 9

let e2e_metrics p ~setup_s =
  let by_slice f min_samples =
    let ok = List.filter (fun s -> s.samples >= min_samples) p.slices in
    List.map f (if ok = [] then p.slices else ok)
  in
  let p50s = by_slice (fun s -> s.p50) 100 and p99s = by_slice (fun s -> s.p99) 100 in
  let dc_ns = List.map (fun (d, _) -> float d) p.restarts
  and tc_ns = List.map (fun (_, t) -> float t) p.restarts in
  let tps = List.map (fun s -> s.tps) p.slices in
  drift tps;
  Printf.printf
    "  %d slices, median %.0f latency samples each (%d slices for p50 and p99); %d restart cycles\n"
    (List.length p.slices)
    (median_f (List.map (fun s -> float s.samples) p.slices))
    (List.length p50s) (List.length p.restarts);
  Printf.printf "  medians: %.1f tps, p50 %.1f us over slices; restart dc %.2f ms, tc %.2f ms\n"
    (median_f tps) (us (median_f p50s)) (median_f dc_ns /. 1e6) (median_f tc_ns /. 1e6);
  [
    m "throughput_tps" "1/s" (quantile tps slow_share);
    m "latency_p50_us" "us" (us (quantile p50s (1. -. slow_share)));
    m "latency_p99_us" "us" (us (median_f p99s));
    m "setup_s" "s" setup_s;
    m "peak_heap_mb" "MB" p.heap_mb;
    m "dc_restart_ms" "ms" (quantile dc_ns (1. -. slow_share) /. 1e6);
    m "tc_restart_ms" "ms" (quantile tc_ns (1. -. slow_share) /. 1e6);
  ]

(* --- 1 TC x 1 DC workloads ---------------------------------------------- *)

let kernel_e2e (w : Kwork.workload) ~seed ~seconds =
  let setup () = Kwork.setup w ~seed in
  let measure () =
    let e, before = setup_before setup in
    let p =
      match w.shape with
      | Kwork.Steady ->
        steady_phase ~seconds
          ~committed:(fun () -> e.st.committed)
          ~heap_after:w.heap_after
          ~slice:(fun () -> Kwork.slice e)
          ~cycle:(fun () -> snd (Kwork.cycle e))
          ~problems:(fun () -> e.o.m.first @ Kwork.audit e)
      | Kwork.Restart ->
        let cycles = repeat_for ~seconds ~n:min_cycles (fun () -> Kwork.cycle e) in
        {
          slices = List.map fst cycles; restarts = List.map snd cycles;
          heap_mb = peak_heap_mb (); restart_problems = [];
        }
    in
    let violations = Kwork.audit e in
    let st = e.st in
    Printf.printf "  checkpoints %d (%d refused); audit violations %d\n" st.checkpoints
      st.ckpt_refused (List.length violations);
    (before, p, st.attempted, st.failed, e.o.m.first @ violations @ p.restart_problems)
  in
  let before, p, attempted, failed, problems = measure () in
  let metrics = e2e_metrics p ~setup_s:(setup_s ~before setup) in
  finish ~title:(w.name ^ ": end to end (tracing off)") { attempted; failed; problems; metrics }

(* Replay captured data frames through the codec: decode each and encode
   the result again.  Returns (ns, minor words) per frame. *)
let replay_codec frames decode encode =
  let n = List.length frames in
  if n = 0 then (0., 0.)
  else begin
    let w0 = Gc.minor_words () in
    let t0 = Spans.now_ns () in
    List.iter (fun f -> ignore (encode (decode f))) frames;
    let ns = Spans.now_ns () - t0 in
    let words = Gc.minor_words () -. w0 in
    (float ns /. float n, words /. float n)
  end

type counts = {
  bytes : int;
  frames : int;
  requests_in : int;
  replies_out : int;
  evictions : int;
  reads : int;
  writes : int;
  splits : int;
  dc_log_bytes : int;
}

let kernel_counts (s : Sys1.t) =
  {
    bytes = Transport.bytes_sent s.transport; frames = s.frames;
    requests_in = s.requests_in; replies_out = s.replies_out;
    evictions = Sys1.evictions s; reads = Sys1.disk_reads s; writes = Sys1.disk_writes s;
    splits = Dc.splits s.dc; dc_log_bytes = Dc.dc_log_bytes s.dc;
  }

type alternated = {
  traced_ns : int;  (** wall time of the traced slices *)
  traced_words : float;  (** minor words allocated in them *)
  traced_majors : int;  (** major collections in them *)
  tps_untraced : float;  (** median over the untraced slices *)
  tps_traced : float;
}

(* Alternate untraced and traced slices until the traced ones add up
   to [seconds] (at least 3 each), so a slow spell of the machine hits
   both sides of the tracing-overhead comparison alike. *)
let alternate ~seconds ~untraced ~traced =
  let ns = ref 0 and words = ref 0. and majors = ref 0 in
  let tu = ref [] and tt = ref [] in
  let n = ref 0 in
  while !n < 3 || float !ns /. 1e9 < seconds do
    incr n;
    Spans.enabled := false;
    tu := (untraced ()).tps :: !tu;
    Spans.enabled := true;
    let g0 = Gc.quick_stat () and t0 = Spans.now_ns () in
    tt := (traced ()).tps :: !tt;
    let t1 = Spans.now_ns () and g1 = Gc.quick_stat () in
    ns := !ns + t1 - t0;
    words := !words +. g1.Gc.minor_words -. g0.Gc.minor_words;
    majors := !majors + g1.Gc.major_collections - g0.Gc.major_collections
  done;
  Spans.enabled := false;
  {
    traced_ns = !ns; traced_words = !words; traced_majors = !majors;
    tps_untraced = median_f !tu; tps_traced = median_f !tt;
  }

(* Every per-layer metric, in a fixed order; a workload that does not
   exercise a layer reports 0 for it. *)
let per_layer_names =
  [
    "e2e_us_per_txn"; "tc.self_us_per_txn"; "tc.words_per_txn"; "tc.forces_per_txn";
    "tc.msgs_per_txn"; "tc.locks_per_txn"; "tc.resends_per_ktxn"; "tc.blocked_per_txn";
    "msg.codec_us_per_txn"; "msg.codec_words_per_txn"; "transport.self_us_per_txn";
    "transport.bytes_per_txn"; "transport.frames_per_txn"; "dc.self_us_per_txn";
    "dc.words_per_txn"; "cache.evictions_per_op"; "disk.reads_per_op";
    "disk.writes_per_txn"; "dc.splits_per_ktxn"; "dc.log_bytes_per_ktxn";
    "setup.dc_splits"; "setup.dc_log_bytes";
    "restart.dc_recover_ms"; "restart.redo_ms"; "restart.redo_tc_ms";
    "restart.redo_transport_ms"; "restart.redo_dc_ms"; "restart.redo_msgs";
    "restart.redo_keys"; "restart.redo_dup_keys"; "restart.redo_useful_frac";
    "restart.redo_disk_reads"; "restart.tc_recover_ms"; "restart.tc_recover_tc_ms";
    "restart.tc_recover_dc_ms"; "restart.records_reset"; "restart.pages_dropped";
    "front.submit_us"; "front.pump_us_per_txn"; "front.poll_us_per_txn"; "front.flush_us";
    "front.batched_frac"; "repl.ship_bytes_per_txn"; "repl.ships_per_txn";
    "cloud.checkpoint_ms"; "layer.compact_ms"; "gc.minor_words_per_txn";
    "gc.major_collections"; "bench.self_us_per_txn"; "unattributed_us_per_txn";
    "trace.overhead_frac"; "failed_frac";
  ]

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_us" || ends "_us_per_txn" then "us"
  else if ends "_ms" then "ms"
  else if ends "_frac" then "fraction"
  else if ends "words_per_txn" then "words"
  else if ends "bytes_per_txn" || ends "bytes_per_ktxn" || ends "_bytes" then "bytes"
  else "count"

(* Fill the fixed metric list from the measured [(name, value)] pairs. *)
let per_layer_metrics measured =
  List.map
    (fun name ->
      m name (unit_of name) (Option.value (List.assoc_opt name measured) ~default:0.))
    per_layer_names

let print_spans_file ~workload ~seed =
  let path = Printf.sprintf "%s/spans-%s-%d.jsonl" out_dir workload seed in
  match
    (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
    Spans.dump_jsonl path
  with
  | () ->
    Printf.printf "  spans: %d kept (%d beyond the in-memory cap) in %s\n" !Spans.logged
      !Spans.dropped path
  | exception Sys_error msg -> Printf.printf "  spans not written: %s\n" msg

let kernel_traced (w : Kwork.workload) ~seed ~seconds =
  (* the untraced reference runs on the product Kernel, the traced side
     on the probe assembly *)
  let e0 = Kwork.setup w ~seed in
  let e = Kwork.setup ~probe:true w ~seed in
  let s = e.sys in
  Spans.reset ();
  s.restarts <- Sys1.zero_restarts ();
  s.capture <- true;
  let one e =
    match w.shape with Kwork.Steady -> Kwork.slice e | Kwork.Restart -> fst (Kwork.cycle e)
  in
  let c0 = kernel_counts s and sp0 = Spans.snapshot () in
  let a =
    alternate ~seconds:(seconds /. 2.)
      ~untraced:(fun () -> one e0)
      ~traced:(fun () -> one e)
  in
  let c1 = kernel_counts s and sp1 = Spans.snapshot () in
  s.capture <- false;
  let problems0 = e0.o.m.first @ Kwork.audit e0 in
  Spans.enabled := true;
  (match w.shape with
  | Kwork.Steady ->
    for _ = 1 to restart_cycles do
      ignore (Kwork.cycle e)
    done
  | Kwork.Restart -> ());
  Spans.enabled := false;
  let st = e.st in
  let txns = st.committed in
  let per_txn_us id =
    let ns, _, _ = Spans.between sp0 sp1 id in
    float ns /. 1e3 /. float (max 1 txns)
  in
  let per_txn_words id =
    let _, words, _ = Spans.between sp0 sp1 id in
    words /. float (max 1 txns)
  in
  let req_ns, req_w =
    replay_codec s.requests Wire.decode_request (fun r -> Wire.encode_request r)
  in
  let rep_ns, rep_w = replay_codec s.replies Wire.decode_reply (fun r -> Wire.encode_reply r) in
  let d f = f c1 - f c0 in
  let req_in = d (fun c -> c.requests_in) and rep_out = d (fun c -> c.replies_out) in
  let per_txn x = x /. float (max 1 txns) in
  let codec_us = per_txn ((float req_in *. req_ns) +. (float rep_out *. rep_ns)) /. 1e3 in
  let codec_words = per_txn ((float req_in *. req_w) +. (float rep_out *. rep_w)) in
  let e2e = float a.traced_ns /. 1e3 /. float (max 1 txns) in
  let layers = [ Sys1.l_tc; Sys1.l_transport; Sys1.l_dc; Load.l_bench ] in
  let attributed = List.fold_left (fun a id -> a +. per_txn_us id) 0. layers in
  let ops = st.ops in
  let rs = s.restarts in
  let per_dc x = float x /. float (max 1 rs.n_dc) /. 1e6 in
  let per_tc x = float x /. float (max 1 rs.n_tc) /. 1e6 in
  let measured =
    [
      ("e2e_us_per_txn", e2e);
      ("tc.self_us_per_txn", per_txn_us Sys1.l_tc);
      ("tc.words_per_txn", per_txn_words Sys1.l_tc);
      ("tc.forces_per_txn", per st.forces txns);
      ("tc.msgs_per_txn", per st.msgs txns);
      ("tc.locks_per_txn", per st.locks txns);
      ("tc.resends_per_ktxn", 1000. *. per st.resends txns);
      ("tc.blocked_per_txn", per st.blocked txns);
      ("msg.codec_us_per_txn", codec_us);
      ("msg.codec_words_per_txn", codec_words);
      ("transport.self_us_per_txn", per_txn_us Sys1.l_transport);
      ("transport.bytes_per_txn", per (d (fun c -> c.bytes)) txns);
      ("transport.frames_per_txn", per (d (fun c -> c.frames)) txns);
      ("dc.self_us_per_txn", per_txn_us Sys1.l_dc);
      ("dc.words_per_txn", per_txn_words Sys1.l_dc);
      ("cache.evictions_per_op", per (d (fun c -> c.evictions)) ops);
      ("disk.reads_per_op", per (d (fun c -> c.reads)) ops);
      ("disk.writes_per_txn", per (d (fun c -> c.writes)) txns);
      ("dc.splits_per_ktxn", 1000. *. per (d (fun c -> c.splits)) txns);
      ("dc.log_bytes_per_ktxn", 1000. *. per (d (fun c -> c.dc_log_bytes)) txns);
      ("setup.dc_splits", float c0.splits);
      ("setup.dc_log_bytes", float c0.dc_log_bytes);
      ("restart.dc_recover_ms", per_dc rs.dc_recover_ns);
      ("restart.redo_ms", per_dc rs.redo_ns);
      ("restart.redo_tc_ms", per_dc rs.redo_tc_ns);
      ("restart.redo_transport_ms", per_dc rs.redo_transport_ns);
      ("restart.redo_dc_ms", per_dc rs.redo_dc_ns);
      ("restart.redo_msgs", per rs.redo_msgs rs.n_dc);
      ("restart.redo_keys", per rs.redo_keys rs.n_dc);
      ("restart.redo_dup_keys", per rs.redo_dup_keys rs.n_dc);
      ("restart.redo_useful_frac", 1. -. per rs.redo_dup_keys rs.redo_keys);
      ("restart.redo_disk_reads", per rs.redo_disk_reads rs.n_dc);
      ("restart.tc_recover_ms", per_tc rs.tc_recover_ns);
      ("restart.tc_recover_tc_ms", per_tc rs.tc_recover_tc_ns);
      ("restart.tc_recover_dc_ms", per_tc rs.tc_recover_dc_ns);
      ("restart.records_reset", per rs.records_reset rs.n_tc);
      ("restart.pages_dropped", per rs.pages_dropped rs.n_tc);
      ("gc.minor_words_per_txn", a.traced_words /. float (max 1 txns));
      ("gc.major_collections", float a.traced_majors);
      ("bench.self_us_per_txn", per_txn_us Load.l_bench);
      ("unattributed_us_per_txn", e2e -. attributed);
      ("trace.overhead_frac", 1. -. (a.tps_traced /. a.tps_untraced));
      ("failed_frac", per st.failed st.attempted);
    ]
  in
  Printf.printf "  untraced %.1f tps (product Kernel), traced %.1f tps (probe), in alternating slices\n"
    a.tps_untraced a.tps_traced;
  Printf.printf
    "  self time per committed txn: tc %.2f + transport %.2f + dc %.2f + bench %.2f + unattributed %.2f = %.2f us\n"
    (per_txn_us Sys1.l_tc) (per_txn_us Sys1.l_transport) (per_txn_us Sys1.l_dc)
    (per_txn_us Load.l_bench) (e2e -. attributed) e2e;
  Printf.printf "  (msg codec %.2f us/txn is inside tc + dc: replayed %d request and %d reply frames)\n"
    codec_us (List.length s.requests) (List.length s.replies);
  if rs.n_dc > 0 then
    Printf.printf
      "  per DC restart (%d): %.2f ms = recover %.2f + redo %.2f (tc %.2f, transport %.2f, dc %.2f) + unattributed %.2f; %.0f redo msgs carrying %.0f keys, %.0f duplicate keys absorbed\n"
      rs.n_dc (per_dc rs.dc_total_ns) (per_dc rs.dc_recover_ns) (per_dc rs.redo_ns)
      (per_dc rs.redo_tc_ns) (per_dc rs.redo_transport_ns) (per_dc rs.redo_dc_ns)
      (per_dc (rs.dc_total_ns - rs.dc_recover_ns - rs.redo_ns))
      (per rs.redo_msgs rs.n_dc) (per rs.redo_keys rs.n_dc) (per rs.redo_dup_keys rs.n_dc);
  if rs.n_tc > 0 then
    Printf.printf
      "  per TC restart (%d): %.2f ms = recover %.2f (tc %.2f, transport + dc %.2f) + unattributed %.2f; %.0f records reset, %.0f pages dropped\n"
      rs.n_tc (per_tc rs.tc_total_ns) (per_tc rs.tc_recover_ns) (per_tc rs.tc_recover_tc_ns)
      (per_tc rs.tc_recover_dc_ns) (per_tc (rs.tc_total_ns - rs.tc_recover_ns))
      (per rs.records_reset rs.n_tc) (per rs.pages_dropped rs.n_tc);
  Printf.printf
    "  note: Dc.dup_absorbed counts per key for multi-key version-cleanup requests, so the redo useful fraction is key-granular on both sides\n";
  print_spans_file ~workload:w.name ~seed;
  finish
    ~title:(w.name ^ ": per layer (traced run)")
    {
      attempted = st.attempted;
      failed = st.failed;
      problems = problems0 @ e.o.m.first;
      metrics = per_layer_metrics measured;
    }

(* --- front_repl --------------------------------------------------------- *)

let front_e2e ~seed ~seconds =
  let setup () = Frontwl.setup ~seed in
  let measure () =
    let e, before = setup_before setup in
    Frontwl.reset_stats e;
    let p =
      steady_phase ~seconds
        ~committed:(fun () -> e.committed)
        ~heap_after:Frontwl.heap_after
        ~slice:(fun () -> Frontwl.slice e)
        ~cycle:(fun () -> Frontwl.restart_cycle e)
        ~problems:(fun () -> e.m.first @ Frontwl.audit e)
    in
    let violations = Frontwl.audit e in
    Printf.printf "  audit violations %d\n" (List.length violations);
    (before, p, e.attempted, e.failed, e.m.first @ violations @ p.restart_problems)
  in
  let before, p, attempted, failed, problems = measure () in
  let metrics = e2e_metrics p ~setup_s:(setup_s ~before setup) in
  finish ~title:"front_repl: end to end (tracing off)" { attempted; failed; problems; metrics }

let front_traced ~seed ~seconds =
  let e0 = Frontwl.setup ~seed and e = Frontwl.setup ~seed in
  Frontwl.reset_stats e0;
  Frontwl.reset_stats e;
  let sum_tcs f = List.fold_left (fun a n -> a + f (Deploy.tc e.d n)) 0 Frontwl.tc_names in
  let sum_dcs f = List.fold_left (fun a n -> a + f (Deploy.dc e.d n)) 0 Frontwl.dc_names in
  let ctr name = Metrics.get_counter e.counters name in
  let snap () =
    [
      ("forces", sum_tcs Tc.log_forces);
      ("msgs", sum_tcs Tc.messages_sent);
      ("locks", sum_tcs Tc.lock_acquisitions);
      ("resends", sum_tcs Tc.resends);
      ("bytes", ctr "transport.data_bytes" + ctr "transport.control_bytes");
      ("frames", ctr "transport.delivered" + ctr "transport.control_delivered");
      ("evictions", sum_dcs (fun dc -> Untx_storage.Cache.evictions (Dc.cache dc)));
      ("reads", sum_dcs (fun dc -> Untx_storage.Disk.reads (Dc.disk dc)));
      ("writes", sum_dcs (fun dc -> Untx_storage.Disk.writes (Dc.disk dc)));
      ("splits", sum_dcs Dc.splits);
      ("dc_log_bytes", sum_dcs Dc.dc_log_bytes);
      ("batched", ctr "front.batched");
      ("ship_bytes", ctr "repl.ship_bytes");
      ("ships", ctr "repl.ships");
    ]
  in
  Spans.reset ();
  let c0 = snap () and sp0 = Spans.snapshot () in
  let a =
    alternate ~seconds:(seconds /. 2.)
      ~untraced:(fun () -> Frontwl.slice e0)
      ~traced:(fun () -> Frontwl.slice e)
  in
  let c1 = snap () and sp1 = Spans.snapshot () in
  Spans.enabled := true;
  let flush_ns =
    Sys1.timed (fun () -> Spans.with_ Frontwl.l_flush (fun () -> Untx_front.Front.flush e.front))
  in
  Spans.enabled := false;
  let txns = e.committed in
  let d k = List.assoc k c1 - List.assoc k c0 in
  let self id =
    let ns, _, calls = Spans.between sp0 sp1 id in
    (float ns /. 1e3, calls)
  in
  let per_txn id = fst (self id) /. float (max 1 txns) in
  let e2e = float a.traced_ns /. 1e3 /. float (max 1 txns) in
  let layers =
    Frontwl.[ l_submit; l_pump; l_poll; l_checkpoint; l_compact; Load.l_bench ]
  in
  let attributed = List.fold_left (fun a id -> a +. per_txn id) 0. layers in
  let median_ms l = median_f (List.map float l) /. 1e6 in
  let submit_us, submits = self Frontwl.l_submit in
  let ops = 3 * txns in
  let measured =
    [
      ("e2e_us_per_txn", e2e);
      ("tc.forces_per_txn", per (d "forces") txns);
      ("tc.msgs_per_txn", per (d "msgs") txns);
      ("tc.locks_per_txn", per (d "locks") txns);
      ("tc.resends_per_ktxn", 1000. *. per (d "resends") txns);
      ("transport.bytes_per_txn", per (d "bytes") txns);
      ("transport.frames_per_txn", per (d "frames") txns);
      ("cache.evictions_per_op", per (d "evictions") ops);
      ("disk.reads_per_op", per (d "reads") ops);
      ("disk.writes_per_txn", per (d "writes") txns);
      ("dc.splits_per_ktxn", 1000. *. per (d "splits") txns);
      ("dc.log_bytes_per_ktxn", 1000. *. per (d "dc_log_bytes") txns);
      ("front.submit_us", submit_us /. float (max 1 submits));
      ("front.pump_us_per_txn", per_txn Frontwl.l_pump);
      ("front.poll_us_per_txn", per_txn Frontwl.l_poll);
      ("front.flush_us", us (float flush_ns));
      ("front.batched_frac", per (d "batched") txns);
      ("repl.ship_bytes_per_txn", per (d "ship_bytes") txns);
      ("repl.ships_per_txn", per (d "ships") txns);
      ("cloud.checkpoint_ms", median_ms e.ckpt_ns);
      ("layer.compact_ms", median_ms e.compact_ns);
      ("gc.minor_words_per_txn", a.traced_words /. float (max 1 txns));
      ("gc.major_collections", float a.traced_majors);
      ("bench.self_us_per_txn", per_txn Load.l_bench);
      ("unattributed_us_per_txn", e2e -. attributed);
      ("trace.overhead_frac", 1. -. (a.tps_traced /. a.tps_untraced));
      ("failed_frac", per e.failed e.attempted);
    ]
  in
  Printf.printf "  untraced %.1f tps, traced %.1f tps, in alternating slices\n"
    a.tps_untraced a.tps_traced;
  Printf.printf
    "  self time per committed txn: submit %.2f + pump %.2f + poll %.2f + checkpoint %.2f + compact %.2f + bench %.2f + unattributed %.2f = %.2f us\n"
    (per_txn Frontwl.l_submit) (per_txn Frontwl.l_pump) (per_txn Frontwl.l_poll)
    (per_txn Frontwl.l_checkpoint) (per_txn Frontwl.l_compact) (per_txn Load.l_bench)
    (e2e -. attributed) e2e;
  print_spans_file ~workload:"front_repl" ~seed;
  let violations = Frontwl.audit e in
  finish ~title:"front_repl: per layer (traced run)"
    {
      attempted = e.attempted;
      failed = e.failed;
      problems = e0.m.first @ e.m.first @ violations;
      metrics = per_layer_metrics measured;
    }

let workloads = List.map (fun (w : Kwork.workload) -> w.name) Kwork.all @ [ "front_repl" ]

let main ~workload ~seed ~seconds ~trace =
  if not (List.mem workload workloads) then begin
    Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" workload
      (String.concat ", " workloads);
    2
  end
  else begin
    Printf.printf "perfbench: workload %s, seed %d, %.0f s timed, trace %b\n%!" workload
      seed seconds trace;
    try
      match (List.find_opt (fun (w : Kwork.workload) -> w.name = workload) Kwork.all, trace) with
      | Some w, false -> kernel_e2e w ~seed ~seconds
      | Some w, true -> kernel_traced w ~seed ~seconds
      | None, false -> front_e2e ~seed ~seconds
      | None, true -> front_traced ~seed ~seconds
    with exn ->
      Printf.printf "FAILED: %s\n" (Printexc.to_string exn);
      print_result ~correct:false ~attempted:1 ~failed:1 [];
      1
  end
