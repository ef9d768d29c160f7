(* E2 — Instance scaling (the multi-core argument, Intro trend 3).

   The paper speculates that separately instantiable TCs and DCs use
   cores better: "one might deploy a larger number of DC instances on a
   multi-core platform than TC instances for better load balancing".

   Measured here on the real partitioned deployment: one TC fronting N
   hash-partitioned Data Components ({!Untx_cloud.Deploy}), the same
   Zipf workload at every N.  The numbers show what partitioning itself
   costs and buys — per-partition load balance, messages per
   transaction, and throughput — rather than simulating instances with
   independent kernels.

   The second half is the resilience dividend: with 4 partitions, one DC
   is hard-killed mid-workload and recovers alone (its siblings'
   caches are untouched); the deployment auditor must find every
   committed record afterwards. *)

open Bench_util
module Driver = Untx_kernel.Driver
module Engine = Untx_kernel.Engine
module Transport = Untx_kernel.Transport
module Deploy = Untx_cloud.Deploy
module Audit = Untx_audit.Audit
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Tc_id = Untx_util.Tc_id
module Instrument = Untx_util.Instrument

let table = "kv"

let total_txns = 3_000

let make_deploy ~counters ~parts =
  let d = Deploy.create ~counters ~policy:Transport.reliable ~seed:11 () in
  ignore
    (Deploy.add_tc d ~name:"tc1"
       { (Tc.default_config (Tc_id.of_int 1)) with lwm_every = 16 });
  let dc_names = List.init parts (Printf.sprintf "dc%d") in
  List.iter
    (fun name ->
      ignore
        (Deploy.add_dc d ~name
           { Dc.default_config with page_capacity = 256; cache_pages = 64 }))
    dc_names;
  Deploy.add_partitioned_table d ~name:table ~versioned:false ~dcs:dc_names ();
  d

let spec =
  {
    Driver.default_spec with
    table;
    txns = total_txns;
    ops_per_txn = 6;
    read_ratio = 0.5;
    key_space = 4_000;
    zipf_theta = 0.8;
    concurrency = 2;
    seed = 23;
  }

(* --- the sweep ------------------------------------------------------ *)

let run_parts parts =
  let counters = Instrument.create () in
  let d = make_deploy ~counters ~parts in
  let e = (Engine.of_tc (Deploy.tc d "tc1") :> (module Engine.S)) in
  Driver.preload e spec;
  let msgs0 = Deploy.messages_total d in
  let res, elapsed = time (fun () -> Driver.run e spec) in
  Deploy.quiesce d;
  let msgs = Deploy.messages_total d - msgs0 in
  let rows_per_dc =
    List.map
      (fun name -> List.length (Dc.dump_table (Deploy.dc d name) table))
      (Deploy.partitions d ~table)
  in
  let misrouted = Instrument.get counters "dc.misrouted" in
  (res, elapsed, msgs, rows_per_dc, misrouted)

(* --- resilience: one partition dies, siblings keep their caches ----- *)

let resilience_txns = 600

let run_resilience ~parts =
  let counters = Instrument.create () in
  let d = make_deploy ~counters ~parts in
  let tc = Deploy.tc d "tc1" in
  let oracle : (string, string) Hashtbl.t = Hashtbl.create 1024 in
  let committed = ref 0 in
  let sibling_commits_after_crash = ref 0 in
  let crash_at = resilience_txns / 2 in
  for i = 0 to resilience_txns - 1 do
    if i = crash_at then Deploy.crash_dc d "dc1";
    let txn = Tc.begin_txn tc in
    let staged = ref [] in
    for j = 0 to 2 do
      let key = Printf.sprintf "r%04d" (((i * 3) + j) mod 1_500) in
      let value = Printf.sprintf "v%d.%d" i j in
      let ok =
        match Tc.update tc txn ~table ~key ~value with
        | `Ok () -> true
        | `Fail _ -> (
          match Tc.insert tc txn ~table ~key ~value with
          | `Ok () -> true
          | `Blocked | `Fail _ -> false)
        | `Blocked -> false
      in
      if ok then staged := (key, value) :: !staged
    done;
    match Tc.commit tc txn with
    | `Ok () ->
      incr committed;
      if i >= crash_at then incr sibling_commits_after_crash;
      List.iter (fun (k, v) -> Hashtbl.replace oracle k v) !staged
    | `Blocked | `Fail _ -> if Tc.is_active txn then Tc.abort tc txn ~reason:"e2"
  done;
  Deploy.quiesce d;
  let expected =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) oracle []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let report = Audit.run_deploy d ~tc:"tc1" ~table ~expected in
  (!committed, !sibling_commits_after_crash, report.Audit.violations)

let run () =
  let base = ref None in
  let rows =
    List.map
      (fun parts ->
        let res, elapsed, msgs, rows_per_dc, misrouted = run_parts parts in
        let tput = float_of_int res.Driver.committed /. elapsed in
        let rel =
          match !base with
          | None ->
            base := Some tput;
            1.0
          | Some b -> tput /. b
        in
        let spread =
          let mn = List.fold_left min max_int rows_per_dc in
          let mx = List.fold_left max 0 rows_per_dc in
          if mn = 0 then "n/a"
          else Printf.sprintf "%.2f" (float_of_int mx /. float_of_int mn)
        in
        if misrouted > 0 then begin
          Printf.printf "E2 FAILED: %d misrouted frames at N=%d\n" misrouted
            parts;
          exit 1
        end;
        [
          string_of_int parts;
          string_of_int res.Driver.committed;
          fmt_f tput;
          fmt_f2 rel;
          fmt_f2 (float_of_int msgs /. float_of_int res.Driver.committed);
          spread;
        ])
      [ 1; 2; 4; 8 ]
  in
  print_table
    ~title:
      (Printf.sprintf
         "E2  Partitioned deployment: %d-txn Zipf workload, one TC over N \
          hash-partitioned DCs"
         total_txns)
    ~header:
      [ "DCs"; "committed"; "txns/s"; "vs N=1"; "msgs/txn"; "row spread" ]
    rows;
  (* Per-partition apply latency, observability on: the same Zipf
     workload at N=4 with timing enabled.  Each DC records into its own
     [dc.apply_ns.p<k>] histogram, so skew in apply cost across
     partitions (not just row counts) is directly visible. *)
  let ci = Instrument.create () in
  let di = make_deploy ~counters:ci ~parts:4 in
  let ei = (Engine.of_tc (Deploy.tc di "tc1") :> (module Engine.S)) in
  Driver.preload ei spec;
  Metrics.set_timed ci true;
  ignore (Driver.run ei spec);
  Deploy.quiesce di;
  Metrics.set_timed ci false;
  print_hists
    ~title:"E2  Per-partition apply latency (N=4, observability on)" ci
    ("dc.apply_ns" :: List.init 4 (Printf.sprintf "dc.apply_ns.p%d"));
  let committed, after_crash, violations = run_resilience ~parts:4 in
  print_table
    ~title:
      "E2  Resilience: hard-kill dc1 of 4 mid-workload, single-partition \
       restart"
    ~header:[ "metric"; "value" ]
    [
      [ "transactions committed"; string_of_int committed ];
      [ "committed at/after the kill"; string_of_int after_crash ];
      [ "auditor violations"; string_of_int (List.length violations) ];
    ];
  List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) violations;
  if violations <> [] || committed < resilience_txns * 9 / 10 then begin
    Printf.printf "E2 FAILED: resilience run lost transactions or state\n";
    exit 1
  end;
  Printf.printf
    "claim check: partitioning is deployment-level scaling — load spreads \
     evenly over DCs\n(row spread ~1), messages per transaction stay flat, \
     and one partition's crash\nneither stops its siblings nor loses a \
     committed record.\n"
