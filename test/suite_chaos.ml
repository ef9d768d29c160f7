(* The chaos-soak engine at test scale: a handful of fixed-seed
   crash→recover→audit cycles that must come back violation-free and
   bit-identical on rerun, plus the lost-reply workload that proves the
   resend path (not Transport.flush) is what completes transactions
   under loss.  [bank_suite] holds the differential bank to the same
   bar: every bank scenario, under its scripted kills, runs its checks
   and comes back clean.  The full sweep lives in bench/e11_chaos.ml. *)

module Fault = Untx_fault.Fault
module Chaos = Untx_audit.Chaos
module Analyzer = Untx_obs.Analyzer

let cycle ?keep_trace ~label ~plan ~seed () =
  Chaos.run_cycle ?keep_trace Chaos.kernel ~label ~plan ~seed ~txns:12

let check_clean (c : Chaos.cycle) =
  Alcotest.(check (list string))
    (Printf.sprintf "%s seed=%d: no violations" c.c_label c.c_seed)
    [] c.c_violations

let counter (c : Chaos.cycle) name =
  match List.assoc_opt name c.c_counters with Some n -> n | None -> 0

let test_small_soak () =
  let plans =
    [
      ("wal.tc.force.mid@2", [ Fault.crash_at "wal.tc.force.mid" 2 ]);
      ("dc.flush.before_page_write@1",
       [ Fault.crash_at "dc.flush.before_page_write" 1 ]);
      ("dc.smo.split.mid@1", [ Fault.crash_at "dc.smo.split.mid" 1 ]);
      ("disk.page_write.torn@1",
       [ Fault.crash_at "disk.page_write.torn" 1 ]);
      ("tc.commit.before_force@2",
       [ Fault.crash_at "tc.commit.before_force" 2 ]);
    ]
  in
  List.iter
    (fun (label, plan) ->
      List.iter
        (fun seed ->
          let c = cycle ~label ~plan ~seed () in
          check_clean c;
          Alcotest.(check bool)
            (Printf.sprintf "%s seed=%d: the planned rule fired" label seed)
            true (c.c_fired <> []))
        [ 3; 10 ])
    plans

let check_reproducible ?(seed = 9) ?(txns = 12) (s : Chaos.scenario) ~label
    ~plan =
  (* Run twice at one seed: both runs must come back clean and
     identical, since a cycle is a pure function of (scenario, plan,
     seed). *)
  let run () = Chaos.run_cycle s ~label ~plan ~seed ~txns in
  let a = run () and b = run () in
  let what x = Printf.sprintf "%s: same %s" s.name x in
  check_clean a;
  Alcotest.(check (list string)) (what "fired points") a.c_fired b.c_fired;
  Alcotest.(check int) (what "crash count") a.c_crashes b.c_crashes;
  Alcotest.(check int) (what "committed count") a.c_committed b.c_committed;
  Alcotest.(check int) (what "redelivery count") a.c_redelivered
    b.c_redelivered;
  Alcotest.(check (list (pair string int))) (what "differential checks")
    a.c_checks b.c_checks;
  Alcotest.(check (list (pair string int))) (what "counter snapshot")
    a.c_counters b.c_counters

let test_reproducible () =
  (* Every scenario is reproducible.  Single-TC scenarios (the bank's
     included) take a DC kill mid-flush; the front-end scenario runs its
     own first plan. *)
  List.iter
    (fun (s : Chaos.scenario) ->
      let label, plan =
        match s.topology with
        | Kernel | Deploy { tcs = 1; _ } ->
          ("repro", [ Fault.crash_at "dc.flush.after_page_write" 2 ])
        | Deploy _ -> List.hd s.plans
      in
      check_reproducible s ~label ~plan)
    Chaos.scenarios

let test_lossy_resend_completes () =
  (* Seeds divisible by 3 run under the lossy policy (10% drop); the
     empty plan means every transaction must complete purely through
     timeout-driven resends — there is no Transport.flush anywhere in
     the engine's workload or quiesce path. *)
  let c = cycle ~label:"lossy, no faults" ~plan:[] ~seed:6 () in
  check_clean c;
  Alcotest.(check int) "every transaction committed" 12 c.c_committed;
  Alcotest.(check bool) "transport really dropped messages" true
    (counter c "transport.dropped" > 0);
  Alcotest.(check bool) "resends carried the workload" true
    (counter c "tc.resends" > 0);
  Alcotest.(check int) "flush bypass never used" 0
    (counter c "transport.flush_delivered")

let test_corrupting_wire () =
  (* Seed 6 runs under the lossy policy, and the armed corruption point
     flips bytes in a fraction of all delivered frames on both channels.
     Every corrupted frame must be caught by the checksum gate (never
     applied), and the contracts must still complete every
     transaction. *)
  let plan = [ Fault.crash_with_prob "transport.frame.corrupt" 0.05 ] in
  let c = cycle ~label:"corrupting wire" ~plan ~seed:6 () in
  check_clean c;
  Alcotest.(check int) "every transaction committed" 12 c.c_committed;
  Alcotest.(check bool) "frames were corrupted" true
    (counter c "transport.frames_corrupted" > 0);
  Alcotest.(check int) "every corrupted frame was rejected"
    (counter c "transport.frames_corrupted")
    (counter c "transport.corrupt_dropped")

let test_trace_reconstructs () =
  (* The same corrupting-wire cycle, with its span dump kept: the
     analyzer must reconstruct a complete per-operation timeline from
     the JSONL — every traced operation ends in an ack (no orphan spans:
     each resend chain converges on exactly the operation that started
     it), and the resend chains in the timelines account for exactly the
     resends the TC counted. *)
  let plan = [ Fault.crash_with_prob "transport.frame.corrupt" 0.05 ] in
  let c = cycle ~keep_trace:true ~label:"traced corrupting wire" ~plan ~seed:6 () in
  check_clean c;
  Alcotest.(check bool) "trace dump captured" true (c.c_trace <> "");
  let report = Analyzer.analyze (Analyzer.of_jsonl c.c_trace) in
  Alcotest.(check bool) "timelines reconstructed" true
    (report.Analyzer.r_timelines <> []);
  Alcotest.(check int) "no orphan spans after resend" 0
    report.Analyzer.r_orphans;
  let resends =
    List.fold_left
      (fun acc tl -> acc + tl.Analyzer.tl_resends)
      0 report.Analyzer.r_timelines
  in
  Alcotest.(check bool) "the cycle exercised the resend path" true
    (resends > 0);
  Alcotest.(check int) "timelines account for every TC resend"
    (counter c "tc.resends") resends;
  Alcotest.(check bool) "per-hop latencies were aggregated" true
    (report.Analyzer.r_hops <> [])

let test_crash_cycle_under_corruption () =
  (* A TC crash and a DC crash in the same cycle while the wire keeps
     corrupting frames: the restart barriers and recovery redo
     themselves run over the corrupting transport. *)
  let plan =
    [
      Fault.crash_with_prob "transport.frame.corrupt" 0.04;
      Fault.crash_at "tc.commit.before_force" 3;
      Fault.crash_at "dc.flush.after_page_write" 2;
    ]
  in
  List.iter
    (fun seed ->
      let c = cycle ~label:"crash cycle + corruption" ~plan ~seed () in
      check_clean c;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: planned crashes fired" seed)
        true (c.c_crashes >= 2))
    [ 3; 6; 10 ]

let test_partitioned_cycles () =
  (* The partitioned twin at test scale: one TC over three DCs, fixed
     seeds, kills mid-SMO and mid-checkpoint-grant.  Whichever partition
     the fault escapes from dies and recovers alone; the deployment
     audit (per-partition structure/hygiene, merged oracle, routed
     idempotence) must come back clean. *)
  let plans =
    [
      ("dc.smo.split.mid@1", [ Fault.crash_at "dc.smo.split.mid" 1 ]);
      ("dc.checkpoint.mid@1", [ Fault.crash_at "dc.checkpoint.mid" 1 ]);
      ("tc.commit.before_force@2",
       [ Fault.crash_at "tc.commit.before_force" 2 ]);
      ("dc.flush.before_page_write@1",
       [ Fault.crash_at "dc.flush.before_page_write" 1 ]);
    ]
  in
  List.iter
    (fun (label, plan) ->
      List.iter
        (fun seed ->
          let c =
            Chaos.run_cycle Chaos.partitioned ~label ~plan ~seed ~txns:12
          in
          check_clean c;
          Alcotest.(check bool)
            (Printf.sprintf "%s seed=%d: the planned rule fired" label seed)
            true (c.c_fired <> []))
        [ 3; 10 ])
    plans

let test_redo_window_watermark_race () =
  (* Regression: a watermark pushed while the TC awaits the redo-fence
     barrier (an ack from a sibling partition pumps the transports mid
     [Tc.on_dc_restart]) used to claim every acknowledged LSN.  The
     rebuilt partition, whose pages came back with empty abstract LSNs,
     compacted to the claim and absorbed its whole redo stream as
     duplicates — losing committed records.  Both seeds reproduced the
     loss before the low-water cap was installed ahead of the barrier. *)
  List.iter
    (fun (label, plan, seed) ->
      let c = Chaos.run_cycle Chaos.partitioned ~label ~plan ~seed ~txns:24 in
      check_clean c;
      Alcotest.(check bool)
        (Printf.sprintf "%s seed=%d: the planned rule fired" label seed)
        true (c.c_fired <> []))
    [
      ( "dc.flush.before_page_write@1",
        [ Fault.crash_at "dc.flush.before_page_write" 1 ],
        23658 );
      ("wal.dc.force.mid@1", [ Fault.crash_at "wal.dc.force.mid" 1 ], 24068);
    ]

let test_partitioned_reproducible () =
  check_reproducible Chaos.partitioned ~label:"repro-part"
    ~plan:[ Fault.crash_at "dc.flush.after_page_write" 2 ]

let test_plan_sweep_covers_required_points () =
  (* The standard sweep arms at least 8 distinct points, including a
     torn write, a mid-SMO crash and a crash during recovery. *)
  let points = Chaos.armed_points Chaos.kernel in
  Alcotest.(check bool) "at least 8 distinct points" true
    (List.length points >= 8);
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " in sweep") true (List.mem p points))
    [ "disk.page_write.torn"; "dc.smo.split.mid"; "wal.tc.force.mid";
      "tc.recover.mid" ]

let suite =
  [
    Alcotest.test_case "small fixed-seed soak is violation-free" `Quick
      test_small_soak;
    Alcotest.test_case "cycles are reproducible from the seed" `Quick
      test_reproducible;
    Alcotest.test_case "lossy workload completes via resend" `Quick
      test_lossy_resend_completes;
    Alcotest.test_case "corrupting wire stays exactly-once" `Quick
      test_corrupting_wire;
    Alcotest.test_case "trace dump reconstructs per-op timelines" `Quick
      test_trace_reconstructs;
    Alcotest.test_case "crash cycle under corruption" `Quick
      test_crash_cycle_under_corruption;
    Alcotest.test_case "plan sweep covers the required points" `Quick
      test_plan_sweep_covers_required_points;
    Alcotest.test_case "partitioned crash cycles are violation-free" `Quick
      test_partitioned_cycles;
    Alcotest.test_case "partitioned cycles are reproducible" `Quick
      test_partitioned_reproducible;
    Alcotest.test_case "redo-window watermark race stays fixed" `Quick
      test_redo_window_watermark_race;
  ]

(* --- the differential bank ---------------------------------------------- *)

(* One bank scenario at its own seed, plan and length: no violation (a
   refused op, a read/scan/lookup disagreeing with the oracle, a poison
   probe failing in the wrong place, or a failed audit), at least one
   scripted kill — the plan is empty, so every kill is scheduled — and
   committed work plus differential checks of every kind the mix
   enables. *)
let test_bank_scenario (s : Chaos.scenario) () =
  let label, plan = List.hd s.plans in
  let c = Chaos.run_cycle s ~label ~plan ~seed:s.base_seed ~txns:s.txns in
  check_clean c;
  Alcotest.(check bool) (s.name ^ " schedules a kill") true (c.c_crashes >= 1);
  Alcotest.(check bool) (s.name ^ ": committed transactions") true
    (c.c_committed > 0);
  Alcotest.(check bool) (s.name ^ ": differential checks ran") true
    (c.c_checks <> []);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s checks ran" s.name k)
        true
        (List.mem_assoc k c.c_checks))
    (Chaos.check_kinds s)

let test_bank_shape () =
  let bank = Chaos.bank in
  Alcotest.(check bool) "at least five distinct workloads" true
    (List.length bank >= 5);
  let names = List.map (fun (s : Chaos.scenario) -> s.name) bank in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (s : Chaos.scenario) ->
      Alcotest.(check bool)
        (s.name ^ ": every plan is empty (kills are scripted)")
        true
        (List.for_all (fun (_, plan) -> plan = []) s.plans))
    bank;
  let has p = List.exists (fun (s : Chaos.scenario) -> p s.mix.protocol) bank in
  Alcotest.(check bool) "both Section 3.1 lock protocols and OCC appear" true
    (has (( = ) (Some Untx_tc.Tc.Key_locks))
    && has (function Some (Untx_tc.Tc.Range_locks _) -> true | _ -> false)
    && has (( = ) (Some Untx_tc.Tc.Optimistic)));
  Alcotest.(check bool) "index-maintaining mixes appear" true
    (List.exists
       (fun (s : Chaos.scenario) ->
         match s.topology with Deploy sh -> sh.indexes | Kernel -> false)
       bank)

let test_bank_determinism () =
  let s = List.find (fun (s : Chaos.scenario) -> s.name = "indexed_zipf") Chaos.bank in
  let label, plan = List.hd s.plans in
  check_reproducible s ~label ~plan ~seed:99 ~txns:s.txns

let bank_suite =
  List.map
    (fun (s : Chaos.scenario) ->
      Alcotest.test_case ("bank: " ^ s.name) `Quick (test_bank_scenario s))
    Chaos.bank
  @ [
      Alcotest.test_case "bank shape" `Quick test_bank_shape;
      Alcotest.test_case "seeded determinism" `Quick test_bank_determinism;
    ]
