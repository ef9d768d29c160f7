(* The differential workload bank as tier-1 acceptance: every bank spec
   runs against its sequential oracle (scripted DC/TC crash cycles
   included) and must report zero violations; the surviving deployment
   then takes the full audit — per-table oracle parity over the merged
   fragments, and index parity for the index-maintaining specs.  A
   determinism check pins the whole pipeline to its seed. *)

module Workload = Untx_workload.Workload
module Audit = Untx_audit.Audit
module Chaos = Untx_audit.Chaos

let strings = Alcotest.(list string)

let run_spec_test spec () =
  let r, env = Workload.run spec in
  Alcotest.check strings
    (spec.Workload.w_name ^ ": differential violations")
    [] r.Workload.r_violations;
  Alcotest.(check bool)
    (spec.Workload.w_name ^ ": at least one crash-recovery cycle")
    true
    (r.Workload.r_crashes >= 1);
  Alcotest.(check bool)
    (spec.Workload.w_name ^ ": committed transactions")
    true (r.Workload.r_committed > 0);
  Alcotest.(check bool)
    (spec.Workload.w_name ^ ": differential checks ran")
    true (r.Workload.r_checks > 0);
  let d = env.Workload.e_deploy in
  List.iter
    (fun (table, expected) ->
      let report = Audit.run_deploy d ~tc:"tc1" ~table ~expected in
      Alcotest.check strings
        (spec.Workload.w_name ^ ": audit of " ^ table)
        [] report.Audit.violations)
    env.Workload.e_expected;
  if spec.Workload.w_indexed then
    List.iter
      (fun (table, _) ->
        Alcotest.check strings
          (spec.Workload.w_name ^ ": index parity of " ^ table)
          []
          (Audit.check_index d ~idx:env.Workload.e_idx ~table))
      spec.Workload.w_tables

let test_bank_shape () =
  let bank = Workload.bank () in
  Alcotest.(check bool) "at least five distinct workloads" true
    (List.length bank >= 5);
  let names = List.map (fun s -> s.Workload.w_name) bank in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Workload.w_name ^ " schedules a crash")
        true
        (s.Workload.w_crashes <> []))
    bank;
  Alcotest.(check bool) "both Section 3.1 lock protocols appear" true
    (List.exists (fun s -> s.Workload.w_protocol = Untx_tc.Tc.Key_locks) bank
    && List.exists
         (fun s ->
           match s.Workload.w_protocol with
           | Untx_tc.Tc.Range_locks _ -> true
           | _ -> false)
         bank);
  Alcotest.(check bool) "index-maintaining specs appear" true
    (List.exists (fun s -> s.Workload.w_indexed) bank)

let test_determinism () =
  let spec = Workload.find "indexed_zipf" in
  let r1, env1 = Workload.run ~seed:99 spec in
  let r2, env2 = Workload.run ~seed:99 spec in
  Alcotest.(check int) "committed" r1.Workload.r_committed r2.Workload.r_committed;
  Alcotest.(check int) "aborted" r1.Workload.r_aborted r2.Workload.r_aborted;
  Alcotest.(check int) "checks" r1.Workload.r_checks r2.Workload.r_checks;
  Alcotest.check strings "violations" r1.Workload.r_violations
    r2.Workload.r_violations;
  List.iter2
    (fun (t1, rows1) (t2, rows2) ->
      Alcotest.(check string) "table" t1 t2;
      Alcotest.(check (list (pair string string))) "rows" rows1 rows2)
    env1.Workload.e_expected env2.Workload.e_expected

let test_chaos_wrapper () =
  let c =
    Chaos.run_cycle Chaos.bank ~label:"mixed_tables" ~plan:[] ~seed:5 ~txns:24
  in
  Alcotest.check strings "cycle clean" [] c.Chaos.c_violations;
  Alcotest.(check bool) "crashes" true (c.Chaos.c_crashes >= 1)

let suite =
  List.map
    (fun spec ->
      Alcotest.test_case ("bank: " ^ spec.Workload.w_name) `Quick
        (run_spec_test spec))
    (Workload.bank ())
  @ [
      Alcotest.test_case "bank shape" `Quick test_bank_shape;
      Alcotest.test_case "seeded determinism" `Quick test_determinism;
      Alcotest.test_case "chaos wrapper cycle" `Quick test_chaos_wrapper;
    ]
