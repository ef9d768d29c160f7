(* E11 — chaos soak: deterministic crash→recover→audit cycles.

   One stage per chaos scenario (Chaos.scenarios): each sweeps the
   scenario's fault plans across several seeds; every cycle runs a
   randomized workload against a shadow-map oracle, kills the owning
   component at the planned instant (torn page writes, mid-SMO splits,
   partial log forces, crashes during recovery, primary kills answered
   by promotion, TC kills under front-end load, ...), recovers, quiesces
   through the resend path, and audits the survivor (structure, oracle,
   version hygiene, abLSN idempotence, plus the scenario's own checks).

   Every stage gates on 0 auditor violations and on every fault point
   its plans arm having fired at least once.  The whole run is a pure
   function of the scenarios' base seeds. *)

module Chaos = Untx_audit.Chaos
module Analyzer = Untx_obs.Analyzer

(* A violating cycle carries its span dump (c_trace is only populated
   on violations during soaks): print the analyzer's reconstruction —
   per-hop latencies, resend chains, orphan spans — next to the
   violation lines, so the failing cycle arrives pre-digested. *)
let print_cycle_failures cycles =
  List.iter
    (fun (c : Chaos.cycle) ->
      if c.c_violations <> [] then begin
        Printf.printf "VIOLATION scenario=%s plan=%s seed=%d fired=[%s]\n"
          c.c_scenario c.c_label c.c_seed
          (String.concat "," c.c_fired);
        List.iter (fun v -> Printf.printf "  - %s\n" v) c.c_violations;
        if c.c_trace <> "" then
          Format.printf "  trace of the violating cycle:@.%a@."
            Analyzer.pp_summary
            (Analyzer.analyze (Analyzer.of_jsonl c.c_trace))
      end)
    cycles

let counter (s : Chaos.summary) name =
  Option.value ~default:0 (List.assoc_opt name s.s_counters)

(* Summary rows shared by most stages. *)
let cycles (s : Chaos.summary) = ("cycles", s.s_cycles)

let with_fire (s : Chaos.summary) = ("cycles with a fire", s.s_fired)

let kills (s : Chaos.summary) = ("injected hard kills", s.s_crashes)

(* One stage: soak [scenario], print its fires per point (under
   [fires], when given), its summary [rows] plus the violation count,
   and the summed [counters]; fail unless the audit found nothing, every
   armed point fired, and every extra gate holds. *)
let stage ?fires ?(counters = []) ~title ~rows ~gates ~ok ~seeds_per_plan
    scenario =
  let all, s = Chaos.soak ~seeds_per_plan scenario in
  Option.iter
    (fun title ->
      Bench_util.print_table ~title ~header:[ "fault point"; "fires" ]
        (List.map (fun (p, n) -> [ p; string_of_int n ]) s.Chaos.s_fires_by_point))
    fires;
  Bench_util.print_table ~title ~header:[ "metric"; "value" ]
    (List.map
       (fun (m, v) -> [ m; string_of_int v ])
       (rows all s @ [ ("auditor violations", List.length s.s_violating) ]));
  if counters <> [] then
    Bench_util.print_table ~title:"E11: summed Instrument counters"
      ~header:[ "counter"; "total" ]
      (List.filter_map
         (fun name ->
           List.assoc_opt name s.s_counters
           |> Option.map (fun v -> [ name; string_of_int v ]))
         counters);
  print_cycle_failures all;
  let unfired =
    List.filter
      (fun p -> not (List.mem_assoc p s.s_fires_by_point))
      (Chaos.armed_points scenario)
  in
  let problems =
    List.filter_map
      (fun (holds, msg) -> if holds then None else Some msg)
      ((s.s_violating = [], "auditor violations")
       :: List.map (fun p -> (false, "armed point " ^ p ^ " never fired")) unfired
      @ gates s)
  in
  if problems <> [] then begin
    List.iter
      (fun m -> Printf.printf "E11 FAILED (%s): %s\n" scenario.Chaos.name m)
      problems;
    exit 1
  end;
  print_endline (ok s)

let kernel ~seeds_per_plan =
  Printf.printf "base seed: 0x%X   (rerun: every cycle is a pure function of it)\n"
    Chaos.kernel.base_seed;
  stage Chaos.kernel ~seeds_per_plan ~fires:"E11: fires per fault point"
    ~title:"E11: soak summary"
    ~rows:(fun all s ->
      [
        cycles s;
        with_fire s;
        ("distinct points fired", List.length s.s_fires_by_point);
        kills s;
        ( "stable ops re-delivered by audits",
          List.fold_left
            (fun acc (c : Chaos.cycle) -> acc + c.c_redelivered)
            0 all );
      ])
    ~counters:
      [
        "tc.resends";
        "tc.request_timeouts";
        "tc.recoveries";
        "tc.control_resends";
        "transport.delivered";
        "transport.control_delivered";
        "transport.dropped";
        "transport.duplicated";
        "transport.frames_corrupted";
        "transport.corrupt_dropped";
        "transport.flush_delivered";
        "dc.dup_absorbed";
        "dc.control_dups_absorbed";
        "disk.io_retries";
        "disk.torn_writes";
        "disk.torn_pages_detected";
      ]
    ~gates:(fun s ->
      [ (s.s_fired >= 200 || seeds_per_plan < 5, "fewer than 200 fired cycles") ])
    ~ok:(fun s ->
      Printf.sprintf "E11 ok: %d cycles, %d fired, %d distinct points, 0 violations"
        s.s_cycles s.s_fired (List.length s.s_fires_by_point))

(* The crashed partition recovers alone while its siblings keep
   serving; the deployment auditor checks every partition plus the
   merged oracle. *)
let partitioned ~seeds_per_plan =
  stage Chaos.partitioned ~seeds_per_plan
    ~fires:"E11: partitioned soak (1 TC x 3 DCs), fires per point"
    ~title:"E11: partitioned soak summary"
    ~rows:(fun _ s -> [ cycles s; with_fire s; kills s ])
    ~gates:(fun s -> [ (s.s_cycles >= 50, "fewer than 50 partitioned cycles") ])
    ~ok:(fun s ->
      Printf.sprintf
        "E11 partitioned ok: %d cycles over 3 partitions, %d kills, 0 violations"
        s.s_cycles s.s_crashes)

(* Kills at the shipped-batch boundary are answered by standby
   promotion; standby-side kills crash and rejoin the standby.  The
   auditor holds every surviving standby to parity with its primary. *)
let replicated ~seeds_per_plan =
  stage Chaos.replicated ~seeds_per_plan
    ~fires:"E11: replicated soak (1 TC x 2 DCs x 2 standbys), fires per point"
    ~title:"E11: replicated soak summary"
    ~rows:(fun _ s ->
      [
        cycles s;
        with_fire s;
        kills s;
        ("standby promotions", counter s "repl.promotions");
        ("batches shipped", counter s "repl.ships");
      ])
    ~gates:(fun s ->
      [ (counter s "repl.promotions" >= 1, "no standby was ever promoted") ])
    ~ok:(fun s ->
      Printf.sprintf
        "E11 replicated ok: %d cycles, %d kills, %d promotions, 0 violations"
        s.s_cycles s.s_crashes (counter s "repl.promotions"))

(* The promotion must catch the laggard up from the retained log — or,
   under the forced-lease-expiry plan, refuse and cold-restart.  Either
   way the auditor must find every acked commit. *)
let detach ~seeds_per_plan =
  stage Chaos.detach ~seeds_per_plan
    ~fires:
      "E11: detach/checkpoint/promote soak (1 TC x 2 DCs x 1 standby), fires \
       per point"
    ~title:"E11: detach soak summary"
    ~rows:(fun _ s ->
      [
        cycles s;
        kills s;
        ("laggard promotions", counter s "repl.promotions");
        ( "promotions refused (cold restart instead)",
          counter s "repl.promote_refusals" );
        ("catch-up ops re-shipped at promotion", counter s "repl.catchup_ops");
        ("retention leases expired", counter s "repl.lease_expirations");
      ])
    ~gates:(fun s ->
      [
        (counter s "repl.promotions" >= 1, "no laggard was ever promoted");
        ( counter s "repl.catchup_ops" >= 1,
          "promotion never had to catch a laggard up" );
        ( counter s "repl.promote_refusals" >= 1,
          "forced lease expiry never produced a refusal" );
        ( counter s "repl.lease_expirations" >= 1,
          "no retention lease ever expired" );
      ])
    ~ok:(fun s ->
      Printf.sprintf
        "E11 detach ok: %d cycles, %d promotions (%d catch-up ops), %d refusals, \
         0 violations"
        s.s_cycles (counter s "repl.promotions") (counter s "repl.catchup_ops")
        (counter s "repl.promote_refusals"))

(* The auditor runs per TC and includes the cross-TC watermark check, so
   the victim's crash leaking into the survivor's watermark slots — or a
   checkpoint truncating the other TC's redo window — is a violation. *)
let mtc ~seeds_per_plan =
  stage Chaos.mtc ~seeds_per_plan
    ~title:"E11: multi-TC front-end soak (2 TCs x 2 DCs) summary"
    ~rows:(fun _ s ->
      [
        cycles s;
        ("injected TC kills", s.s_crashes);
        ("transactions admitted", counter s "front.admitted");
        ("admissions shed", counter s "front.shed");
        ("commits that rode a batch", counter s "front.batched");
        ("misattributed frames", counter s "dc.misattributed");
      ])
    ~gates:(fun s ->
      [
        (s.s_crashes >= s.s_cycles, "a cycle never killed its TC");
        (counter s "front.admitted" > 0, "the front never admitted work");
        (counter s "front.batched" > 0, "group commit never batched");
      ])
    ~ok:(fun s ->
      Printf.sprintf
        "E11 multi-TC ok: %d cycles, %d TC kills under load, 0 violations"
        s.s_cycles s.s_crashes)

(* The audit holds every merged entry table to exact parity with the
   image of the surviving primary rows. *)
let indexed ~seeds_per_plan =
  stage Chaos.indexed ~seeds_per_plan
    ~fires:"E11: indexed soak (1 TC x 2 DCs, 2 secondary indexes), fires per point"
    ~title:"E11: indexed soak summary"
    ~rows:(fun _ s -> [ cycles s; with_fire s; kills s ])
    ~gates:(fun s -> [ (s.s_crashes >= 1, "no cycle ever killed a component") ])
    ~ok:(fun s ->
      Printf.sprintf
        "E11 indexed ok: %d cycles, %d kills, index parity clean, 0 violations"
        s.s_cycles s.s_crashes)

(* The audit adds branch parity: the branch tracks its own shadow map
   and the shared prefix at the fork point stays bit-identical. *)
let branch ~seeds_per_plan =
  stage Chaos.branch ~seeds_per_plan
    ~fires:"E11: branch soak (1 TC x 2 DCs + CoW branch), fires per point"
    ~title:"E11: branch soak summary"
    ~rows:(fun _ s -> [ cycles s; with_fire s; kills s ])
    ~gates:(fun s -> [ (s.s_crashes >= 1, "no cycle ever killed a component") ])
    ~ok:(fun s ->
      Printf.sprintf
        "E11 branch ok: %d cycles, %d kills, branch parity clean, 0 violations"
        s.s_cycles s.s_crashes)

let bank ~seeds_per_plan =
  let specs = List.length Chaos.bank.plans in
  stage Chaos.bank ~seeds_per_plan ~title:"E11: workload-bank soak summary"
    ~rows:(fun _ s ->
      [ ("bank specs", specs); cycles s; ("injected DC/TC kills", s.s_crashes) ])
    ~gates:(fun s ->
      [ (s.s_crashes >= s.s_cycles, "a workload cycle never killed a component") ])
    ~ok:(fun s ->
      Printf.sprintf
        "E11 workload bank ok: %d cycles over %d specs, %d kills, 0 violations"
        s.s_cycles specs s.s_crashes)

let stages = [ kernel; partitioned; replicated; detach; mtc; indexed; branch; bank ]

let run () =
  List.iter2
    (fun stage seeds_per_plan -> stage ~seeds_per_plan)
    stages [ 7; 7; 5; 4; 6; 6; 4; 4 ]

(* Short fixed-seed soak for the @chaos dune alias (which @ci includes):
   every scenario at a few seeds per plan — the partitioned stage at
   four, so every CI run covers at least 50 partitioned cycles. *)
let run_short () =
  List.iter2
    (fun stage seeds_per_plan -> stage ~seeds_per_plan)
    stages [ 1; 4; 3; 2; 2; 2; 1; 1 ]
