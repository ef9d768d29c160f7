(* E15 — secondary-index maintenance cost.

   An index entry is an ordinary record maintained through the normal
   TC dispatch path inside the user's transaction (Section 3's logical
   multi-record operations), so every index adds entry writes — and
   their messages, locks and log bytes — to the primary write path.
   This experiment prices that choice:

   - the same write mix over the same partitioned deployment with 0, 1
     and 2 secondary indexes, reporting txns/s, per-transaction cost
     and messages per committed transaction;
   - a Zipfian skew sweep of the differential [indexed_zipf] chaos
     scenario (hot keys concentrate entry churn on few secondary keys, which
     under secondary-hash placement concentrates it on one partition).

   Acceptance gate: with one secondary index the per-transaction write
   cost stays within 2x the unindexed write path, every index-parity
   audit is clean, and every sweep point finishes with zero
   differential violations. *)

open Bench_util
module Deploy = Untx_cloud.Deploy
module Index = Untx_index.Index
module Chaos = Untx_audit.Chaos
module Audit = Untx_audit.Audit
module Instrument = Untx_util.Instrument

let table = "items"

let extract_cat ~key:_ ~value =
  match String.index_opt value ':' with
  | Some i -> [ String.sub value 0 i ]
  | None -> []

let extract_len ~key:_ ~value =
  [ Printf.sprintf "len%02d" (String.length value / 16) ]

let all_indexes =
  [ ("by_cat", extract_cat); ("by_len", extract_len) ]

let make_deploy ~n_indexes () =
  let counters = Instrument.create () in
  let idx = Index.create () in
  let d = Deploy.create ~counters ~seed:15 () in
  ignore
    (Deploy.add_tc d ~name:"tc1"
       (Tc.default_config (Tc_id.of_int 1)));
  let dc_names = [ "dc0"; "dc1" ] in
  List.iter
    (fun name -> ignore (Deploy.add_dc d ~name Dc.default_config))
    dc_names;
  let indexes =
    List.filteri (fun i _ -> i < n_indexes) all_indexes
  in
  if indexes = [] then
    Deploy.add_partitioned_table d ~name:table ~versioned:true ~dcs:dc_names ()
  else
    Deploy.add_indexed_table d ~idx ~name:table ~versioned:true ~dcs:dc_names
      ~indexes ();
  (d, idx, counters)

(* The same seeded write mix against every variant: mostly inserts
   until the working set fills, then updates (which on an indexed
   table cost an extra read to diff old vs new entries) with a sprinkle
   of deletes.  Indexed variants route through the Index wrappers,
   the unindexed one through Tc directly — exactly the two code paths
   an application would use. *)
let run_writes ~txns ~ops (d, idx, _) ~indexed =
  let tc = Deploy.tc d "tc1" in
  let rng = Random.State.make [| 0xE15 |] in
  let live = Hashtbl.create 512 in
  let committed = ref 0 in
  for _ = 1 to txns do
    let txn = Tc.begin_txn tc in
    let ok = ref true in
    let staged = ref [] in
    for _ = 1 to ops do
      if !ok then begin
        let k = Random.State.int rng 2_000 in
        let key = Printf.sprintf "k%05d" k in
        let value =
          Printf.sprintf "c%d:v-%06d-%024d" (k mod 7)
            (Random.State.int rng 1_000_000)
            k
        in
        let r =
          if Hashtbl.mem live key then
            if Random.State.float rng 1.0 < 0.1 then begin
              staged := (key, None) :: !staged;
              if indexed then Index.delete idx tc txn ~table ~key
              else Tc.delete tc txn ~table ~key
            end
            else begin
              staged := (key, Some ()) :: !staged;
              if indexed then Index.update idx tc txn ~table ~key ~value
              else Tc.update tc txn ~table ~key ~value
            end
          else begin
            staged := (key, Some ()) :: !staged;
            if indexed then Index.insert idx tc txn ~table ~key ~value
            else Tc.insert tc txn ~table ~key ~value
          end
        in
        match r with
        | `Ok () -> ()
        | `Blocked | `Fail _ ->
          ok := false;
          Tc.abort tc txn ~reason:"e15: refused op"
      end
    done;
    if !ok then
      match Tc.commit tc txn with
      | `Ok () ->
        incr committed;
        List.iter
          (fun (key, v) ->
            match v with
            | Some () -> Hashtbl.replace live key ()
            | None -> Hashtbl.remove live key)
          (List.rev !staged)
      | `Blocked | `Fail _ -> ()
  done;
  !committed

let run_cost_comparison () =
  let txns = 1_500 and ops = 4 in
  let variant n_indexes =
    let ((d, idx, counters) as env) = make_deploy ~n_indexes () in
    let committed, t =
      time (fun () -> run_writes ~txns ~ops env ~indexed:(n_indexes > 0))
    in
    Deploy.quiesce d;
    let parity =
      if n_indexes = 0 then [] else Audit.check_index d ~idx ~table
    in
    (n_indexes, committed, t, Instrument.get counters "transport.delivered",
     parity)
  in
  let results = List.map variant [ 0; 1; 2 ] in
  let cost_of (_, committed, t, _, _) =
    t *. 1000. /. float_of_int (max 1 committed)
  in
  let base = cost_of (List.hd results) in
  print_table
    ~title:
      (Printf.sprintf
         "E15  Indexed vs unindexed write path (%d txns x %d writes, 2 \
          partitions, versioned)"
         txns ops)
    ~header:
      [ "secondary indexes"; "txns/s"; "ms/txn"; "msgs/txn"; "vs unindexed";
        "index parity" ]
    (List.map
       (fun ((n, committed, t, msgs, parity) as r) ->
         [
           string_of_int n;
           fmt_f (float_of_int committed /. t);
           fmt_f2 (cost_of r);
           fmt_f2 (per msgs committed);
           fmt_f2 (cost_of r /. base);
           (if n = 0 then "-"
            else if parity = [] then "clean"
            else Printf.sprintf "%d VIOLATIONS" (List.length parity));
         ])
       results);
  List.iter
    (fun (n, _, _, _, parity) ->
      List.iter
        (fun v -> Printf.printf "E15 parity (%d indexes): %s\n" n v)
        parity)
    results;
  let _, _, _, _, parity1 = List.nth results 1 in
  let overhead1 = cost_of (List.nth results 1) /. base in
  (overhead1, List.concat_map (fun (_, _, _, _, p) -> p) results, parity1)

let run_skew_sweep () =
  let base =
    List.find (fun (s : Chaos.scenario) -> s.name = "indexed_zipf") Chaos.bank
  in
  let sweep = [ 0.0; 0.5; 0.9; 0.99 ] in
  let rows, violations =
    List.fold_left
      (fun (rows, violations) theta ->
        let s = { base with mix = { base.mix with theta } } in
        let c, t =
          time (fun () ->
              Chaos.run_cycle s
                ~label:(Printf.sprintf "theta=%.2f" theta)
                ~plan:[] ~seed:0xE15 ~txns:150)
        in
        let row =
          [
            fmt_f2 theta;
            string_of_int c.c_committed;
            string_of_int c.c_crashes;
            string_of_int (List.fold_left (fun a (_, n) -> a + n) 0 c.c_checks);
            fmt_f (float_of_int c.c_committed /. t);
            string_of_int (List.length c.c_violations);
          ]
        in
        (rows @ [ row ], violations @ c.c_violations))
      ([], []) sweep
  in
  print_table
    ~title:
      "E15  Zipfian skew sweep: differential indexed_zipf chaos cycle (150 \
       txns, 2 indexes, scripted kills)"
    ~header:
      [ "theta"; "committed"; "crashes"; "diff checks"; "txns/s"; "violations" ]
    rows;
  List.iter (fun v -> Printf.printf "E15 sweep violation: %s\n" v) violations;
  violations

let run () =
  let overhead1, parity_violations, _ = run_cost_comparison () in
  let sweep_violations = run_skew_sweep () in
  let problems =
    List.filter_map
      (fun (ok, msg) -> if ok then None else Some msg)
      [
        ( overhead1 <= 2.0,
          Printf.sprintf
            "1-index write path costs %.2fx the unindexed path (gate: 2x)"
            overhead1 );
        (parity_violations = [], "index-parity violations after the cost runs");
        (sweep_violations = [], "differential violations in the skew sweep");
      ]
  in
  if problems <> [] then begin
    List.iter (fun m -> Printf.printf "E15 FAILED: %s\n" m) problems;
    exit 1
  end;
  Printf.printf
    "E15 ok: 1-index overhead %.2fx (gate 2x), index parity clean, skew \
     sweep violation-free\n"
    overhead1
