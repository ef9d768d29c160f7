(* Direct Data Component tests: the component is driven with raw wire
   requests, bypassing any TC, to pin down the Section 4/5 contracts —
   idempotence under duplication and out-of-LSN-order arrival, causality
   (the unbundled WAL rule), the three page-sync policies, checkpoint
   grants, and DC-log recovery ordering. *)

module Dc = Untx_dc.Dc
module Stored_record = Untx_dc.Stored_record
module Wire = Untx_msg.Wire
module Op = Untx_msg.Op
module Lsn = Untx_util.Lsn
module Tc_id = Untx_util.Tc_id
module Cache = Untx_storage.Cache
module Disk = Untx_storage.Disk

let tc1 = Tc_id.of_int 1

let lsn = Lsn.of_int

let mk ?(sync_policy = Dc.Full_ablsn) ?(page_capacity = 256) () =
  let dc =
    Dc.create
      {
        Dc.page_capacity;
        cache_pages = 64;
        sync_policy;
        tc_reset_mode = Dc.Selective;
        debug_checks = true;
      }
  in
  Dc.create_table dc ~name:"t" ~versioned:false;
  Dc.create_table dc ~name:"vt" ~versioned:true;
  dc

let req ?(tc = tc1) l op = { Wire.tc; lsn = lsn l; part = 0; op }

let insert ?tc ?(table = "t") l key value =
  req ?tc l (Op.Insert { table; key; value })

let update ?tc ?(table = "t") l key value =
  req ?tc l (Op.Update { table; key; value })

let read ?tc ?(table = "t") key =
  req ?tc 0 (Op.Read { table; key; mode = Op.Own })

let value_of dc r =
  match (Dc.perform dc r).Wire.result with Wire.Value v -> v | _ -> None

let eosl dc l = ignore (Dc.control dc (Wire.End_of_stable_log { tc = tc1; eosl = lsn l }))

let lwm dc l = ignore (Dc.control dc (Wire.Low_water_mark { tc = tc1; lwm = lsn l }))

let test_duplicate_absorbed () =
  let dc = mk () in
  let r = insert 5 "k" "v" in
  let rep1 = Dc.perform dc r in
  let rep2 = Dc.perform dc r in
  Alcotest.(check bool) "first done" true (rep1.Wire.result = Wire.Done);
  Alcotest.(check bool) "dup done" true (rep2.Wire.result = Wire.Done);
  Alcotest.(check int) "one absorption" 1 (Dc.dup_absorbed dc);
  Alcotest.(check (option string)) "applied once" (Some "v")
    (value_of dc (read "k"))

let test_duplicate_preserves_reply () =
  let dc = mk () in
  ignore (Dc.perform dc (insert 1 "k" "v0"));
  let r = update 2 "k" "v1" in
  let rep1 = Dc.perform dc r in
  let rep2 = Dc.perform dc r in
  Alcotest.(check (option string)) "prior on first" (Some "v0") rep1.Wire.prior;
  Alcotest.(check (option string)) "memoized prior on resend" (Some "v0")
    rep2.Wire.prior;
  Alcotest.(check (option string)) "not double-applied" (Some "v1")
    (value_of dc (read "k"))

let test_out_of_order_arrival () =
  let dc = mk () in
  (* higher-LSN operation reaches the page first *)
  ignore (Dc.perform dc (insert 20 "b" "later"));
  ignore (Dc.perform dc (insert 10 "a" "earlier"));
  Alcotest.(check (option string)) "both applied" (Some "earlier")
    (value_of dc (read "a"));
  (* resends of both are still absorbed *)
  ignore (Dc.perform dc (insert 20 "b" "later"));
  ignore (Dc.perform dc (insert 10 "a" "earlier"));
  Alcotest.(check int) "both dups absorbed" 2 (Dc.dup_absorbed dc)

let test_causality_blocks_flush () =
  let dc = mk () in
  ignore (Dc.perform dc (insert 5 "k" "v"));
  (* EOSL has not covered lsn 5: the page must not reach the disk *)
  Dc.flush_all dc;
  Alcotest.(check bool) "dirty page remains" true
    (Cache.dirty_pages (Dc.cache dc) <> []);
  eosl dc 5;
  Dc.flush_all dc;
  Alcotest.(check (list Alcotest.reject)) "all flushed" []
    (List.map (fun _ -> assert false) (Cache.dirty_pages (Dc.cache dc)))

let test_sync_policy_stall () =
  let dc = mk ~sync_policy:Dc.Stall_until_lwm () in
  ignore (Dc.perform dc (insert 5 "k" "v"));
  eosl dc 5;
  (* causality satisfied, but the {LSNin} set is non-empty: option 1
     refuses the flush until the low-water mark covers it *)
  Dc.flush_all dc;
  Alcotest.(check bool) "stalled" true (Cache.dirty_pages (Dc.cache dc) <> []);
  lwm dc 5;
  Dc.flush_all dc;
  Alcotest.(check bool) "flushes after LWM" true
    (Cache.dirty_pages (Dc.cache dc) = [])

let test_sync_policy_bounded () =
  let dc = mk ~sync_policy:(Dc.Bounded 2) () in
  ignore (Dc.perform dc (insert 5 "a" "v"));
  ignore (Dc.perform dc (insert 6 "b" "v"));
  ignore (Dc.perform dc (insert 7 "c" "v"));
  eosl dc 7;
  (* three members > bound 2 on the single leaf *)
  Dc.flush_all dc;
  Alcotest.(check bool) "bounded stalls at 3" true
    (Cache.dirty_pages (Dc.cache dc) <> []);
  lwm dc 5;
  (* now two members remain: within bound *)
  Dc.flush_all dc;
  Alcotest.(check bool) "flushes within bound" true
    (Cache.dirty_pages (Dc.cache dc) = [])

let test_checkpoint_grant () =
  let dc = mk () in
  ignore (Dc.perform dc (insert 5 "k" "v"));
  (* cannot advance past an unflushable page (EOSL still zero) *)
  (match Dc.control dc (Wire.Checkpoint { tc = tc1; new_rssp = lsn 6 }) with
  | Wire.Checkpoint_done { granted } ->
    Alcotest.(check bool) "not granted" false granted
  | Wire.Ack -> Alcotest.fail "wrong reply");
  eosl dc 5;
  lwm dc 5;
  (match Dc.control dc (Wire.Checkpoint { tc = tc1; new_rssp = lsn 6 }) with
  | Wire.Checkpoint_done { granted } ->
    Alcotest.(check bool) "granted once stable" true granted
  | Wire.Ack -> Alcotest.fail "wrong reply")

let test_versioned_visibility_at_dc () =
  let dc = mk () in
  ignore (Dc.perform dc (insert 1 ~table:"vt" "k" "v0"));
  ignore
    (Dc.perform dc (req 2 (Op.Commit_versions { table = "vt"; keys = [ "k" ] })));
  ignore (Dc.perform dc (update 3 ~table:"vt" "k" "v1"));
  let get mode =
    match
      (Dc.perform dc (req 0 (Op.Read { table = "vt"; key = "k"; mode })))
        .Wire.result
    with
    | Wire.Value v -> v
    | _ -> None
  in
  Alcotest.(check (option string)) "own sees new" (Some "v1") (get Op.Own);
  Alcotest.(check (option string)) "dirty sees new" (Some "v1") (get Op.Dirty);
  Alcotest.(check (option string)) "committed sees before" (Some "v0")
    (get Op.Committed);
  ignore
    (Dc.perform dc (req 4 (Op.Abort_versions { table = "vt"; keys = [ "k" ] })));
  Alcotest.(check (option string)) "abort restores" (Some "v0") (get Op.Own)

let test_versioned_delete_tombstone () =
  let dc = mk () in
  ignore (Dc.perform dc (insert 1 ~table:"vt" "k" "v0"));
  ignore
    (Dc.perform dc (req 2 (Op.Commit_versions { table = "vt"; keys = [ "k" ] })));
  ignore (Dc.perform dc (req 3 (Op.Delete { table = "vt"; key = "k" })));
  let get mode =
    match
      (Dc.perform dc (req 0 (Op.Read { table = "vt"; key = "k"; mode })))
        .Wire.result
    with
    | Wire.Value v -> v
    | _ -> None
  in
  Alcotest.(check (option string)) "own sees tombstone" None (get Op.Own);
  Alcotest.(check (option string)) "committed still sees old" (Some "v0")
    (get Op.Committed);
  ignore
    (Dc.perform dc (req 4 (Op.Commit_versions { table = "vt"; keys = [ "k" ] })));
  Alcotest.(check (option string)) "commit removes record" None
    (get Op.Committed);
  Alcotest.(check int) "record physically gone" 0
    (List.length (Dc.dump_table dc "vt"))

let test_multi_key_same_page () =
  let dc = mk () in
  ignore (Dc.perform dc (insert 1 ~table:"vt" "a" "1"));
  ignore (Dc.perform dc (insert 2 ~table:"vt" "b" "2"));
  (* both keys on one page; one housekeeping op must strip both *)
  let r = req 3 (Op.Commit_versions { table = "vt"; keys = [ "a"; "b" ] }) in
  ignore (Dc.perform dc r);
  List.iter
    (fun (_, record) ->
      Alcotest.(check bool) "before stripped" true
        (record.Stored_record.before = Stored_record.Absent))
    (Dc.dump_table dc "vt");
  (* and its duplicate is fully absorbed *)
  ignore (Dc.perform dc r);
  Alcotest.(check bool) "dup absorbed" true (Dc.dup_absorbed dc >= 2)

let test_dc_recovery_preserves_splits () =
  let dc = mk ~page_capacity:128 () in
  for i = 1 to 200 do
    ignore
      (Dc.perform dc (insert i (Printf.sprintf "k%04d" i) "vvvvvvvvvvvv"))
  done;
  eosl dc 200;
  lwm dc 200;
  Alcotest.(check bool) "splits happened" true (Dc.splits dc > 0);
  Dc.flush_all dc;
  Dc.crash dc;
  Dc.recover dc;
  (match Dc.check dc with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("ill-formed after recover: " ^ m));
  Alcotest.(check int) "all records stable" 200
    (List.length (Dc.dump_table dc "t"))

let test_dc_recovery_empty_redo_target () =
  (* Records never flushed: recovery rebuilds well-formed (possibly
     empty) structures; a redo resend then repopulates them. *)
  let dc = mk ~page_capacity:128 () in
  for i = 1 to 120 do
    ignore (Dc.perform dc (insert i (Printf.sprintf "k%04d" i) "vvvvvvvv"))
  done;
  Dc.crash dc;
  Dc.recover dc;
  (match Dc.check dc with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* resend everything with original ids *)
  for i = 1 to 120 do
    ignore (Dc.perform dc (insert i (Printf.sprintf "k%04d" i) "vvvvvvvv"))
  done;
  Alcotest.(check int) "repopulated exactly once" 120
    (List.length (Dc.dump_table dc "t"))

let test_self_checkpoint_truncates_dc_log () =
  let dc = mk ~page_capacity:128 () in
  for i = 1 to 200 do
    ignore (Dc.perform dc (insert i (Printf.sprintf "k%04d" i) "vvvvvvvvvvvv"))
  done;
  eosl dc 200;
  lwm dc 200;
  let records_before = Dc.dc_log_records dc in
  Alcotest.(check bool) "dc log populated" true (records_before > 0);
  Alcotest.(check bool) "self checkpoint" true (Dc.self_checkpoint dc);
  Alcotest.(check int) "dc log truncated" 0 (Dc.dc_log_records dc);
  (* recovery from master alone still works *)
  Dc.crash dc;
  Dc.recover dc;
  Alcotest.(check int) "state intact" 200 (List.length (Dc.dump_table dc "t"))

let test_unknown_table () =
  let dc = mk () in
  match (Dc.perform dc (insert 1 ~table:"nope" "k" "v")).Wire.result with
  | Wire.Failed _ -> ()
  | _ -> Alcotest.fail "expected failure"

let suite =
  [
    Alcotest.test_case "duplicate absorbed" `Quick test_duplicate_absorbed;
    Alcotest.test_case "duplicate preserves reply" `Quick
      test_duplicate_preserves_reply;
    Alcotest.test_case "out-of-order arrival" `Quick test_out_of_order_arrival;
    Alcotest.test_case "causality blocks flush" `Quick
      test_causality_blocks_flush;
    Alcotest.test_case "sync policy: stall-until-LWM" `Quick
      test_sync_policy_stall;
    Alcotest.test_case "sync policy: bounded" `Quick test_sync_policy_bounded;
    Alcotest.test_case "checkpoint grant" `Quick test_checkpoint_grant;
    Alcotest.test_case "versioned visibility" `Quick
      test_versioned_visibility_at_dc;
    Alcotest.test_case "versioned delete tombstone" `Quick
      test_versioned_delete_tombstone;
    Alcotest.test_case "multi-key op, one page" `Quick test_multi_key_same_page;
    Alcotest.test_case "recovery preserves splits" `Quick
      test_dc_recovery_preserves_splits;
    Alcotest.test_case "recovery of never-flushed data" `Quick
      test_dc_recovery_empty_redo_target;
    Alcotest.test_case "self checkpoint truncates DC-log" `Quick
      test_self_checkpoint_truncates_dc_log;
    Alcotest.test_case "unknown table fails" `Quick test_unknown_table;
  ]

(* --- further protocol edges ------------------------------------------- *)

let test_version_lifecycle_edges () =
  let dc = mk () in
  (* insert, delete, reinsert within one "transaction"'s version scope *)
  ignore (Dc.perform dc (insert 1 ~table:"vt" "k" "v1"));
  ignore (Dc.perform dc (req 2 (Op.Delete { table = "vt"; key = "k" })));
  ignore (Dc.perform dc (insert 3 ~table:"vt" "k" "v2"));
  let committed_view () =
    match
      (Dc.perform dc
         (req 0 (Op.Read { table = "vt"; key = "k"; mode = Op.Committed })))
        .Wire.result
    with
    | Wire.Value v -> v
    | _ -> None
  in
  Alcotest.(check (option string))
    "never-committed key invisible to committed readers" None
    (committed_view ());
  (* abort: the whole lifecycle disappears *)
  ignore
    (Dc.perform dc (req 4 (Op.Abort_versions { table = "vt"; keys = [ "k" ] })));
  Alcotest.(check int) "record gone after abort" 0
    (List.length (Dc.dump_table dc "vt"))

let test_double_update_keeps_first_before () =
  let dc = mk () in
  ignore (Dc.perform dc (insert 1 ~table:"vt" "k" "v0"));
  ignore
    (Dc.perform dc (req 2 (Op.Commit_versions { table = "vt"; keys = [ "k" ] })));
  ignore (Dc.perform dc (update 3 ~table:"vt" "k" "v1"));
  ignore (Dc.perform dc (update 4 ~table:"vt" "k" "v2"));
  (match Dc.dump_table dc "vt" with
  | [ (_, r) ] ->
    Alcotest.(check bool) "before is the committed v0" true
      (r.Stored_record.before = Stored_record.Value_before "v0")
  | _ -> Alcotest.fail "one record expected");
  ignore
    (Dc.perform dc (req 5 (Op.Abort_versions { table = "vt"; keys = [ "k" ] })));
  let own =
    match
      (Dc.perform dc (req 0 (Op.Read { table = "vt"; key = "k"; mode = Op.Own })))
        .Wire.result
    with
    | Wire.Value v -> v
    | _ -> None
  in
  Alcotest.(check (option string)) "abort restores the first before" (Some "v0")
    own

let test_memo_truncated_at_checkpoint () =
  let dc = mk () in
  ignore (Dc.perform dc (insert 5 "k" "v"));
  eosl dc 5;
  lwm dc 5;
  (match Dc.control dc (Wire.Checkpoint { tc = tc1; new_rssp = lsn 6 }) with
  | Wire.Checkpoint_done { granted } -> Alcotest.(check bool) "granted" true granted
  | Wire.Ack -> Alcotest.fail "wrong reply");
  (* a resend below the RSSP violates the terminated contract; the DC
     still answers (bare ack) and must not re-apply *)
  let r = Dc.perform dc (insert 5 "k" "SHOULD-NOT-APPLY") in
  Alcotest.(check bool) "acked" true (r.Wire.result = Wire.Done);
  Alcotest.(check (option string)) "not reapplied" (Some "v")
    (value_of dc (read "k"))

let test_memo_pruning_is_per_tc () =
  (* Two TCs' memoized replies share the DC's memo.  tc1's granted
     checkpoint may drop only tc1's entries below its RSSP, and tc2's
     restart only tc2's entries above its stable LSN. *)
  let tc2 = Tc_id.of_int 2 in
  let dc = mk () in
  let ctl m = ignore (Dc.control dc m) in
  let resend r = Dc.perform dc r in
  ignore (Dc.perform dc (insert 1 "a" "a0"));
  ignore (Dc.perform dc (update 2 "a" "a1"));
  ignore (Dc.perform dc (insert ~tc:tc2 1 "b" "b0"));
  ignore (Dc.perform dc (update ~tc:tc2 2 "b" "b1"));
  eosl dc 2;
  lwm dc 2;
  ctl (Wire.End_of_stable_log { tc = tc2; eosl = lsn 2 });
  (match Dc.control dc (Wire.Checkpoint { tc = tc1; new_rssp = lsn 3 }) with
  | Wire.Checkpoint_done { granted } -> Alcotest.(check bool) "granted" true granted
  | Wire.Ack -> Alcotest.fail "wrong reply");
  let r = resend (update 2 "a" "a1") in
  Alcotest.(check bool) "tc1 resend below the RSSP: acked" true
    (r.Wire.result = Wire.Done);
  Alcotest.(check (option string)) "tc1 resend below the RSSP: bare ack" None
    r.Wire.prior;
  Alcotest.(check (option string)) "tc2's memoized prior survives tc1's checkpoint"
    (Some "b0") (resend (update ~tc:tc2 2 "b" "b1")).Wire.prior;
  ignore (Dc.perform dc (update 5 "a" "a2"));
  ignore (Dc.perform dc (update ~tc:tc2 3 "b" "b2"));
  (* tc2 fails with only LSN 2 stable: its LSN-3 update is reset *)
  ctl (Wire.Restart_begin { tc = tc2; stable_lsn = lsn 2 });
  ctl (Wire.Restart_end { tc = tc2 });
  Alcotest.(check (option string)) "tc1's entry above tc2's stable LSN survives"
    (Some "a1") (resend (update 5 "a" "a2")).Wire.prior;
  Alcotest.(check (option string)) "tc2's stable entry survives" (Some "b0")
    (resend (update ~tc:tc2 2 "b" "b1")).Wire.prior;
  Alcotest.(check (option string)) "tc2's reset update is gone" (Some "b1")
    (value_of dc (read "b"));
  Alcotest.(check (option string)) "its redo applies afresh" (Some "b1")
    (resend (update ~tc:tc2 3 "b" "b2")).Wire.prior;
  Alcotest.(check (option string)) "redo applied" (Some "b2")
    (value_of dc (read "b"))

let test_bounded_zero_equals_stall () =
  let dc = mk ~sync_policy:(Dc.Bounded 0) () in
  ignore (Dc.perform dc (insert 5 "k" "v"));
  eosl dc 5;
  Dc.flush_all dc;
  Alcotest.(check bool) "bounded 0 stalls like option 1" true
    (Cache.dirty_pages (Dc.cache dc) <> []);
  lwm dc 5;
  Dc.flush_all dc;
  Alcotest.(check bool) "flushes after LWM" true
    (Cache.dirty_pages (Dc.cache dc) = [])

let test_suggested_rssp_monotone_under_flush () =
  let dc = mk ~page_capacity:128 () in
  for i = 1 to 100 do
    ignore (Dc.perform dc (insert i (Printf.sprintf "k%04d" i) "vvvv"))
  done;
  eosl dc 100;
  lwm dc 100;
  let s1 = Dc.suggested_rssp dc ~tc:tc1 in
  Dc.flush_all dc;
  let s2 = Dc.suggested_rssp dc ~tc:tc1 in
  Alcotest.(check bool) "monotone" true Lsn.(s2 >= s1);
  Alcotest.(check int) "fully flushed suggestion = eosl+1" 101
    (Lsn.to_int s2)

let suite =
  suite
  @ [
      Alcotest.test_case "version lifecycle edges" `Quick
        test_version_lifecycle_edges;
      Alcotest.test_case "double update keeps first before" `Quick
        test_double_update_keeps_first_before;
      Alcotest.test_case "memo truncated at checkpoint" `Quick
        test_memo_truncated_at_checkpoint;
      Alcotest.test_case "Bounded 0 = stall policy" `Quick
        test_bounded_zero_equals_stall;
      Alcotest.test_case "suggested RSSP monotone" `Quick
        test_suggested_rssp_monotone_under_flush;
      Alcotest.test_case "memo pruning is per TC" `Quick
        test_memo_pruning_is_per_tc;
    ]
