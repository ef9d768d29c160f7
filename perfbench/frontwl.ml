(* The front_repl workload: a [Deploy] of 2 TCs over 2 hash-partitioned
   DCs with one warm standby each, [Quorum 1] durability and layers on,
   driven through a [Front] of 8 sessions with group-commit batch 4.

   Each session keeps one transaction outstanding (a closed loop): two
   updates and one read over keys only that session touches, on its
   home TC's table.  Session keys are private, so a read's expected
   answer is exactly the session's own committed history — the oracle
   holds whatever order the front serves sessions in. *)

module Deploy = Untx_cloud.Deploy
module Front = Untx_front.Front
module Repl = Untx_repl.Repl
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Transport = Untx_kernel.Transport
module Metrics = Untx_obs.Metrics
module Tc_id = Untx_util.Tc_id
module Audit = Untx_audit.Audit

let l_submit = Spans.layer "front.submit"

let l_pump = Spans.layer "front.pump"

let l_poll = Spans.layer "front.poll"

let l_flush = Spans.layer "front.flush"

let l_checkpoint = Spans.layer "cloud.checkpoint"

let l_compact = Spans.layer "layer.compact"

let l_bench = Load.l_bench

let n_sessions = 8

let keys_per_session = 500

let tc_names = [ "tc1"; "tc2" ]

let dc_names = [ "dc1"; "dc2" ]

let batch = 4

let ckpt_every = 500

let compact_every = 1_000

let warmup = 3_000

let restart_batch = 500

(* Timed commits before the peak heap is read. *)
let heap_after = 20_000

(* Key choice within a session (uniform) and fresh values. *)
let key_spec =
  {
    Load.keys = keys_per_session; versioned = false; page_capacity = 0; cache_pages = 0;
    clients = n_sessions; theta = 0.; read_frac = 0.; scan_frac = 0.; scan_limit = 0;
    writes_per_txn = 2; ckpt_every;
  }

let table_of_tc name = "t" ^ String.sub name 2 (String.length name - 2)

let key_of s j = Printf.sprintf "s%d-k%05d" s j

type session = {
  sess : Front.session;
  sid : int;
  table : string;
  vals : string array;  (** committed value by key index *)
  mutable ticket : int option;
  mutable born : int;
  mutable want : string;  (** the read's expected answer *)
  mutable writes : (int * string) list;
}

type env = {
  d : Deploy.t;
  front : Front.t;
  counters : Metrics.t;
  sessions : session array;
  g : Load.gen;  (** keys within a session, and fresh values *)
  mutable attempted : int;
  mutable committed : int;
  mutable failed : int;  (** rejected or shed *)
  mutable since_ckpt : int;
  mutable since_compact : int;
  mutable checkpoints : int;
  mutable ckpt_refused : int;
  m : Load.mismatches;
  lat : Report.Hist.t;  (** ns, submit to result, per committed transaction *)
  mutable ckpt_ns : int list;
  mutable compact_ns : int list;
}

let preload e =
  Array.iter
    (fun s ->
      let tc = Front.tc_of_session e.front s.sess in
      let txn = Tc.begin_txn tc in
      Array.iteri
        (fun j v ->
          Load.ok "preload" (Tc.insert tc txn ~table:s.table ~key:(key_of s.sid j) ~value:v))
        s.vals;
      Load.ok "preload commit" (Tc.commit tc txn))
    e.sessions;
  Front.flush e.front;
  Deploy.quiesce e.d;
  Deploy.settle_replicas e.d;
  ignore (Deploy.checkpoint_all e.d)

(* --- the closed loop ---------------------------------------------------- *)

(* Two updates and a read on three distinct keys of the session. *)
let submit e s =
  let ks = Array.of_list (Spans.with_ l_bench (fun () -> Load.distinct_keys e.g 3)) in
  let w1 = (ks.(0), Load.value e.g) and w2 = (ks.(1), Load.value e.g) in
  let upd (k, v) = Front.Update { table = s.table; key = key_of s.sid k; value = v } in
  let ops = [ upd w1; Front.Read { table = s.table; key = key_of s.sid ks.(2) }; upd w2 ] in
  s.born <- Spans.now_ns ();
  e.attempted <- e.attempted + 1;
  match Spans.with_ l_submit (fun () -> Front.submit e.front s.sess ops) with
  | `Ticket t ->
    s.ticket <- Some t;
    s.want <- s.vals.(ks.(2));
    s.writes <- [ w1; w2 ]
  | `Overloaded _ -> e.failed <- e.failed + 1

let settle e s t =
  Spans.set_txn t;
  match Spans.with_ l_poll (fun () -> Front.poll e.front t) with
  | `Pending -> ()
  | `Done r ->
    let now = Spans.now_ns () in
    s.ticket <- None;
    (match r with
    | Front.Committed reads ->
      Spans.with_ l_bench (fun () ->
          if reads <> [ Some s.want ] then
            Load.mismatch e.m
              (Printf.sprintf "session %d read: got %s, committed %s" s.sid
                 (String.concat "," (List.map (Option.value ~default:"<none>") reads))
                 s.want);
          List.iter (fun (k, v) -> s.vals.(k) <- v) s.writes);
      e.committed <- e.committed + 1;
      Report.Hist.add e.lat (now - s.born);
      e.since_ckpt <- e.since_ckpt + 1;
      e.since_compact <- e.since_compact + 1
    | Front.Rejected _ -> e.failed <- e.failed + 1)

let timed l f =
  let t0 = Spans.now_ns () in
  let r = Spans.with_ l f in
  (r, Spans.now_ns () - t0)

let maintenance e =
  if e.since_ckpt >= ckpt_every then begin
    e.since_ckpt <- 0;
    let ok, ns = timed l_checkpoint (fun () -> Deploy.checkpoint_all e.d) in
    e.ckpt_ns <- ns :: e.ckpt_ns;
    if ok then e.checkpoints <- e.checkpoints + 1
    else e.ckpt_refused <- e.ckpt_refused + 1
  end;
  if e.since_compact >= compact_every then begin
    e.since_compact <- 0;
    (* compaction, then history below the redo-scan start point folds
       into a snapshot layer, so the layer store stays bounded *)
    let (), ns =
      timed l_compact (fun () ->
          List.iter
            (fun tc ->
              Repl.Manager.compact_layers (Deploy.manager e.d ~tc);
              ignore (Deploy.truncate_history ~tc e.d ~below:(Tc.rssp (Deploy.tc e.d tc))))
            tc_names)
    in
    e.compact_ns <- ns :: e.compact_ns
  end

(* Run the sessions until [more ()] turns false, then let the
   outstanding transactions finish.  [maintain] runs the periodic
   checkpoints and compactions. *)
let run ?(maintain = true) e ~more =
  let live () = Array.exists (fun s -> s.ticket <> None) e.sessions in
  let continue = ref true in
  while !continue || live () do
    if !continue && not (more ()) then continue := false;
    if !continue then
      Array.iter (fun s -> if s.ticket = None then submit e s) e.sessions;
    ignore (Spans.with_ l_pump (fun () -> Front.pump ~budget:1 e.front));
    Array.iter (fun s -> Option.iter (settle e s) s.ticket) e.sessions;
    if maintain then maintenance e
  done

let run_n ?maintain e n =
  let target = e.committed + e.failed + n in
  run ?maintain e ~more:(fun () -> e.committed + e.failed < target)

(* One slice of the timed phase. *)
let slice e =
  Report.deadline_slice ~lat:e.lat ~committed:(fun () -> e.committed) (fun ~more -> run e ~more)

let setup ~seed =
  let counters = Metrics.create () in
  let d =
    Deploy.create ~counters ~policy:Transport.reliable ~durability:(Repl.Quorum 1)
      ~layers:true ~seed ()
  in
  List.iteri
    (fun i name -> ignore (Deploy.add_tc d ~name (Tc.default_config (Tc_id.of_int (i + 1)))))
    tc_names;
  List.iter
    (fun name ->
      ignore (Deploy.add_dc d ~name { Dc.default_config with cache_pages = 1024 }))
    dc_names;
  List.iter
    (fun tc ->
      Deploy.add_partitioned_table d ~name:(table_of_tc tc) ~versioned:false ~replicas:1
        ~dcs:dc_names ())
    tc_names;
  let front =
    Front.create ~counters ~cfg:{ Front.default_config with batch } d
  in
  let sessions =
    Array.init n_sessions (fun _ ->
        let sess = Front.open_session front in
        let sid = Front.session_id sess in
        {
          sess; sid; table = table_of_tc (Front.session_tc sess);
          vals = Array.init keys_per_session (fun j -> Printf.sprintf "init-%d-%d-%d" seed sid j);
          ticket = None; born = 0; want = ""; writes = [];
        })
  in
  let e =
    {
      d; front; counters; sessions; g = Load.gen key_spec ~seed; attempted = 0;
      committed = 0; failed = 0; since_ckpt = 0; since_compact = 0; checkpoints = 0;
      ckpt_refused = 0; m = Load.mismatches (); lat = Report.Hist.create ();
      ckpt_ns = []; compact_ns = [];
    }
  in
  preload e;
  run_n e warmup;
  e

(* Fresh counters for the timed phase (the warm-up is set-up). *)
let reset_stats e =
  e.attempted <- 0;
  e.committed <- 0;
  e.failed <- 0;
  e.ckpt_ns <- [];
  e.compact_ns <- []

(* --- restarts and checks ------------------------------------------------ *)

(* Read every session key on its home TC and hold it to the oracle. *)
let verify e =
  Array.iter
    (fun s ->
      let tc = Front.tc_of_session e.front s.sess in
      let txn = Tc.begin_txn tc in
      Array.iteri
        (fun j v ->
          let got = Load.ok "verify read" (Tc.read tc txn ~table:s.table ~key:(key_of s.sid j)) in
          if got <> Some v then
            Load.mismatch e.m
              (Printf.sprintf "after restart, %s: got %s, committed %s" (key_of s.sid j)
                 (Option.value got ~default:"<none>") v))
        s.vals;
      Load.ok "verify commit" (Tc.commit tc txn))
    e.sessions

(* One cycle: checkpoint; a batch; a timed [Deploy.crash_dc]; verify;
   checkpoint; a batch; a timed [Deploy.crash_tc]; verify.  The batches
   run without periodic checkpoints, so each restart redoes the same
   amount.  Acknowledged commits are forced ([Front.drain]) before each
   crash: commits still riding an open group-commit batch are not
   durable by design. *)
let restart_cycle e =
  let crash f =
    Front.drain e.front;
    Gc.full_major ();
    let t0 = Spans.now_ns () in
    f ();
    let ns = Spans.now_ns () - t0 in
    verify e;
    ns
  in
  let checkpoint () =
    Front.drain e.front;
    Deploy.quiesce e.d;
    if Deploy.checkpoint_all e.d then e.checkpoints <- e.checkpoints + 1
    else e.ckpt_refused <- e.ckpt_refused + 1
  in
  checkpoint ();
  run_n ~maintain:false e restart_batch;
  let dc_ns = crash (fun () -> Deploy.crash_dc e.d "dc1") in
  checkpoint ();
  run_n ~maintain:false e restart_batch;
  let tc_ns = crash (fun () -> Deploy.crash_tc e.d "tc1") in
  (dc_ns, tc_ns)

(* Deployment audit per TC table, outside any timed phase. *)
let audit e =
  Front.drain e.front;
  Deploy.quiesce e.d;
  Deploy.settle_replicas e.d;
  List.concat_map
    (fun tc ->
      let table = table_of_tc tc in
      let expected =
        List.sort compare
          (List.concat_map
             (fun s ->
               if s.table = table then
                 Array.to_list (Array.mapi (fun j v -> (key_of s.sid j, v)) s.vals)
               else [])
             (Array.to_list e.sessions))
      in
      (Audit.run_deploy e.d ~tc ~table ~expected).Audit.violations)
    tc_names
