module Kernel = Untx_kernel.Kernel
module Transport = Untx_kernel.Transport
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Tc_id = Untx_util.Tc_id
module Lsn = Untx_util.Lsn
module Rng = Untx_util.Rng
module Instrument = Untx_util.Instrument
module Trace = Untx_obs.Trace
module Fault = Untx_fault.Fault
module Deploy = Untx_cloud.Deploy
module Repl = Untx_repl.Repl
module Front = Untx_front.Front
module Index = Untx_index.Index
module Workload = Untx_workload.Workload
module Branch = Untx_branch.Branch
module Layer = Untx_layer.Layer

type cycle = {
  c_scenario : string;
  c_label : string;
  c_seed : int;
  c_fired : string list;
  c_crashes : int;
  c_committed : int;
  c_redelivered : int;
  c_violations : string list;
  c_counters : (string * int) list;
  c_trace : string;
      (* the cycle's span dump (Trace.to_jsonl); captured for every
         violating cycle, and on request via [keep_trace] *)
}

type shape = {
  tcs : int;
  parts : int;
  replicas : int;
  durability : Repl.durability option;
  layers : bool;
  indexes : bool;
}

type topology = Kernel | Deploy of shape | Bank

type oracle = (string, string option) Hashtbl.t

(* The live copy-on-write branch of a branch cycle: its handle, its own
   shadow map and commit count, and the parent's oracle at the fork. *)
type branch_side = {
  b : Branch.t;
  b_shadow : oracle;
  b_committed : int ref;
  fork : Lsn.t;
  at_fork : oracle;
}

type sys = K of Kernel.t | D of Deploy.t

(* Per-cycle state every hook sees. *)
type ctx = {
  sys : sys;
  seed : int;
  txns : int;
  rng : Rng.t;
  idx : Index.t;
  oracle : oracle;
  committed : int ref;
  crashes : int ref;
  mutable branch : branch_side option;
  mutable in_branch : bool;
}

type hooks = {
  maintain : ctx -> int -> unit;  (* before iteration [i] of the workload *)
  delete_bias : ctx -> int -> float;
  checks : ctx -> string list;  (* audit checks beyond the oracle audit *)
}

type scenario = {
  name : string;
  topology : topology;
  base_seed : int;
  plans : (string * Fault.rule list) list;
  hooks : hooks;
}

let table = "kv"

(* --- the seed-derived configuration ------------------------------------ *)

(* Lossier than Transport.chaotic: drops force the resend/backoff path
   to carry real weight during both the workload and recovery redo. *)
let lossy =
  {
    Transport.delay_min = 0;
    delay_max = 2;
    reorder = true;
    dup_prob = 0.05;
    drop_prob = 0.1;
  }

(* Cycle configuration is derived from the seed: small pages and a tiny
   cache force splits, evictions and flushes, so the DC-side fault
   points sit on well-trodden paths. *)
let policy seed = if seed mod 3 = 0 then lossy else Transport.reliable

let tc_config ~seed ~indexes i =
  let c =
    {
      (Tc.default_config (Tc_id.of_int i)) with
      lwm_every = 8;
      debug_checks = true;
    }
  in
  (* indexed cycles sweep both Section 3.1 lock protocols; never
     Optimistic — index maintenance re-reads its own writes *)
  if indexes && seed land 2 <> 0 then { c with cc_protocol = Tc.Range_locks 8 }
  else c

let dc_config ~seed ~tcs =
  {
    Dc.page_capacity = 160;
    cache_pages = 6;
    (* TCs sharing pages serialize the whole abstract LSN (option 2) *)
    sync_policy =
      (if tcs > 1 then Dc.Full_ablsn
       else
         match seed / 4 mod 3 with
         | 0 -> Dc.Stall_until_lwm
         | 1 -> Dc.Bounded 4
         | _ -> Dc.Full_ablsn);
    tc_reset_mode = (if seed mod 5 = 0 then Dc.Complete else Dc.Selective);
    debug_checks = true;
  }

let make_kernel ~counters ~seed =
  let k =
    Kernel.create ~counters
      {
        Kernel.tc = tc_config ~seed ~indexes:false 1;
        dc = dc_config ~seed ~tcs:1;
        policy = policy seed;
        seed;
        auto_checkpoint_every = (if seed mod 4 = 0 then 7 else 0);
      }
  in
  Kernel.create_table k ~name:table ~versioned:(seed land 1 = 0);
  k

let tc_names sh = List.init sh.tcs (fun i -> Printf.sprintf "tc%d" (i + 1))

(* One TC owns "kv"; with several, each TC owns its own table (the
   Section 6 disjoint-updaters rule), all spread over every DC. *)
let table_of sh tcn =
  if sh.tcs = 1 then table else "kv" ^ String.sub tcn 2 (String.length tcn - 2)

(* The same extract shapes the workload bank uses: categories are the
   value's prefix up to the first ':' (absent on marker rows, which
   therefore carry no [by_cat] entry), lengths bucket everything. *)
let extract_cat ~key:_ ~value =
  match String.index_opt value ':' with
  | Some i -> [ String.sub value 0 i ]
  | None -> []

let extract_len ~key:_ ~value = [ Printf.sprintf "L%d" (String.length value / 16) ]

(* [sh.tcs] TCs in front of [sh.parts] hash-partitioned DCs, with the
   kernel's small-page pressure on every partition.  Standbys alternate
   Quorum 1 / Primary_only durability by seed unless the shape pins it;
   a layered deployment keeps its table unversioned (the layer store's
   reconstruction space). *)
let make_deploy ~counters ~seed ~idx sh =
  let durability =
    match sh.durability with
    | Some d -> d
    | None -> if seed land 1 = 0 then Repl.Quorum 1 else Repl.Primary_only
  in
  let d =
    Deploy.create ~counters ~policy:(policy seed) ~durability ~layers:sh.layers
      ~seed ()
  in
  List.iteri
    (fun i name ->
      ignore
        (Deploy.add_tc d ~name (tc_config ~seed ~indexes:sh.indexes (i + 1))))
    (tc_names sh);
  let dcs = List.init sh.parts (Printf.sprintf "dc%d") in
  List.iter
    (fun name -> ignore (Deploy.add_dc d ~name (dc_config ~seed ~tcs:sh.tcs)))
    dcs;
  let versioned = (not sh.layers) && seed land 1 = 0 in
  List.iter
    (fun tcn ->
      let name = table_of sh tcn in
      if sh.indexes then
        Deploy.add_indexed_table d ~idx ~name ~versioned ~replicas:sh.replicas
          ~dcs
          ~indexes:[ ("by_cat", extract_cat); ("by_len", extract_len) ]
          ()
      else
        Deploy.add_partitioned_table d ~name ~versioned ~replicas:sh.replicas
          ~dcs ())
    (tc_names sh);
  d

(* --- crash handling ----------------------------------------------------- *)

let deploy ctx =
  match ctx.sys with D d -> d | K _ -> invalid_arg "Chaos: not a deployment"

let tc1 = function K k -> Kernel.tc k | D d -> Deploy.tc d "tc1"

let quiesce = function K k -> Kernel.quiesce k | D d -> Deploy.quiesce d

let default_dc d = List.hd (Deploy.partitions d ~table)

(* Fail over [primary] to its most-caught-up eligible standby.  When the
   gate refuses every candidate ({!Deploy.Promotion_refused} — e.g. the
   only standby went rebuild-required after a lease expiry or a
   post-truncation crash) the harness does what an operator would:
   cold-restart the primary, trading availability for zero loss. *)
let promote ctx primary =
  let d = deploy ctx in
  let kill p2 =
    incr ctx.crashes;
    Deploy.crash_for_point d ~point:p2 ~tc:"tc1" ~dc:(default_dc d)
  in
  try Deploy.fail_over d ~dc:primary with
  | Deploy.Promotion_refused _ -> (
    try Deploy.crash_dc d primary with Fault.Injected_crash p2 -> kill p2)
  | Fault.Injected_crash p2 ->
    (* a second planned kill landed inside the promotion redo *)
    kill p2

(* Kill whichever component owns [p].  A kill at the ["repl.ship.batch"]
   boundary means the PRIMARY being shipped from died at that instant:
   the answer is a failover, not a cold crash+restart.  A TC-side point
   that escaped a branch operation crash-recovers the branch's own TC.
   Everything else takes [crash_for_point], which resolves a DC point to
   the partition (or standby) whose handler it actually escaped from. *)
let kill ctx p =
  match ctx.sys with
  | K k -> Kernel.crash_for_point k p
  | D d when String.equal p Repl.p_ship_batch ->
    promote ctx
      (match Repl.Manager.last_ship_primary (Deploy.manager d ~tc:"tc1") with
      | Some p -> p
      | None -> default_dc d)
  | D d -> (
    match (Kernel.component_of_point p, ctx.branch) with
    | `Tc, Some br when ctx.in_branch ->
      Tc.crash (Branch.tc br.b);
      Tc.recover (Branch.tc br.b)
    | _ -> Deploy.crash_for_point d ~point:p ~tc:"tc1" ~dc:(default_dc d))

let handle ctx = function
  | Fault.Injected_crash p ->
    incr ctx.crashes;
    kill ctx p
  | Fault.Io_error p ->
    (* The bounded retry in Disk gave up: an unrecovered media error.
       Treat it as the DC host dying.  Prob rules would keep firing
       during recovery reads, so the plan comes down first. *)
    incr ctx.crashes;
    Fault.disarm ();
    kill ctx p
  | e -> raise e

let guard ctx f =
  try f () with (Fault.Injected_crash _ | Fault.Io_error _) as e -> handle ctx e

(* Quiesce with the plan still armed: rules that only trigger under
   drain pressure get a last chance, and a kill here must be as
   recoverable as any other. *)
let quiesce_settle ctx =
  let rec go attempts =
    try quiesce ctx.sys
    with (Fault.Injected_crash _ | Fault.Io_error _) as e when attempts > 0 ->
      handle ctx e;
      go (attempts - 1)
  in
  go 4

(* --- the transaction generator and fate protocol ------------------------ *)

type surface = {
  begin_txn : unit -> Tc.txn;
  read : Tc.txn -> key:string -> string option Tc.outcome;
  insert : Tc.txn -> key:string -> value:string -> unit Tc.outcome;
  update : Tc.txn -> key:string -> value:string -> unit Tc.outcome;
  delete : Tc.txn -> key:string -> unit Tc.outcome;
  commit : Tc.txn -> unit Tc.outcome;
  abort : Tc.txn -> reason:string -> unit;
}

let tc_surface ?(table = table) tc =
  {
    begin_txn = (fun () -> Tc.begin_txn tc);
    read = (fun txn ~key -> Tc.read tc txn ~table ~key);
    insert = (fun txn ~key ~value -> Tc.insert tc txn ~table ~key ~value);
    update = (fun txn ~key ~value -> Tc.update tc txn ~table ~key ~value);
    delete = (fun txn ~key -> Tc.delete tc txn ~table ~key);
    commit = (fun txn -> Tc.commit tc txn);
    abort = (fun txn ~reason -> Tc.abort tc txn ~reason);
  }

(* Aborts the transaction the moment any index-maintaining op returns a
   non-[`Ok] — the Fail-means-caller-aborts contract: a refused entry op
   would otherwise leave the primary write without its maintenance. *)
exception Dead_txn

let index_surface idx tc =
  let ok_or_dead = function
    | `Ok () -> `Ok ()
    | `Blocked | `Fail _ -> raise Dead_txn
  in
  {
    (tc_surface tc) with
    insert =
      (fun txn ~key ~value ->
        ok_or_dead (Index.insert idx tc txn ~table ~key ~value));
    update =
      (fun txn ~key ~value ->
        ok_or_dead (Index.update idx tc txn ~table ~key ~value));
    delete = (fun txn ~key -> ok_or_dead (Index.delete idx tc txn ~table ~key));
  }

let branch_surface b =
  {
    begin_txn = (fun () -> Branch.begin_txn b);
    read = (fun txn ~key -> Branch.read b txn ~table ~key);
    insert = (fun txn ~key ~value -> Branch.insert b txn ~table ~key ~value);
    update = (fun txn ~key ~value -> Branch.update b txn ~table ~key ~value);
    delete = (fun txn ~key -> Branch.delete b txn ~table ~key);
    commit = (fun txn -> Branch.commit b txn);
    abort = (fun txn ~reason -> Branch.abort b txn ~reason);
  }

let plain_value rng = Printf.sprintf "v%06d" (Rng.int rng 1_000_000)

(* Indexed values carry a category prefix, occasionally NUL-embedded. *)
let category_value rng =
  let cat =
    (if Rng.chance rng 0.15 then "c\x00" else "c") ^ string_of_int (Rng.int rng 4)
  in
  Printf.sprintf "%s:v%06d" cat (Rng.int rng 1_000_000)

let commit_staged oracle staged =
  Hashtbl.iter (fun key v -> Hashtbl.replace oracle key v) staged

let oracle_rows oracle =
  Hashtbl.fold
    (fun key v acc -> match v with Some v -> (key, v) :: acc | None -> acc)
    oracle []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Probe a transaction's unique marker key to learn its fate after an
   ambiguously interrupted commit: the marker is the transaction's
   first write, so it is visible iff the transaction committed. *)
let probe ctx s marker =
  let attempt () =
    let txn = s.begin_txn () in
    let v =
      match s.read txn ~key:marker with `Ok v -> v | `Blocked | `Fail _ -> None
    in
    (match s.commit txn with
    | `Ok () -> ()
    | `Blocked | `Fail _ ->
      if Tc.is_active txn then s.abort txn ~reason:"chaos probe");
    v
  in
  try attempt ()
  with (Fault.Injected_crash _ | Fault.Io_error _) as e ->
    handle ctx e;
    (try attempt () with Fault.Injected_crash _ | Fault.Io_error _ -> None)

(* One generated transaction against [s]: the marker insert, 1-4 random
   inserts/updates/deletes over 50 keys, and a commit; [shadow] is the
   side's own oracle, updated only with effects known to be committed. *)
let run_txn ctx s ~shadow ~committed ~marker ~delete_bias ~value =
  let staged : oracle = Hashtbl.create 8 in
  let cur = ref None in
  let phase = ref `Body in
  let commit_ok () =
    incr committed;
    commit_staged shadow staged
  in
  let resolve_by_marker () = if probe ctx s marker <> None then commit_ok () in
  let stage key v = function
    | `Ok () -> Hashtbl.replace staged key v
    | `Blocked | `Fail _ -> ()
  in
  try
    let txn = s.begin_txn () in
    cur := Some txn;
    stage marker (Some "1") (s.insert txn ~key:marker ~value:"1");
    for _ = 1 to 1 + Rng.int ctx.rng 4 do
      let key = Printf.sprintf "k%02d" (Rng.int ctx.rng 50) in
      let current =
        if Hashtbl.mem staged key then Hashtbl.find staged key
        else Option.join (Hashtbl.find_opt shadow key)
      in
      match current with
      | None ->
        let value = value ctx.rng in
        stage key (Some value) (s.insert txn ~key ~value)
      | Some _ ->
        if Rng.chance ctx.rng delete_bias then stage key None (s.delete txn ~key)
        else
          let value = value ctx.rng in
          stage key (Some value) (s.update txn ~key ~value)
    done;
    phase := `Commit;
    match s.commit txn with `Ok () -> commit_ok () | `Blocked | `Fail _ -> ()
  with
  | Dead_txn -> (
    match !cur with
    | Some txn when Tc.is_active txn ->
      s.abort txn ~reason:"chaos: index op refused"
    | _ -> ())
  | (Fault.Injected_crash p | Fault.Io_error p) as e -> (
    handle ctx e;
    (* a failover counts as a DC-side event: the TC survived it *)
    let component =
      if String.equal p Repl.p_ship_batch then `Dc
      else Kernel.component_of_point p
    in
    match (!phase, component, !cur) with
    | `Body, `Tc, _ ->
      (* The transaction died with the TC; recovery rolled it back and
         the handle is stale.  The oracle never saw its writes. *)
      ()
    | `Body, `Dc, Some txn ->
      (* The TC survived, so the transaction is a live loser holding
         locks (on every partition it touched): roll it back. *)
      if Tc.is_active txn then
        s.abort txn ~reason:"chaos: rollback after DC crash"
    | `Body, `Dc, None -> ()
    | `Commit, `Tc, _ ->
      (* The Commit record may or may not have reached the stable log
         before the kill; the marker knows. *)
      resolve_by_marker ()
    | `Commit, `Dc, Some txn ->
      (* The TC survived, so it must finish what it started: commit is
         re-entrant (a second Commit record is benign, cleanups are
         idempotent).  A further planned kill can land inside the
         retry itself; while the transaction stays active it still
         holds its locks, so keep retrying — the plan is finite — and
         roll back as a last resort rather than leak the locks. *)
      let rec settle attempts =
        if not (Tc.is_active txn) then
          (* Tc.commit had already finished (the crash hit the
             post-commit auto-checkpoint); the marker settles it. *)
          resolve_by_marker ()
        else if attempts = 0 then (
          s.abort txn ~reason:"chaos: commit retries exhausted";
          resolve_by_marker ())
        else
          try
            match s.commit txn with
            | `Ok () -> commit_ok ()
            | `Blocked | `Fail _ -> ()
          with (Fault.Injected_crash _ | Fault.Io_error _) as e ->
            handle ctx e;
            settle (attempts - 1)
      in
      settle 4
    | `Commit, `Dc, None -> ())

(* --- the bodies --------------------------------------------------------- *)

type verdict = {
  v_crashes : int;
  v_committed : int;
  v_redelivered : int;
  v_violations : string list;
}

let of_reports ~crashes ~committed ~extra reports =
  {
    v_crashes = crashes;
    v_committed = committed;
    v_redelivered = List.fold_left (fun a r -> a + r.Audit.redelivered) 0 reports;
    v_violations = List.concat_map (fun r -> r.Audit.violations) reports @ extra;
  }

let indexed s = match s.topology with Deploy sh -> sh.indexes | _ -> false

(* The generated-transaction loop: every iteration runs the scenario's
   maintenance, one tc1 transaction, and — once a branch exists — one
   branch transaction over the same key space. *)
let txn_body s ctx =
  let surface =
    match ctx.sys with
    | K k ->
      (* the kernel's commit drives its auto-checkpoints *)
      { (tc_surface (Kernel.tc k)) with commit = Kernel.commit k }
    | D d when indexed s -> index_surface ctx.idx (Deploy.tc d "tc1")
    | D d -> tc_surface (Deploy.tc d "tc1")
  in
  let value = if indexed s then category_value else plain_value in
  let drive () =
    for i = 0 to ctx.txns - 1 do
      s.hooks.maintain ctx i;
      let delete_bias = s.hooks.delete_bias ctx i in
      run_txn ctx surface ~shadow:ctx.oracle ~committed:ctx.committed
        ~marker:(Printf.sprintf "m%03d" i) ~delete_bias ~value;
      match ctx.branch with
      | None -> ()
      | Some br ->
        ctx.in_branch <- true;
        Fun.protect
          ~finally:(fun () -> ctx.in_branch <- false)
          (fun () ->
            run_txn ctx (branch_surface br.b) ~shadow:br.b_shadow
              ~committed:br.b_committed ~marker:(Printf.sprintf "bm%03d" i)
              ~delete_bias ~value)
    done;
    quiesce_settle ctx
  in
  let audit () =
    let expected = oracle_rows ctx.oracle in
    let report =
      match ctx.sys with
      | K k -> Audit.run k ~table ~expected
      | D d -> Audit.run_deploy d ~tc:"tc1" ~table ~expected
    in
    let index =
      if indexed s then Audit.check_index (deploy ctx) ~idx:ctx.idx ~table else []
    in
    let extra = index @ s.hooks.checks ctx in
    let branch_committed =
      match ctx.branch with Some br -> !(br.b_committed) | None -> 0
    in
    of_reports ~crashes:!(ctx.crashes)
      ~committed:(!(ctx.committed) + branch_committed)
      ~extra [ report ]
  in
  (drive, audit)

(* The front-end body for several TCs: sessions dispatched round-robin
   over the TCs submit transactions on their own TC's table with
   session-scoped keys, overlapping submission with execution.  Group
   commit makes a TC kill genuinely ambiguous — acknowledged commits may
   have ridden unforced batches into it — so the oracle is settled after
   the final drain by probing every committed transaction's unique
   marker.  Per-TC log order makes the lost set a suffix, so the
   surviving fold is exact. *)
let front_body s sh ctx ~counters =
  let d = deploy ctx in
  let front =
    Front.create ~counters
      ~cfg:
        {
          Front.max_sessions = 8;
          session_queue = 3;
          total_queue = 8;
          batch = 2 + (ctx.seed mod 3);
        }
      d
  in
  let sessions = Array.init 4 (fun _ -> Front.open_session front) in
  (* Projected per-session view for choosing sensible ops; divergence
     after a lost suffix only skews op choices (harmless rejections),
     never the oracle, which is rebuilt from surviving markers. *)
  let projected : oracle = Hashtbl.create 128 in
  (* (ticket, tc, marker, staged), newest first *)
  let submitted = ref [] in
  let submit_with_backpressure sess ops =
    (* Shed is a refusal, not a stall: pump to free queue space and
       retry a bounded number of times, then give the transaction up. *)
    let rec offer tries =
      match Front.submit front sess ops with
      | `Ticket k -> Some k
      | `Overloaded _ ->
        if tries = 0 then None
        else begin
          ignore (Front.pump ~budget:2 front);
          offer (tries - 1)
        end
    in
    offer 6
  in
  let drive () =
    for i = 0 to ctx.txns - 1 do
      s.hooks.maintain ctx i;
      let sess = sessions.(i mod Array.length sessions) in
      let sid = Front.session_id sess in
      let tcn = Front.session_tc sess in
      let table = table_of sh tcn in
      let marker = Printf.sprintf "s%d-m%03d" sid i in
      let staged : oracle = Hashtbl.create 8 in
      let ops = ref [ Front.Insert { table; key = marker; value = "1" } ] in
      Hashtbl.replace staged marker (Some "1");
      for _ = 1 to 1 + Rng.int ctx.rng 3 do
        let key = Printf.sprintf "s%d-k%02d" sid (Rng.int ctx.rng 30) in
        let current =
          if Hashtbl.mem staged key then Hashtbl.find staged key
          else Option.join (Hashtbl.find_opt projected key)
        in
        let value = plain_value ctx.rng in
        match current with
        | None ->
          ops := Front.Insert { table; key; value } :: !ops;
          Hashtbl.replace staged key (Some value)
        | Some _ ->
          if Rng.chance ctx.rng 0.3 then begin
            ops := Front.Delete { table; key } :: !ops;
            Hashtbl.replace staged key None
          end
          else begin
            ops := Front.Update { table; key; value } :: !ops;
            Hashtbl.replace staged key (Some value)
          end
      done;
      (match submit_with_backpressure sess (List.rev !ops) with
      | Some ticket ->
        Hashtbl.iter (Hashtbl.replace projected) staged;
        submitted := (ticket, tcn, marker, staged) :: !submitted
      | None -> ());
      (* keep execution overlapped with submission — a kill must land
         on non-empty queues *)
      if i mod 3 = 2 then ignore (Front.pump ~budget:1 front)
    done;
    Front.drain front;
    quiesce_settle ctx
  in
  let audit () =
    let tcs = tc_names sh in
    let oracles = List.map (fun tcn -> (tcn, Hashtbl.create 64)) tcs in
    List.iter
      (fun (ticket, tcn, marker, staged) ->
        match Front.poll front ticket with
        | `Done (Front.Committed _)
          when let surf = tc_surface ~table:(table_of sh tcn) (Deploy.tc d tcn) in
               probe ctx surf marker <> None ->
          incr ctx.committed;
          commit_staged (List.assoc tcn oracles) staged
        | `Done _ | `Pending -> ())
      (List.rev !submitted);
    (* one full deployment audit per TC, each including the cross-TC
       watermark check *)
    let reports =
      List.map
        (fun tcn ->
          Audit.run_deploy d ~tc:tcn ~table:(table_of sh tcn)
            ~expected:(oracle_rows (List.assoc tcn oracles)))
        tcs
    in
    of_reports ~crashes:!(ctx.crashes) ~committed:!(ctx.committed) ~extra:[]
      reports
  in
  (drive, audit)

(* A workload-bank spec, run differentially against its oracle
   (scripted DC/TC kills included), then the full deployment audit per
   table — plus index parity when the spec maintains indexes. *)
let bank_body ~label ~seed =
  let spec = Workload.find label in
  let run = ref None in
  let drive () = run := Some (Workload.run ~seed spec) in
  let audit () =
    let r, env = Option.get !run in
    let d = env.Workload.e_deploy in
    let reports =
      List.map
        (fun (tbl, expected) -> Audit.run_deploy d ~tc:"tc1" ~table:tbl ~expected)
        env.Workload.e_expected
    in
    let index =
      if spec.Workload.w_indexed then
        List.concat_map
          (fun (tbl, _) -> Audit.check_index d ~idx:env.Workload.e_idx ~table:tbl)
          spec.Workload.w_tables
      else []
    in
    let v =
      of_reports ~crashes:r.Workload.r_crashes ~committed:r.Workload.r_committed
        ~extra:index reports
    in
    { v with v_violations = r.Workload.r_violations @ v.v_violations }
  in
  (drive, audit)

(* --- the cycle and the soak --------------------------------------------- *)

(* Every cycle runs traced: the ring is cleared and re-enabled at the
   start so trace ids are deterministic per cycle, and a violating
   cycle's dump rides along in the report — the auditor's verdict comes
   with the timeline that led to it.  The previous enabled state is
   restored before the audit so probe traffic doesn't muddy the dump. *)
let run_cycle ?(keep_trace = false) s ~label ~plan ~seed ~txns =
  Fault.disarm ();
  let was_tracing = Trace.enabled () in
  Trace.clear ();
  Trace.set_enabled true;
  let counters = Instrument.create () in
  let idx = Index.create ~counters () in
  let ctx sys =
    {
      sys;
      seed;
      txns;
      rng = Rng.create ~seed;
      idx;
      oracle = Hashtbl.create 128;
      committed = ref 0;
      crashes = ref 0;
      branch = None;
      in_branch = false;
    }
  in
  let drive, audit =
    match s.topology with
    | Bank -> bank_body ~label ~seed
    | Kernel -> txn_body s (ctx (K (make_kernel ~counters ~seed)))
    | Deploy sh ->
      let c = ctx (D (make_deploy ~counters ~seed ~idx sh)) in
      if sh.tcs > 1 then front_body s sh c ~counters else txn_body s c
  in
  Fault.arm ~seed plan;
  drive ();
  let fired = Fault.fired_points () in
  Fault.disarm ();
  Trace.set_enabled was_tracing;
  (* Snapshot counters at the same boundary where tracing stops: the
     auditor's probe traffic belongs to neither the counters nor the
     trace, so the two views describe the identical window and a span
     dump can be reconciled against the counters exactly. *)
  let counters = Instrument.snapshot counters in
  let v = audit () in
  {
    c_scenario = s.name;
    c_label = label;
    c_seed = seed;
    c_fired = fired;
    c_crashes = v.v_crashes;
    c_committed = v.v_committed;
    c_redelivered = v.v_redelivered;
    c_violations = v.v_violations;
    c_counters = counters;
    c_trace =
      (if keep_trace || v.v_violations <> [] then Trace.to_jsonl () else "");
  }

type summary = {
  s_cycles : int;
  s_fired : int;
  s_crashes : int;
  s_violating : cycle list;
  s_fires_by_point : (string * int) list;
  s_counters : (string * int) list;
}

let summarize cycles =
  let fires = Hashtbl.create 32 in
  let counters = Hashtbl.create 64 in
  let bump tbl k n =
    Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun c ->
      List.iter (fun p -> bump fires p 1) c.c_fired;
      List.iter (fun (name, v) -> bump counters name v) c.c_counters)
    cycles;
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    s_cycles = List.length cycles;
    s_fired = List.length (List.filter (fun c -> c.c_fired <> []) cycles);
    s_crashes = List.fold_left (fun acc c -> acc + c.c_crashes) 0 cycles;
    s_violating = List.filter (fun c -> c.c_violations <> []) cycles;
    s_fires_by_point = sorted fires;
    s_counters = sorted counters;
  }

let soak ~seeds_per_plan s =
  let cycles =
    List.concat
      (List.mapi
         (fun pi (label, plan) ->
           List.init seeds_per_plan (fun si ->
               run_cycle s ~label ~plan
                 ~seed:(s.base_seed + (131 * pi) + (17 * si))
                 ~txns:24))
         s.plans)
  in
  (cycles, summarize cycles)

let armed_points s =
  List.sort_uniq String.compare
    (List.concat_map
       (fun (_, plan) -> List.map (fun r -> r.Fault.point) plan)
       s.plans)

(* --- hooks -------------------------------------------------------------- *)

(* Mid-workload maintenance: quiesce then checkpoint (a fan-out that
   completes only when every partition grants), so the checkpoint fault
   points sit on a realistic RSSP advance. *)
let midpoint_checkpoint ctx i =
  if i = ctx.txns / 2 then
    guard ctx (fun () ->
        quiesce ctx.sys;
        ignore (Tc.checkpoint (tc1 ctx.sys)))

(* Late in the cycle deletes dominate, to drive pages toward underflow
   and give consolidation points a chance to fire. *)
let late_deletes ctx i = if 3 * i > 2 * ctx.txns then 0.7 else 0.25

let stock =
  {
    maintain = midpoint_checkpoint;
    delete_bias = late_deletes;
    checks = (fun _ -> []);
  }

(* dc0's first standby is detached a quarter into the workload, a
   granted checkpoint mid-workload advances the redo-scan start point
   past its frozen cursor (consulting — and burning — its retention
   lease), and at the three-quarter mark dc0 "dies" and must fail over
   to that laggard. *)
let detach_checkpoint_promote ctx i =
  let d = deploy ctx in
  if i = ctx.txns / 4 then
    guard ctx (fun () ->
        match Deploy.replicas d ~dc:"dc0" with
        | sbn :: _ -> Repl.Manager.detach (Deploy.manager d ~tc:"tc1") ~name:sbn
        | [] -> ())
  else if i = ctx.txns / 2 then
    guard ctx (fun () ->
        (* a *granted* checkpoint is the point of this cycle: flush
           every primary so the grant loop converges under faults *)
        let flush_primaries () =
          Deploy.quiesce d;
          List.iter (fun n -> Dc.flush_all (Deploy.dc d n)) (Deploy.dc_names d)
        in
        flush_primaries ();
        let rec grant tries =
          if (not (Tc.checkpoint (tc1 ctx.sys))) && tries > 0 then begin
            flush_primaries ();
            grant (tries - 1)
          end
        in
        grant 3)
  else if i = 3 * ctx.txns / 4 then
    guard ctx (fun () ->
        (* skip if a planned ship-batch kill already promoted dc0's
           only standby earlier in the cycle *)
        if Deploy.replicas d ~dc:"dc0" <> [] then promote ctx "dc0")

(* At the midpoint one TC (picked by seed) is hard-killed while its
   sessions still have queued transactions. *)
let kill_tc_under_load ctx i =
  if i = ctx.txns / 2 then begin
    incr ctx.crashes;
    Deploy.crash_tc (deploy ctx) (if ctx.seed land 1 = 0 then "tc1" else "tc2")
  end

(* A third into the workload the deployment forks at its stable LSN; at
   the two-thirds mark the parent compacts, truncates history at its
   stable LSN (the cut must clamp at the live branch's fork pin), and
   the branch DC is killed and recovered. *)
let fork_then_compact ctx i =
  let d = deploy ctx in
  let tc = tc1 ctx.sys in
  if i >= ctx.txns / 3 && Option.is_none ctx.branch then
    guard ctx (fun () ->
        Deploy.quiesce d;
        Tc.force_log tc;
        let fork = Tc.stable_lsn tc in
        let b = Deploy.create_branch d ~from_lsn:fork ~name:"b" in
        let b_shadow = Hashtbl.create 128 in
        Hashtbl.iter (Hashtbl.replace b_shadow) ctx.oracle;
        ctx.branch <-
          Some
            {
              b;
              b_shadow;
              b_committed = ref 0;
              fork;
              at_fork = Hashtbl.copy ctx.oracle;
            });
  if i = 2 * ctx.txns / 3 && Option.is_some ctx.branch then
    guard ctx (fun () ->
        Deploy.quiesce d;
        Repl.Manager.compact_layers (Deploy.manager d ~tc:"tc1");
        ignore (Deploy.truncate_history d ~below:(Tc.stable_lsn tc));
        Deploy.crash_branch_dc d "b")

(* {!Audit.check_branch} plus two oracle laws: the branch tracks its own
   shadow map, and the shared prefix at the fork point still reads back
   exactly as the parent's oracle stood when the fork was cut. *)
let branch_parity ctx =
  match ctx.branch with
  | None -> [ "branch: fork never succeeded" ]
  | Some br ->
    let errs = ref (Audit.check_branch (deploy ctx) ~name:"b" ~table) in
    let show = function Some v -> Printf.sprintf "%S" v | None -> "None" in
    let law what holds at shadow =
      Hashtbl.iter
        (fun key expected ->
          let got = Branch.read_as_of br.b ~table ~key ~at in
          if got <> expected then
            errs :=
              Printf.sprintf "%s: %s reads %s, %s holds %s" what key (show got)
                holds (show expected)
              :: !errs)
        shadow
    in
    law "branch oracle" "shadow" (Branch.durable br.b) br.b_shadow;
    law "branch fork prefix" "fork snapshot" br.fork br.at_fork;
    !errs

(* --- plans and scenarios ------------------------------------------------ *)

let at point n = (Printf.sprintf "%s@%d" point n, [ Fault.crash_at point n ])

let sweep = List.concat_map (fun (point, nths) -> List.map (at point) nths)

let pair a na b nb =
  ( Printf.sprintf "%s@%d+%s@%d" a na b nb,
    [ Fault.crash_at a na; Fault.crash_at b nb ] )

(* Not a crash: the transport catches this fault itself and flips a
   byte of the frame, so a probability rule corrupts a fraction of all
   traffic (both channels) for the whole cycle; the checksum gate turns
   each hit into a loss the resend contracts must absorb. *)
let corrupt pct =
  ( Printf.sprintf "transport.frame.corrupt~%d%%" pct,
    [ Fault.crash_with_prob "transport.frame.corrupt" (float_of_int pct /. 100.) ] )

(* A corrupting wire under a crash plan: recovery redo runs over it too. *)
let corrupt_with pct (label, plan) =
  let c, rules = corrupt pct in
  (c ^ "+" ^ label, rules @ plan)

let one_tc =
  {
    tcs = 1;
    parts = 2;
    replicas = 0;
    durability = Some Repl.Primary_only;
    layers = false;
    indexes = false;
  }

let kernel =
  {
    name = "kernel";
    topology = Kernel;
    base_seed = 0xC1D9;
    plans =
      sweep
        [
          ("wal.tc.force.begin", [ 1; 4; 9 ]);
          ("wal.tc.force.mid", [ 1; 2; 7 ]);
          ("wal.dc.force.begin", [ 1; 3; 8 ]);
          ("wal.dc.force.mid", [ 1; 2; 4 ]);
          ("dc.flush.before_page_write", [ 1; 3; 7 ]);
          ("dc.flush.after_page_write", [ 1; 3; 7 ]);
          ("dc.smo.split.mid", [ 1; 2; 3 ]);
          ("dc.smo.consolidate.before_force", [ 1; 2 ]);
          ("dc.checkpoint.mid", [ 1 ]);
          ("tc.commit.before_force", [ 1; 6; 14 ]);
          ("tc.commit.after_force", [ 1; 6; 14 ]);
          ("disk.page_write.torn", [ 1; 3; 6 ]);
        ]
      @ [
          (* Crash again while recovering from the first crash. *)
          pair "tc.commit.before_force" 2 "tc.recover.mid" 1;
          pair "tc.commit.after_force" 3 "tc.recover.mid" 3;
          pair "wal.tc.force.mid" 2 "tc.recover.mid" 2;
          (* Two independent DC kills in one cycle. *)
          pair "dc.flush.after_page_write" 2 "dc.flush.before_page_write" 5;
          (* Torn write, then a later crash over the repaired page. *)
          pair "disk.page_write.torn" 1 "wal.dc.force.begin" 6;
          ("disk.page_write.io@1", [ Fault.io_error_at "disk.page_write.io" 1 ]);
          ("disk.page_read.io@2", [ Fault.io_error_at "disk.page_read.io" 2 ]);
          ( "disk.page_write.io~3%",
            [ Fault.io_error_with_prob "disk.page_write.io" 0.03 ] );
          corrupt 10;
          corrupt_with 5 (at "tc.commit.before_force" 3);
          corrupt_with 5 (at "dc.flush.after_page_write" 2);
        ];
    hooks = stock;
  }

let partitioned =
  {
    name = "partitioned";
    topology = Deploy { one_tc with parts = 3 };
    base_seed = 0x5A4D;
    plans =
      sweep
        [
          ("dc.smo.split.mid", [ 1; 2 ]);
          ("dc.checkpoint.mid", [ 1; 2 ]);
          ("dc.flush.before_page_write", [ 1; 4 ]);
          ("dc.flush.after_page_write", [ 2 ]);
          ("wal.dc.force.mid", [ 1; 3 ]);
          ("tc.commit.before_force", [ 2 ]);
          ("tc.commit.after_force", [ 2 ]);
        ]
      @ [
          (* the 1st and Nth hits of a point land on different DCs
             under hash placement with high likelihood *)
          pair "dc.smo.split.mid" 1 "dc.flush.after_page_write" 3;
          pair "dc.checkpoint.mid" 1 "wal.dc.force.mid" 2;
          corrupt_with 5 (at "dc.smo.split.mid" 1);
        ];
    hooks = stock;
  }

let replicated =
  {
    name = "replicated";
    topology = Deploy { one_tc with replicas = 2; durability = None };
    base_seed = 0x9E97;
    plans =
      sweep [ (Repl.p_ship_batch, [ 1; 2; 3; 5; 9; 14 ]) ]
      @ [
          pair Repl.p_ship_batch 2 Repl.p_ship_batch 9;
          pair Repl.p_ship_batch 3 "dc.flush.after_page_write" 2;
          pair Repl.p_ship_batch 4 "tc.commit.after_force" 3;
          pair "dc.smo.split.mid" 1 Repl.p_ship_batch 6;
        ];
    hooks = stock;
  }

let detach =
  {
    name = "detach";
    topology = Deploy { one_tc with replicas = 1; durability = None };
    base_seed = 0xD7AC;
    plans =
      [
        ("detach+ckpt+promote", []);
        ("detach+ckpt+lease.expire@1", [ Fault.crash_at "repl.lease.expire" 1 ]);
        ( "detach+ckpt+promote+ship.batch@6",
          [ Fault.crash_at Repl.p_ship_batch 6 ] );
        ( "detach+ckpt+lease.expire@1+tc.commit.after_force@3",
          [
            Fault.crash_at "repl.lease.expire" 1;
            Fault.crash_at "tc.commit.after_force" 3;
          ] );
        ( "detach+ckpt+promote+wal.dc.force.mid@2",
          [ Fault.crash_at "wal.dc.force.mid" 2 ] );
      ];
    hooks = { stock with maintain = detach_checkpoint_promote };
  }

let mtc =
  {
    name = "mtc";
    topology = Deploy { one_tc with tcs = 2 };
    base_seed = 0xF207;
    (* the scripted kill is the backbone; corruption layers on top *)
    plans = [ ("tc-kill@mid", []); ("tc-kill@mid+corrupt~5%", snd (corrupt 5)) ];
    hooks = { stock with maintain = kill_tc_under_load };
  }

let indexed =
  {
    name = "indexed";
    topology = Deploy { one_tc with indexes = true };
    base_seed = 0x1D8;
    plans =
      sweep
        [
          ("dc.smo.split.mid", [ 1; 2 ]);
          ("dc.flush.before_page_write", [ 1 ]);
          ("wal.dc.force.mid", [ 2 ]);
          ("tc.commit.before_force", [ 2 ]);
          ("tc.commit.after_force", [ 2 ]);
        ]
      @ [
          pair "dc.smo.split.mid" 1 "tc.commit.after_force" 2;
          corrupt_with 5 (at "dc.smo.split.mid" 1);
        ];
    hooks = stock;
  }

let branch =
  {
    name = "branch";
    topology = Deploy { one_tc with layers = true };
    base_seed = 0xB4A7;
    plans =
      [ ("branch.none", []) ]
      @ sweep
          [
            ("dc.flush.before_page_write", [ 1; 3 ]);
            ("wal.dc.force.mid", [ 2 ]);
            ("tc.commit.before_force", [ 2 ]);
            ("tc.commit.after_force", [ 3 ]);
            (Layer.p_compact_mid, [ 1 ]);
          ]
      @ [
          corrupt 5;
          pair "dc.flush.before_page_write" 2 "tc.commit.after_force" 2;
        ];
    hooks =
      {
        maintain = fork_then_compact;
        delete_bias = (fun _ _ -> 0.3);
        checks = branch_parity;
      };
  }

let bank =
  {
    name = "bank";
    topology = Bank;
    base_seed = 0xB0B;
    plans = List.map (fun spec -> (spec.Workload.w_name, [])) (Workload.bank ());
    hooks = stock;
  }

let scenarios =
  [ kernel; partitioned; replicated; detach; mtc; indexed; branch; bank ]
