module Kernel = Untx_kernel.Kernel
module Transport = Untx_kernel.Transport
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Tc_id = Untx_util.Tc_id
module Lsn = Untx_util.Lsn
module Rng = Untx_util.Rng
module Zipf = Untx_util.Zipf
module Instrument = Untx_util.Instrument
module Trace = Untx_obs.Trace
module Fault = Untx_fault.Fault
module Deploy = Untx_cloud.Deploy
module Repl = Untx_repl.Repl
module Front = Untx_front.Front
module Index = Untx_index.Index
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
  c_checks : (string * int) list;
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

type topology = Kernel | Deploy of shape

type mix = {
  tables : (string * bool option) list;
  protocol : Tc.cc_protocol option;
  keys : int;
  theta : float;
  ops : int;
  value_len : (int * int) option;
  rmw : float;
  poison : float;
  abort : float;
  scan : float;
  lookup : float;
}

(* Committed state keyed by (table, key); [None] marks a key known to
   be deleted. *)
type oracle = (string * string, string option) Hashtbl.t

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
  mix : mix;
  tables : (string * bool) list;  (* (table, versioned), resolved *)
  indexed : bool;
  occ : bool;
  zipf : Zipf.t option;
  strict : bool;  (* empty plan: every refusal is a violation *)
  oracle : oracle;
  committed : int ref;
  crashes : int ref;
  tally : (string, int) Hashtbl.t;  (* differential checks by kind *)
  mutable violations : string list;
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
  txns : int;
  mix : mix;
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

let tc_config ~seed ~indexes ~protocol i =
  let c =
    {
      (Tc.default_config (Tc_id.of_int i)) with
      lwm_every = 8;
      debug_checks = true;
    }
  in
  match protocol with
  | Some p -> { c with cc_protocol = p }
  | None ->
    (* indexed cycles sweep both Section 3.1 lock protocols; never
       Optimistic — index maintenance re-reads its own writes *)
    if indexes && seed land 2 <> 0 then { c with cc_protocol = Tc.Range_locks 8 }
    else c

(* Pages hold a version chain of a few maximal values on one cell;
   short values keep them tiny, so splits stay frequent. *)
let dc_config ~seed ~tcs ~value_len =
  {
    Dc.page_capacity =
      (match value_len with Some (_, hi) -> max 160 (5 * (hi + 64)) | None -> 160);
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

let make_kernel ~counters ~seed ~tables mix =
  let k =
    Kernel.create ~counters
      {
        Kernel.tc = tc_config ~seed ~indexes:false ~protocol:mix.protocol 1;
        dc = dc_config ~seed ~tcs:1 ~value_len:mix.value_len;
        policy = policy seed;
        seed;
        auto_checkpoint_every = (if seed mod 4 = 0 then 7 else 0);
      }
  in
  List.iter (fun (name, versioned) -> Kernel.create_table k ~name ~versioned) tables;
  k

let tc_names sh = List.init sh.tcs (fun i -> Printf.sprintf "tc%d" (i + 1))

(* Categories are the value's prefix up to the first ':' (absent on
   marker rows, which therefore carry no [by_cat] entry), lengths bucket
   everything. *)
let extract_cat ~key:_ ~value =
  match String.index_opt value ':' with
  | Some i -> [ String.sub value 0 i ]
  | None -> []

let extract_len ~key:_ ~value = [ Printf.sprintf "L%d" (String.length value / 16) ]

(* [sh.tcs] TCs in front of [sh.parts] hash-partitioned DCs, with the
   kernel's small-page pressure on every partition, every table spread
   over every DC.  Standbys alternate Quorum 1 / Primary_only durability
   by seed unless the shape pins it. *)
let make_deploy ~counters ~seed ~idx ~tables mix sh =
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
        (Deploy.add_tc d ~name
           (tc_config ~seed ~indexes:sh.indexes ~protocol:mix.protocol (i + 1))))
    (tc_names sh);
  let dcs = List.init sh.parts (Printf.sprintf "dc%d") in
  List.iter
    (fun name ->
      ignore
        (Deploy.add_dc d ~name
           (dc_config ~seed ~tcs:sh.tcs ~value_len:mix.value_len)))
    dcs;
  List.iter
    (fun (name, versioned) ->
      if sh.indexes then
        Deploy.add_indexed_table d ~idx ~name ~versioned ~replicas:sh.replicas
          ~dcs
          ~indexes:[ ("by_cat", extract_cat); ("by_len", extract_len) ]
          ()
      else
        Deploy.add_partitioned_table d ~name ~versioned ~replicas:sh.replicas
          ~dcs ())
    tables;
  d

(* --- crash handling ----------------------------------------------------- *)

let deploy ctx =
  match ctx.sys with D d -> d | K _ -> invalid_arg "Chaos: not a deployment"

let tc1 = function K k -> Kernel.tc k | D d -> Deploy.tc d "tc1"

let quiesce = function K k -> Kernel.quiesce k | D d -> Deploy.quiesce d

let first_table ctx = fst (List.hd ctx.tables)

let default_dc ctx = List.hd (Deploy.partitions (deploy ctx) ~table:(first_table ctx))

(* Fail over [primary] to its most-caught-up eligible standby.  When the
   gate refuses every candidate ({!Deploy.Promotion_refused} — e.g. the
   only standby went rebuild-required after a lease expiry or a
   post-truncation crash) the harness does what an operator would:
   cold-restart the primary, trading availability for zero loss. *)
let promote ctx primary =
  let d = deploy ctx in
  let kill p2 =
    incr ctx.crashes;
    Deploy.crash_for_point d ~point:p2 ~tc:"tc1" ~dc:(default_dc ctx)
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
      | None -> default_dc ctx)
  | D d -> (
    match (Kernel.component_of_point p, ctx.branch) with
    | `Tc, Some br when ctx.in_branch ->
      Tc.crash (Branch.tc br.b);
      Tc.recover (Branch.tc br.b)
    | _ -> Deploy.crash_for_point d ~point:p ~tc:"tc1" ~dc:(default_dc ctx))

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

(* a failover counts as a DC-side event: the TC survived it *)
let component p =
  if String.equal p Repl.p_ship_batch then `Dc else Kernel.component_of_point p

(* --- the transaction generator and fate protocol ------------------------ *)

type surface = {
  table : string;
  begin_txn : unit -> Tc.txn;
  read : Tc.txn -> key:string -> string option Tc.outcome;
  insert : Tc.txn -> key:string -> value:string -> unit Tc.outcome;
  update : Tc.txn -> key:string -> value:string -> unit Tc.outcome;
  delete : Tc.txn -> key:string -> unit Tc.outcome;
  commit : Tc.txn -> unit Tc.outcome;
  abort : Tc.txn -> reason:string -> unit;
}

let tc_surface ~table tc =
  {
    table;
    begin_txn = (fun () -> Tc.begin_txn tc);
    read = (fun txn ~key -> Tc.read tc txn ~table ~key);
    insert = (fun txn ~key ~value -> Tc.insert tc txn ~table ~key ~value);
    update = (fun txn ~key ~value -> Tc.update tc txn ~table ~key ~value);
    delete = (fun txn ~key -> Tc.delete tc txn ~table ~key);
    commit = (fun txn -> Tc.commit tc txn);
    abort = (fun txn ~reason -> Tc.abort tc txn ~reason);
  }

let index_surface idx ~table tc =
  {
    (tc_surface ~table tc) with
    insert = (fun txn ~key ~value -> Index.insert idx tc txn ~table ~key ~value);
    update = (fun txn ~key ~value -> Index.update idx tc txn ~table ~key ~value);
    delete = (fun txn ~key -> Index.delete idx tc txn ~table ~key);
  }

let branch_surface ~table b =
  {
    table;
    begin_txn = (fun () -> Branch.begin_txn b);
    read = (fun txn ~key -> Branch.read b txn ~table ~key);
    insert = (fun txn ~key ~value -> Branch.insert b txn ~table ~key ~value);
    update = (fun txn ~key ~value -> Branch.update b txn ~table ~key ~value);
    delete = (fun txn ~key -> Branch.delete b txn ~table ~key);
    commit = (fun txn -> Branch.commit b txn);
    abort = (fun txn ~reason -> Branch.abort b txn ~reason);
  }

(* Draws only for an enabled probability, so a mix that disables a
   check leaves the seed's random stream untouched. *)
let roll ctx p = p > 0. && Rng.chance ctx.rng p

let key_name rank = Printf.sprintf "k%02d" rank

let pick_key ctx =
  key_name
    (match ctx.zipf with
    | Some z -> Zipf.sample z ctx.rng
    | None -> Rng.int ctx.rng ctx.mix.keys)

(* Indexed values carry a category prefix, occasionally NUL-embedded, so
   the order-preserving entry escaping is on the differential path. *)
let category rng =
  (if Rng.chance rng 0.15 then "c\x00" else "c") ^ string_of_int (Rng.int rng 4)

(* ["v%06d"], or a payload of [lo, hi) random bytes (NULs included) when
   the mix sizes values. *)
let gen_value ctx =
  let rng = ctx.rng in
  let cat = if ctx.indexed then category rng ^ ":" else "" in
  match ctx.mix.value_len with
  | None -> Printf.sprintf "%sv%06d" cat (Rng.int rng 1_000_000)
  | Some (lo, hi) ->
    cat
    ^ String.init
        (lo + Rng.int rng (max 1 (hi - lo)))
        (fun _ ->
          let c = Rng.int rng 64 in
          if c = 63 then '\x00' else Char.chr (33 + (c mod 62)))

let commit_staged oracle staged =
  Hashtbl.iter (fun key v -> Hashtbl.replace oracle key v) staged

let oracle_rows oracle table =
  Hashtbl.fold
    (fun (t, key) v acc ->
      match v with Some v when String.equal t table -> (key, v) :: acc | _ -> acc)
    oracle []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The transaction's own view: staged overlay over committed state. *)
let view oracle staged k =
  if Hashtbl.mem staged k then Hashtbl.find staged k
  else Option.join (Hashtbl.find_opt oracle k)

let pp_outcome = function
  | `Ok _ -> "`Ok"
  | `Blocked -> "`Blocked"
  | `Fail m -> Printf.sprintf "`Fail %S" m

let count ctx kind =
  Hashtbl.replace ctx.tally kind
    (1 + Option.value ~default:0 (Hashtbl.find_opt ctx.tally kind))

(* One differential check of [kind]; a failed one is a violation. *)
let check ctx kind holds msg =
  count ctx kind;
  if not holds then ctx.violations <- msg :: ctx.violations

(* An operation refused for no reason the cycle knows of.  With an
   empty plan every kill is scripted between transactions, so nothing
   excuses it. *)
let refused ctx what o =
  if ctx.strict then
    ctx.violations <- Printf.sprintf "%s came back %s" what (pp_outcome o) :: ctx.violations

(* Aborts the transaction the moment an index-maintaining op is refused
   — the Fail-means-caller-aborts contract: a refused entry op would
   otherwise leave the primary write without its maintenance. *)
exception Dead_txn

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

(* A poison probe, which consumes the transaction: a deliberately
   invalid write must fail exactly where the contract says — at the
   call on a fail-fast table (unversioned and not OCC, which buffers
   every write; and any Index.update, which reads the old row first),
   at commit on a pipelined one. *)
let poison ctx s txn ~shadow ~staged ~phase ~marker =
  let fail_fast = (not (List.assoc s.table ctx.tables)) && not ctx.occ in
  let existing =
    List.filter
      (fun (k, _) -> not (Hashtbl.mem staged (s.table, k)))
      (oracle_rows shadow s.table)
  in
  let key, op, o, immediate =
    match existing with
    | (key, _) :: _ when Rng.bool ctx.rng ->
      (key, "insert-existing", s.insert txn ~key ~value:"poison", fail_fast)
    | _ ->
      (* a rank past the key space is never written *)
      let key = key_name (ctx.mix.keys + Rng.int ctx.rng 50) in
      (key, "update-missing", s.update txn ~key ~value:"poison", fail_fast || ctx.indexed)
  in
  let failed = function `Fail _ -> true | `Ok _ | `Blocked -> false in
  let msg expect got =
    Printf.sprintf "%s: poison %s on %s/%s should %s, got %s" marker op s.table
      key expect (pp_outcome got)
  in
  if immediate then check ctx "poison" (failed o) (msg "fail fast" o)
  else begin
    check ctx "poison" (o = `Ok ()) (msg "pipeline as `Ok" o);
    phase := `Commit;
    let c = s.commit txn in
    check ctx "poison" (failed c) (msg "fail the commit" c)
  end;
  if Tc.is_active txn then s.abort txn ~reason:"chaos: poison probe"

(* One generated transaction against [s]: the marker insert, then 1 to
   [ops] oracle-guided inserts/updates/deletes (a read-modify-write with
   its read checked), then a poison probe, a deliberate abort or a
   commit.  [shadow] is the side's own oracle, updated only with effects
   known to be committed. *)
let run_txn ctx s ~shadow ~committed ~marker ~delete_bias =
  let table = s.table in
  let staged : oracle = Hashtbl.create 8 in
  let cur = ref None in
  let phase = ref `Body in
  let what op = Printf.sprintf "%s: %s on %s" marker op table in
  (* a refused op is skipped, its effect never staged *)
  let refuse op o =
    refused ctx (what op) o;
    if ctx.indexed then raise Dead_txn
  in
  let write op key v = function
    | `Ok () -> Hashtbl.replace staged (table, key) v
    | (`Blocked | `Fail _) as o -> refuse op o
  in
  let commit_ok () =
    incr committed;
    commit_staged shadow staged
  in
  let resolve_by_marker () = if probe ctx s marker <> None then commit_ok () in
  (* under OCC a transaction must not revisit its own buffered writes
     (reads and index maintenance would not see them) *)
  let fresh key = not (ctx.occ && Hashtbl.mem staged (table, key)) in
  try
    let txn = s.begin_txn () in
    cur := Some txn;
    write "insert" marker (Some "1") (s.insert txn ~key:marker ~value:"1");
    for _ = 1 to 1 + Rng.int ctx.rng ctx.mix.ops do
      let key =
        let k = pick_key ctx in
        if fresh k then k else pick_key ctx
      in
      if fresh key then
        match view shadow staged (table, key) with
        | None ->
          let value = gen_value ctx in
          write "insert" key (Some value) (s.insert txn ~key ~value)
        | Some current ->
          if roll ctx ctx.mix.rmw then
            match s.read txn ~key with
            | `Ok got ->
              check ctx "rmw read" (got = Some current)
                (Printf.sprintf "%s: read %s/%s saw %s, oracle says %S" marker
                   table key
                   (match got with Some v -> Printf.sprintf "%S" v | None -> "None")
                   current);
              let value = gen_value ctx in
              write "update" key (Some value) (s.update txn ~key ~value)
            | (`Blocked | `Fail _) as o -> refuse "read" o
          else if Rng.chance ctx.rng delete_bias then
            write "delete" key None (s.delete txn ~key)
          else
            let value = gen_value ctx in
            write "update" key (Some value) (s.update txn ~key ~value)
    done;
    if roll ctx ctx.mix.poison then poison ctx s txn ~shadow ~staged ~phase ~marker
    else if roll ctx ctx.mix.abort then s.abort txn ~reason:"chaos: deliberate abort"
    else begin
      phase := `Commit;
      match s.commit txn with
      | `Ok () -> commit_ok ()
      | (`Blocked | `Fail _) as o -> refused ctx (what "commit") o
    end
  with
  | Dead_txn -> (
    match !cur with
    | Some txn when Tc.is_active txn ->
      s.abort txn ~reason:"chaos: index op refused"
    | _ -> ())
  | (Fault.Injected_crash p | Fault.Io_error p) as e -> (
    handle ctx e;
    match (!phase, component p, !cur) with
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

(* A read-only differential probe in a transaction of its own, run
   between generated transactions: what [read] returns must equal the
   oracle's [expected] rows.  A fault rolls it back like a body. *)
let read_probe ctx s kind ~what ~expected read =
  let cur = ref None in
  try
    let txn = s.begin_txn () in
    cur := Some txn;
    (match read txn with
    | `Ok rows ->
      check ctx kind (rows = expected)
        (Printf.sprintf "%s saw %d row(s), oracle expects %d" what
           (List.length rows) (List.length expected))
    | (`Blocked | `Fail _) as o -> refused ctx what o);
    match s.commit txn with
    | `Ok () -> ()
    | `Blocked | `Fail _ ->
      if Tc.is_active txn then s.abort txn ~reason:"chaos: read probe"
  with (Fault.Injected_crash p | Fault.Io_error p) as e -> (
    handle ctx e;
    match (component p, !cur) with
    | `Dc, Some txn when Tc.is_active txn ->
      s.abort txn ~reason:"chaos: rollback after DC crash"
    | _ -> ())

(* A range scan: partitioned scans stay inside the partition owning
   [from_key] by design, so the oracle's rows are filtered to it. *)
let scan_check ctx s =
  let from_key = key_name (Rng.int ctx.rng ctx.mix.keys) in
  let limit = 1 + Rng.int ctx.rng 16 in
  let owner key =
    match ctx.sys with
    | D d -> Deploy.partition_dc d ~table:s.table ~key
    | K _ -> ""
  in
  let expected =
    List.filter
      (fun (k, _) -> String.compare k from_key >= 0 && owner k = owner from_key)
      (oracle_rows ctx.oracle s.table)
    |> List.filteri (fun i _ -> i < limit)
  in
  read_probe ctx s "scan"
    ~what:(Printf.sprintf "scan %s from %S limit %d" s.table from_key limit)
    ~expected
    (fun txn -> Tc.scan (tc1 ctx.sys) txn ~table:s.table ~from_key ~limit)

(* An index lookup, its expected hits recomputed from the oracle's rows
   through the same extractor. *)
let lookup_check ctx s =
  let index, extract, sec =
    if Rng.bool ctx.rng then ("by_cat", extract_cat, category ctx.rng)
    else
      let hi = match ctx.mix.value_len with Some (_, hi) -> hi | None -> 16 in
      ("by_len", extract_len, Printf.sprintf "L%d" (Rng.int ctx.rng (1 + (hi / 16))))
  in
  let expected =
    List.filter
      (fun (key, value) -> List.mem sec (extract ~key ~value))
      (oracle_rows ctx.oracle s.table)
  in
  read_probe ctx s "lookup"
    ~what:(Printf.sprintf "lookup %s/%s=%S" s.table index sec)
    ~expected
    (fun txn ->
      Index.lookup ctx.idx (tc1 ctx.sys) txn ~table:s.table ~index ~sec)

(* --- the bodies --------------------------------------------------------- *)

(* The generated-transaction loop: every iteration runs the scenario's
   maintenance, one tc1 transaction (on the mix's tables in turn), once
   a branch exists one branch transaction over the same key space, and
   the mix's scan and lookup probes. *)
let txn_body s ctx =
  let parent table =
    match ctx.sys with
    | K k ->
      (* the kernel's commit drives its auto-checkpoints *)
      { (tc_surface ~table (Kernel.tc k)) with commit = Kernel.commit k }
    | D d when ctx.indexed -> index_surface ctx.idx ~table (Deploy.tc d "tc1")
    | D d -> tc_surface ~table (Deploy.tc d "tc1")
  in
  let surfaces = Array.of_list (List.map (fun (t, _) -> parent t) ctx.tables) in
  let n = Array.length surfaces in
  let drive () =
    for i = 0 to ctx.txns - 1 do
      s.hooks.maintain ctx i;
      let delete_bias = s.hooks.delete_bias ctx i in
      run_txn ctx surfaces.(i mod n) ~shadow:ctx.oracle ~committed:ctx.committed
        ~marker:(Printf.sprintf "m%03d" i) ~delete_bias;
      (match ctx.branch with
      | None -> ()
      | Some br ->
        ctx.in_branch <- true;
        count ctx "branch txn";
        Fun.protect
          ~finally:(fun () -> ctx.in_branch <- false)
          (fun () ->
            run_txn ctx (branch_surface ~table:(first_table ctx) br.b)
              ~shadow:br.b_shadow ~committed:br.b_committed
              ~marker:(Printf.sprintf "bm%03d" i) ~delete_bias));
      if roll ctx s.mix.scan then scan_check ctx surfaces.(Rng.int ctx.rng n);
      if roll ctx s.mix.lookup then lookup_check ctx surfaces.(0)
    done;
    quiesce_settle ctx
  in
  let audit () =
    let expected t = oracle_rows ctx.oracle t in
    let reports =
      List.map
        (fun (t, _) ->
          match ctx.sys with
          | K k -> Audit.run k ~table:t ~expected:(expected t)
          | D d -> Audit.run_deploy d ~tc:"tc1" ~table:t ~expected:(expected t))
        ctx.tables
    in
    let index =
      if ctx.indexed then
        List.concat_map
          (fun (t, _) -> Audit.check_index (deploy ctx) ~idx:ctx.idx ~table:t)
          ctx.tables
      else []
    in
    let branch_committed =
      match ctx.branch with Some br -> !(br.b_committed) | None -> 0
    in
    (!(ctx.committed) + branch_committed, reports, index @ s.hooks.checks ctx)
  in
  (drive, audit)

(* The front-end body for several TCs: sessions dispatched round-robin
   over the TCs submit transactions on their own TC's table (TC i owns
   the mix's table i — the Section 6 disjoint-updaters rule) with
   session-scoped keys, overlapping submission with execution.  Group
   commit makes a TC kill genuinely ambiguous — acknowledged commits may
   have ridden unforced batches into it — so the oracle is settled after
   the final drain by probing every committed transaction's unique
   marker.  Per-TC log order makes the lost set a suffix, so the
   surviving fold is exact. *)
let front_body s sh ctx ~counters =
  let d = deploy ctx in
  let table_of tcn = List.assoc tcn (List.combine (tc_names sh) (List.map fst ctx.tables)) in
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
      let table = table_of tcn in
      let marker = Printf.sprintf "s%d-m%03d" sid i in
      let staged : oracle = Hashtbl.create 8 in
      let ops = ref [ Front.Insert { table; key = marker; value = "1" } ] in
      Hashtbl.replace staged (table, marker) (Some "1");
      for _ = 1 to 1 + Rng.int ctx.rng 3 do
        let key = Printf.sprintf "s%d-k%02d" sid (Rng.int ctx.rng 30) in
        let value = gen_value ctx in
        match view projected staged (table, key) with
        | None ->
          ops := Front.Insert { table; key; value } :: !ops;
          Hashtbl.replace staged (table, key) (Some value)
        | Some _ ->
          if Rng.chance ctx.rng 0.3 then begin
            ops := Front.Delete { table; key } :: !ops;
            Hashtbl.replace staged (table, key) None
          end
          else begin
            ops := Front.Update { table; key; value } :: !ops;
            Hashtbl.replace staged (table, key) (Some value)
          end
      done;
      (match submit_with_backpressure sess (List.rev !ops) with
      | Some ticket ->
        commit_staged projected staged;
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
    List.iter
      (fun (ticket, tcn, marker, staged) ->
        match Front.poll front ticket with
        | `Done (Front.Committed _)
          when let surf = tc_surface ~table:(table_of tcn) (Deploy.tc d tcn) in
               probe ctx surf marker <> None ->
          incr ctx.committed;
          commit_staged ctx.oracle staged
        | `Done _ | `Pending -> ())
      (List.rev !submitted);
    (* one full deployment audit per TC, each including the cross-TC
       watermark check *)
    let reports =
      List.map
        (fun tcn ->
          let table = table_of tcn in
          Audit.run_deploy d ~tc:tcn ~table ~expected:(oracle_rows ctx.oracle table))
        (tc_names sh)
    in
    (!(ctx.committed), reports, [])
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
  let layers, indexes =
    match s.topology with Deploy sh -> (sh.layers, sh.indexes) | Kernel -> (false, false)
  in
  (* a table the mix leaves unpinned is versioned by seed, except in a
     layered deployment (the layer store's reconstruction space) *)
  let tables =
    List.map
      (fun (t, v) -> (t, Option.value v ~default:((not layers) && seed land 1 = 0)))
      s.mix.tables
  in
  let ctx =
    {
      sys =
        (match s.topology with
        | Kernel -> K (make_kernel ~counters ~seed ~tables s.mix)
        | Deploy sh -> D (make_deploy ~counters ~seed ~idx ~tables s.mix sh));
      seed;
      txns;
      rng = Rng.create ~seed;
      idx;
      mix = s.mix;
      tables;
      indexed = indexes;
      occ =
        (tc_config ~seed ~indexes ~protocol:s.mix.protocol 1).cc_protocol
        = Tc.Optimistic;
      zipf =
        (if s.mix.theta > 0. then Some (Zipf.create ~n:s.mix.keys ~theta:s.mix.theta)
         else None);
      strict = plan = [];
      oracle = Hashtbl.create 128;
      committed = ref 0;
      crashes = ref 0;
      tally = Hashtbl.create 8;
      violations = [];
      branch = None;
      in_branch = false;
    }
  in
  let drive, audit =
    match s.topology with
    | Deploy sh when sh.tcs > 1 -> front_body s sh ctx ~counters
    | Deploy _ | Kernel -> txn_body s ctx
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
  let committed, reports, extra = audit () in
  let violations =
    List.rev ctx.violations
    @ List.concat_map (fun r -> r.Audit.violations) reports
    @ extra
  in
  {
    c_scenario = s.name;
    c_label = label;
    c_seed = seed;
    c_fired = fired;
    c_crashes = !(ctx.crashes);
    c_committed = committed;
    c_redelivered = List.fold_left (fun a r -> a + r.Audit.redelivered) 0 reports;
    c_checks =
      List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) ctx.tally []);
    c_violations = violations;
    c_counters = counters;
    c_trace = (if keep_trace || violations <> [] then Trace.to_jsonl () else "");
  }

type summary = {
  s_cycles : int;
  s_fired : int;
  s_crashes : int;
  s_violating : cycle list;
  s_fires_by_point : (string * int) list;
  s_checks : (string * int) list;
  s_counters : (string * int) list;
}

let summarize cycles =
  let fires = Hashtbl.create 32 in
  let checks = Hashtbl.create 8 in
  let counters = Hashtbl.create 64 in
  let bump tbl k n =
    Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun c ->
      List.iter (fun p -> bump fires p 1) c.c_fired;
      List.iter (fun (kind, n) -> bump checks kind n) c.c_checks;
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
    s_checks = sorted checks;
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
                 ~txns:s.txns))
         s.plans)
  in
  (cycles, summarize cycles)

let armed_points s =
  List.sort_uniq String.compare
    (List.concat_map
       (fun (_, plan) -> List.map (fun r -> r.Fault.point) plan)
       s.plans)

let check_kinds s =
  let m = s.mix and layers = match s.topology with Deploy sh -> sh.layers | Kernel -> false in
  List.filter_map
    (fun (kind, on) -> if on then Some kind else None)
    [ ("branch txn", layers); ("lookup", m.lookup > 0.); ("poison", m.poison > 0.);
      ("rmw read", m.rmw > 0.); ("scan", m.scan > 0.) ]

(* --- hooks -------------------------------------------------------------- *)

(* Mid-workload maintenance: quiesce then checkpoint (a fan-out that
   completes only when every partition grants), so the checkpoint fault
   points sit on a realistic RSSP advance. *)
let midpoint_checkpoint (ctx : ctx) i =
  if i = ctx.txns / 2 then
    guard ctx (fun () ->
        quiesce ctx.sys;
        ignore (Tc.checkpoint (tc1 ctx.sys)))

(* Late in the cycle deletes dominate, to drive pages toward underflow
   and give consolidation points a chance to fire. *)
let late_deletes (ctx : ctx) i = if 3 * i > 2 * ctx.txns then 0.7 else 0.25

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
let detach_checkpoint_promote (ctx : ctx) i =
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
let kill_tc_under_load (ctx : ctx) i =
  if i = ctx.txns / 2 then begin
    incr ctx.crashes;
    Deploy.crash_tc (deploy ctx) (if ctx.seed land 1 = 0 then "tc1" else "tc2")
  end

(* Fork the deployment at its stable LSN (once; a fork a fault cut short
   is retried at the next iteration).  The branch's shadow map starts
   as the parent's oracle at the fork. *)
let fork (ctx : ctx) =
  if Option.is_none ctx.branch then
    guard ctx (fun () ->
        let d = deploy ctx in
        let tc = tc1 ctx.sys in
        Deploy.quiesce d;
        Tc.force_log tc;
        let fork = Tc.stable_lsn tc in
        let b = Deploy.create_branch d ~from_lsn:fork ~name:"b" in
        ctx.branch <-
          Some
            {
              b;
              b_shadow = Hashtbl.copy ctx.oracle;
              b_committed = ref 0;
              fork;
              at_fork = Hashtbl.copy ctx.oracle;
            })

(* A third into the workload the deployment forks; at the two-thirds
   mark the parent compacts, truncates history at its stable LSN (the
   cut must clamp at the live branch's fork pin), and the branch DC is
   killed and recovered. *)
let fork_then_compact (ctx : ctx) i =
  if i >= ctx.txns / 3 then fork ctx;
  if i = 2 * ctx.txns / 3 && Option.is_some ctx.branch then
    guard ctx (fun () ->
        let d = deploy ctx in
        Deploy.quiesce d;
        Repl.Manager.compact_layers (Deploy.manager d ~tc:"tc1");
        ignore (Deploy.truncate_history d ~below:(Tc.stable_lsn (tc1 ctx.sys)));
        Deploy.crash_branch_dc d "b")

(* Scripted kills spread evenly over the run: kill [j] of [n] lands
   before transaction (j+1)·txns/(n+1), between transactions — so with
   an empty plan the oracle carries straight through recovery.  [`Dc]
   kills the partitions in turn; [`Branch] (the branch DC) is a no-op
   before the fork. *)
let scripted kills (ctx : ctx) i =
  let n = List.length kills in
  List.iteri
    (fun j kill ->
      if i = (j + 1) * ctx.txns / (n + 1) then
        guard ctx (fun () ->
            let d = deploy ctx in
            match kill with
            | `Dc ->
              incr ctx.crashes;
              let parts = Deploy.partitions d ~table:(first_table ctx) in
              Deploy.crash_dc d (List.nth parts (j mod List.length parts))
            | `Tc ->
              incr ctx.crashes;
              Deploy.crash_tc d "tc1"
            | `Branch ->
              if Option.is_some ctx.branch then begin
                incr ctx.crashes;
                Deploy.crash_branch_dc d "b"
              end))
    kills

(* {!Audit.check_branch} plus two oracle laws: the branch's durable
   state is exactly its own shadow map, and the shared prefix at the
   fork point still reads back exactly as the parent's oracle stood when
   the fork was cut. *)
let branch_parity (ctx : ctx) =
  match ctx.branch with
  | None -> [ "branch: fork never succeeded" ]
  | Some br ->
    let table = first_table ctx in
    let errs = ref (Audit.check_branch (deploy ctx) ~name:"b" ~table) in
    let durable = Branch.rows_at br.b ~table ~at:(Branch.durable br.b) in
    let shadow = oracle_rows br.b_shadow table in
    if durable <> shadow then
      errs :=
        Printf.sprintf "branch oracle: durable %s holds %d row(s), shadow %d"
          table (List.length durable) (List.length shadow)
        :: !errs;
    let show = function Some v -> Printf.sprintf "%S" v | None -> "None" in
    Hashtbl.iter
      (fun (table, key) expected ->
        let got = Branch.read_as_of br.b ~table ~key ~at:br.fork in
        if got <> expected then
          errs :=
            Printf.sprintf
              "branch fork prefix: %s reads %s, fork snapshot holds %s" key
              (show got) (show expected)
            :: !errs)
      br.at_fork;
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

(* 1-4 writes over 50 keys per transaction, nothing else. *)
let stock_mix =
  {
    tables = [ (table, None) ];
    protocol = None;
    keys = 50;
    theta = 0.;
    ops = 4;
    value_len = None;
    rmw = 0.;
    poison = 0.;
    abort = 0.;
    scan = 0.;
    lookup = 0.;
  }

let kernel =
  {
    name = "kernel";
    topology = Kernel;
    base_seed = 0xC1D9;
    txns = 24;
    mix = stock_mix;
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
    kernel with
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
  }

let replicated =
  {
    kernel with
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
  }

let detach =
  {
    kernel with
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
    kernel with
    name = "mtc";
    topology = Deploy { one_tc with tcs = 2 };
    base_seed = 0xF207;
    mix = { stock_mix with tables = [ ("kv1", None); ("kv2", None) ] };
    (* the scripted kill is the backbone; corruption layers on top *)
    plans = [ ("tc-kill@mid", []); ("tc-kill@mid+corrupt~5%", snd (corrupt 5)) ];
    hooks = { stock with maintain = kill_tc_under_load };
  }

let indexed =
  {
    kernel with
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
  }

let branch =
  {
    kernel with
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

(* The differential bank: adversarial mixes with their read, scan,
   lookup and poison checks, under an empty plan — every kill is
   scripted between transactions, so any refusal is a violation — at
   60 transactions (1-3 writes over a 200-key space, 6-18-byte values,
   8% deliberate aborts, 10% poison probes, 30% deletes). *)
let bank_mix =
  {
    stock_mix with
    tables = [ (table, Some true) ];
    keys = 200;
    ops = 3;
    value_len = Some (6, 18);
    abort = 0.08;
    poison = 0.1;
  }

let bank_scenario ?(shape = one_tc) ?(txns = 60) ?(maintain = fun _ _ -> ())
    ?(checks = fun _ -> []) name kills mix =
  {
    name;
    topology = Deploy shape;
    base_seed = 0xB0B;
    txns;
    mix;
    plans = [ ("scripted", []) ];
    hooks =
      {
        maintain = (fun ctx i -> maintain ctx i; scripted kills ctx i);
        delete_bias = (fun _ _ -> 0.3);
        checks;
      };
  }

let unversioned = [ (table, Some false) ]

let bank =
  List.mapi
    (fun i s -> { s with base_seed = s.base_seed + (131 * i) })
    [
      (* Zipfian hot keys, read-modify-write, 3 partitions *)
      bank_scenario "zipfian_rmw" [ `Dc; `Tc ] ~shape:{ one_tc with parts = 3 }
        { bank_mix with theta = 0.9; keys = 400; rmw = 0.6 };
      (* range scans under the fetch-ahead key-lock protocol *)
      bank_scenario "range_scan_keylocks" [ `Dc ] ~shape:{ one_tc with parts = 1 }
        { bank_mix with tables = unversioned; protocol = Some Tc.Key_locks; keys = 120; scan = 0.5 };
      (* range scans under static range-partition locks *)
      bank_scenario "range_scan_rangelocks" [ `Tc ] ~shape:{ one_tc with parts = 1 }
        { bank_mix with protocol = Some (Tc.Range_locks 8); keys = 120; scan = 0.5 };
      (* optimistic protocol, uniform keys, buffered writes *)
      bank_scenario "occ_uniform" [ `Tc ]
        { bank_mix with tables = unversioned; protocol = Some Tc.Optimistic; scan = 0.25 };
      (* 0.5-2 KiB values forcing splits and multi-page churn *)
      bank_scenario "large_values" [ `Dc ] ~txns:40
        { bank_mix with keys = 60; value_len = Some (512, 2048) };
      (* versioned and unversioned tables in one transaction mix *)
      bank_scenario "mixed_tables" [ `Dc; `Tc ]
        { bank_mix with tables = [ ("kv_v", Some true); ("kv_u", Some false) ] };
      (* index-maintaining transactions over Zipfian hot keys *)
      bank_scenario "indexed_zipf" [ `Dc; `Tc ]
        ~shape:{ one_tc with parts = 3; indexes = true }
        { bank_mix with theta = 0.9; keys = 150; rmw = 0.3; lookup = 0.4 };
      (* index maintenance over an unversioned (fail-fast) table *)
      bank_scenario "indexed_unversioned" [ `Dc ] ~shape:{ one_tc with indexes = true }
        { bank_mix with tables = unversioned; lookup = 0.4 };
      (* copy-on-write fork at 0.4 of the run; parent and branch run
         differentially against independent oracles *)
      bank_scenario "branched_pitr" [ `Dc; `Branch ] ~shape:{ one_tc with layers = true }
        ~maintain:(fun (ctx : ctx) i -> if 5 * i >= 2 * ctx.txns then fork ctx)
        ~checks:branch_parity
        { bank_mix with tables = unversioned; keys = 150; scan = 0.25 };
    ]

let scenarios =
  [ kernel; partitioned; replicated; detach; mtc; indexed; branch ] @ bank
