(* Load for the 1 TC x 1 DC workloads: a benchmark-owned generator over
   a fixed key set, the committed-state oracle every read and scan is
   checked against, and a single-threaded closed loop of clients.

   The key set never changes (updates only, no inserts or deletes after
   preload), so a workload stays stationary however long it runs; the
   loop checkpoints every [ckpt_every] commits so the TC log stays
   bounded. *)

module Tc = Untx_tc.Tc
module Rng = Untx_util.Rng
module Zipf = Untx_util.Zipf

let l_tc = Sys1.l_tc

let l_bench = Spans.layer "bench"

let table = "kv"

type spec = {
  keys : int;
  versioned : bool;
  page_capacity : int;
  cache_pages : int;
  clients : int;
  theta : float;  (** Zipf skew of key choice; 0 = uniform *)
  read_frac : float;
  scan_frac : float;  (** the rest are updates *)
  scan_limit : int;
  writes_per_txn : int;  (** updates in an update transaction *)
  ckpt_every : int;  (** commits between checkpoints *)
}

let key_of i = Printf.sprintf "k%07d" i

type intent = Read of int | Update of int * string | Scan of int * int

(* --- generator ---------------------------------------------------------- *)

type gen = { spec : spec; rng : Rng.t; zipf : Zipf.t; mutable vseq : int }

let gen spec ~seed =
  { spec; rng = Rng.create ~seed; zipf = Zipf.create ~n:spec.keys ~theta:spec.theta;
    vseq = 0 }

(* Popularity rank to key: a multiplicative scramble spreads the hot
   ranks over the whole key space, so hot records do not share pages. *)
let pick g =
  let r = Zipf.sample g.zipf g.rng in
  if g.spec.theta = 0. then r else r * 7919 mod g.spec.keys

let value g =
  g.vseq <- g.vseq + 1;
  Printf.sprintf "v%07d-%08x" g.vseq (Rng.int g.rng 0x3fffffff)

(* [n] distinct keys in ascending order: every multi-write transaction
   locks in key order, so two of them can never deadlock. *)
let distinct_keys g n =
  let rec go acc k =
    if k = 0 then List.sort_uniq compare acc
    else
      let i = pick g in
      if List.mem i acc then go acc k else go (i :: acc) (k - 1)
  in
  go [] n

let writes g =
  List.map (fun i -> Update (i, value g)) (distinct_keys g g.spec.writes_per_txn)

let script g =
  let s = g.spec in
  let r = Rng.float g.rng 1.0 in
  if r < s.read_frac then [ Read (pick g) ]
  else if r < s.read_frac +. s.scan_frac then [ Scan (pick g, s.scan_limit) ]
  else writes g

(* --- oracle ------------------------------------------------------------- *)

(* Every disagreement with an oracle is counted; the first few are kept
   for the report. *)
type mismatches = { mutable first : string list; mutable count : int }

let mismatches () = { first = []; count = 0 }

let mismatch m msg =
  m.count <- m.count + 1;
  if m.count <= 5 then m.first <- msg :: m.first

type oracle = {
  vals : string array;  (** committed value by key index *)
  m : mismatches;
}

let oracle spec ~seed =
  { vals = Array.init spec.keys (fun i -> Printf.sprintf "init-%d-%07d" seed i);
    m = mismatches () }

let check_read o i got =
  if got <> Some o.vals.(i) then
    mismatch o.m
      (Printf.sprintf "read %s: got %s, committed %s" (key_of i)
         (Option.value got ~default:"<none>") o.vals.(i))

let check_scan o i limit got =
  let hi = min (Array.length o.vals) (i + limit) in
  let want = List.init (hi - i) (fun j -> (key_of (i + j), o.vals.(i + j))) in
  if got <> want then
    mismatch o.m
      (Printf.sprintf "scan %s limit %d: %d rows differ from the committed %d"
         (key_of i) limit (List.length got) (List.length want))

(* --- system set-up ------------------------------------------------------ *)

let config spec ~seed =
  Sys1.config ~seed ~page_capacity:spec.page_capacity
    ~cache_pages:spec.cache_pages

let ok what = function
  | `Ok v -> v
  | `Blocked -> failwith (what ^ ": blocked")
  | `Fail m -> failwith (what ^ ": " ^ m)

(* Create the table and insert every key, 256 keys per transaction. *)
let preload sys spec o =
  Sys1.create_table sys ~name:table ~versioned:spec.versioned;
  let tc = sys.Sys1.tc in
  let rec go i =
    if i < spec.keys then begin
      let hi = min spec.keys (i + 256) in
      let txn = Tc.begin_txn tc in
      for j = i to hi - 1 do
        ok "preload" (Tc.insert tc txn ~table ~key:(key_of j) ~value:o.vals.(j))
      done;
      ok "preload commit" (Tc.commit tc txn);
      go hi
    end
  in
  go 0;
  Tc.quiesce tc;
  ignore (Tc.checkpoint tc)

(* --- the closed loop ---------------------------------------------------- *)

type stats = {
  mutable attempted : int;
  mutable committed : int;
  mutable failed : int;  (** aborted, failed or deadlock victims *)
  mutable blocked : int;  (** [`Blocked] answers (lock waits) *)
  mutable ops : int;  (** operations executed (reads, scans, updates) *)
  mutable checkpoints : int;
  mutable ckpt_refused : int;
  mutable forces : int;  (** TC counters, accumulated over [run] calls *)
  mutable msgs : int;
  mutable locks : int;
  mutable resends : int;
  lat : Report.Hist.t;  (** ns, begin to commit return, per committed txn *)
}

let stats () =
  { attempted = 0; committed = 0; failed = 0; blocked = 0; ops = 0;
    checkpoints = 0; ckpt_refused = 0; forces = 0; msgs = 0; locks = 0; resends = 0;
    lat = Report.Hist.create () }

type slot = {
  mutable txn : Tc.txn option;
  mutable todo : intent list;
  mutable wrote : (int * string) list;
  mutable parked : bool;
  mutable born : int;
}

let checkpoint sys st =
  if Spans.with_ l_tc (fun () -> Tc.checkpoint sys.Sys1.tc) then
    st.checkpoints <- st.checkpoints + 1
  else st.ckpt_refused <- st.ckpt_refused + 1

(* Run closed-loop clients until [more ()] turns false; the transactions
   in flight then finish.  [next ()] yields each new transaction's
   script.  Every read and scan is checked against [o] as it returns;
   writes reach [o] when their transaction commits. *)
let run sys spec o st ~clients ~next ~more =
  let tc = sys.Sys1.tc in
  let slots =
    Array.init clients (fun _ ->
        { txn = None; todo = []; wrote = []; parked = false; born = 0 })
  in
  let by_xid = Hashtbl.create 16 in
  let since_ckpt = ref 0 in
  let fresh s =
    if more () then begin
      let todo = Spans.with_ l_bench next in
      s.born <- Spans.now_ns ();
      let txn = Spans.with_ l_tc (fun () -> Tc.begin_txn tc) in
      st.attempted <- st.attempted + 1;
      s.txn <- Some txn;
      s.todo <- todo;
      s.wrote <- [];
      s.parked <- false;
      Hashtbl.replace by_xid (Tc.xid txn) s
    end
    else s.txn <- None
  in
  let retire s txn =
    Hashtbl.remove by_xid (Tc.xid txn);
    fresh s
  in
  let fail s txn reason =
    Spans.with_ l_tc (fun () -> Tc.abort tc txn ~reason);
    st.failed <- st.failed + 1;
    retire s txn
  in
  let exec txn = function
    | Read i -> (
      match Spans.with_ l_tc (fun () -> Tc.read tc txn ~table ~key:(key_of i)) with
      | `Ok got ->
        Spans.with_ l_bench (fun () -> check_read o i got);
        `Ok
      | (`Blocked | `Fail _) as r -> r)
    | Scan (i, limit) -> (
      match
        Spans.with_ l_tc (fun () -> Tc.scan tc txn ~table ~from_key:(key_of i) ~limit)
      with
      | `Ok got ->
        Spans.with_ l_bench (fun () -> check_scan o i limit got);
        `Ok
      | (`Blocked | `Fail _) as r -> r)
    | Update (i, value) -> (
      match Spans.with_ l_tc (fun () -> Tc.update tc txn ~table ~key:(key_of i) ~value) with
      | `Ok () -> `Ok
      | (`Blocked | `Fail _) as r -> r)
  in
  let step s =
    match s.txn with
    | None -> ()
    | Some txn when not (Tc.is_active txn) ->
      (* a deadlock victim *)
      st.failed <- st.failed + 1;
      retire s txn
    | Some txn -> (
      Spans.set_txn (Tc.xid txn);
      match s.todo with
      | [] -> (
        match Spans.with_ l_tc (fun () -> Tc.commit tc txn) with
        | `Ok () ->
          let now = Spans.now_ns () in
          List.iter (fun (i, v) -> o.vals.(i) <- v) s.wrote;
          st.committed <- st.committed + 1;
          Report.Hist.add st.lat (now - s.born);
          retire s txn;
          incr since_ckpt;
          if spec.ckpt_every > 0 && !since_ckpt >= spec.ckpt_every then begin
            since_ckpt := 0;
            checkpoint sys st
          end
        | `Fail _ ->
          st.failed <- st.failed + 1;
          retire s txn
        | `Blocked -> s.parked <- true)
      | intent :: rest -> (
        match exec txn intent with
        | `Ok ->
          st.ops <- st.ops + 1;
          (match intent with
          | Update (i, v) -> s.wrote <- (i, v) :: s.wrote
          | Read _ | Scan _ -> ());
          s.todo <- rest
        | `Blocked ->
          st.blocked <- st.blocked + 1;
          s.parked <- true
        | `Fail reason -> fail s txn reason))
  in
  (* The TC's own counters restart with it, so they are read around each
     loop, which no crash interrupts. *)
  let forces = Tc.log_forces tc and msgs = Tc.messages_sent tc
  and locks = Tc.lock_acquisitions tc and resends = Tc.resends tc in
  Array.iter fresh slots;
  let stalls = ref 0 in
  while Array.exists (fun s -> s.txn <> None) slots do
    let before = st.ops + st.committed + st.failed in
    List.iter
      (fun x ->
        match Hashtbl.find_opt by_xid x with
        | Some s -> s.parked <- false
        | None -> ())
      (Tc.wakeups tc);
    let ran = ref false in
    Array.iter
      (fun s ->
        if s.txn <> None && not s.parked then begin
          ran := true;
          step s
        end)
      slots;
    if not !ran then begin
      ignore (Spans.with_ l_tc (fun () -> Tc.resolve_deadlock tc));
      Array.iter (fun s -> s.parked <- false) slots
    end;
    if st.ops + st.committed + st.failed > before then stalls := 0
    else begin
      incr stalls;
      if !stalls > 10_000 then failwith "closed loop: no progress"
    end
  done;
  st.forces <- st.forces + Tc.log_forces tc - forces;
  st.msgs <- st.msgs + Tc.messages_sent tc - msgs;
  st.locks <- st.locks + Tc.lock_acquisitions tc - locks;
  st.resends <- st.resends + Tc.resends tc - resends

(* Read [keys] in one transaction and hold them to the oracle. *)
let verify sys o keys =
  let tc = sys.Sys1.tc in
  let txn = Spans.with_ l_tc (fun () -> Tc.begin_txn tc) in
  List.iter
    (fun i ->
      let got =
        ok "verify read" (Spans.with_ l_tc (fun () -> Tc.read tc txn ~table ~key:(key_of i)))
      in
      Spans.with_ l_bench (fun () -> check_read o i got))
    (List.sort_uniq compare keys);
  ok "verify commit" (Spans.with_ l_tc (fun () -> Tc.commit tc txn))

(* --- restart cycles ----------------------------------------------------- *)

let losers_per_cycle = 3

(* Leave [losers_per_cycle] multi-write transactions in flight: their
   updates are sent, never committed.  Returns them with their keys. *)
let start_losers sys g =
  let tc = sys.Sys1.tc in
  let n = g.spec.writes_per_txn in
  (* disjoint key sets, so no loser waits for another *)
  let keys = Array.of_list (distinct_keys g (n * losers_per_cycle)) in
  List.init losers_per_cycle (fun l ->
      let txn = Spans.with_ l_tc (fun () -> Tc.begin_txn tc) in
      let mine = List.init n (fun j -> keys.((j * losers_per_cycle) + l)) in
      List.iter
        (fun i ->
          ok "loser update"
            (Spans.with_ l_tc (fun () ->
                 Tc.update tc txn ~table ~key:(key_of i) ~value:(value g))))
        mine;
      (txn, mine))

type cycle = {
  dc_ns : int;
  tc_ns : int;
  batch_ns : int;  (** time spent running the two batches *)
  batch_commits : int;
}

(* One restart cycle: checkpoint; a batch of [batch] committed
   transactions plus in-flight losers; a timed DC crash; verify every
   key the batch and the losers touched; the batch again; a timed TC
   crash; verify again.  The batch transactions run on [st]. *)
let restart_cycle sys spec g o st ~batch =
  let tc = sys.Sys1.tc in
  Spans.with_ l_tc (fun () -> Tc.quiesce tc);
  checkpoint sys st;
  let touched = ref [] in
  let run_batch () =
    let left = ref batch in
    let committed = st.committed in
    let t0 = Spans.now_ns () in
    run sys { spec with ckpt_every = 0 } o st ~clients:1
      ~next:(fun () ->
        let s = writes g in
        List.iter (function Update (i, _) -> touched := i :: !touched | _ -> ()) s;
        s)
      ~more:(fun () ->
        decr left;
        !left >= 0);
    (Spans.now_ns () - t0, st.committed - committed)
  in
  let b1, c1 = run_batch () in
  let losers = start_losers sys g in
  (* Each timed crash starts with no collector debt, so a major slice
     owed by earlier work does not land inside it. *)
  Spans.with_ l_bench Gc.full_major;
  let dc_ns = Sys1.timed (fun () -> Sys1.crash_dc sys) in
  List.iter
    (fun (txn, _) -> Spans.with_ l_tc (fun () -> Tc.abort tc txn ~reason:"loser"))
    losers;
  verify sys o (List.concat_map snd losers @ !touched);
  touched := [];
  let b2, c2 = run_batch () in
  let losers = start_losers sys g in
  Spans.with_ l_bench Gc.full_major;
  let tc_ns = Sys1.timed (fun () -> Sys1.crash_tc sys) in
  verify sys o (List.concat_map snd losers @ !touched);
  { dc_ns; tc_ns; batch_ns = b1 + b2; batch_commits = c1 + c2 }
