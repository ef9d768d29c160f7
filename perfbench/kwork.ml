(* The three 1 TC x 1 DC workloads: point_rw, scan_big, crash_restart. *)

module Dc = Untx_dc.Dc
module Kernel = Untx_kernel.Kernel
module Audit = Untx_audit.Audit
open Load

type shape = Steady | Restart

type workload = {
  name : string;
  shape : shape;
  spec : spec;
  warmup : int;  (** steady: transactions; restart: cycles *)
  heap_after : int;  (** steady: timed commits before the heap is read *)
}

(* Transactions per batch in a restart cycle. *)
let batch = 500

let point_rw =
  {
    name = "point_rw";
    shape = Steady;
    spec =
      {
        keys = 10_000; versioned = true; page_capacity = 512;
        cache_pages = 1 lsl 16; clients = 4; theta = 0.; read_frac = 0.5;
        scan_frac = 0.; scan_limit = 0; writes_per_txn = 1; ckpt_every = 2_000;
      };
    warmup = 4_000;
    heap_after = 50_000;
  }

let scan_big =
  {
    name = "scan_big";
    shape = Steady;
    spec =
      {
        keys = 50_000; versioned = false; page_capacity = Dc.default_config.page_capacity;
        cache_pages = Dc.default_config.cache_pages; clients = 4; theta = 0.9;
        read_frac = 0.7; scan_frac = 0.2; scan_limit = 10; writes_per_txn = 1;
        ckpt_every = 1_000;
      };
    warmup = 2_000;
    heap_after = 12_000;
  }

let crash_restart =
  {
    name = "crash_restart";
    shape = Restart;
    spec =
      {
        keys = 20_000; versioned = true; page_capacity = 512; cache_pages = 256;
        clients = 1; theta = 0.; read_frac = 0.; scan_frac = 0.; scan_limit = 0;
        writes_per_txn = 4; ckpt_every = 0;
      };
    warmup = 2;
    heap_after = 0;
  }

let all = [ point_rw; scan_big; crash_restart ]

(* --- one assembled, preloaded, warmed-up system ------------------------- *)

type env = {
  w : workload;
  sys : Sys1.t;
  o : oracle;
  g : gen;
  st : stats;
}

let setup ?(probe = false) w ~seed =
  let cfg = config w.spec ~seed in
  let sys = if probe then Sys1.probe cfg else Sys1.kernel cfg in
  let o = oracle w.spec ~seed in
  preload sys w.spec o;
  let g = gen w.spec ~seed in
  let st = stats () in
  (match w.shape with
  | Steady ->
    let left = ref w.warmup in
    run sys w.spec o st ~clients:w.spec.clients ~next:(fun () -> script g)
      ~more:(fun () ->
        decr left;
        !left >= 0)
  | Restart ->
    for _ = 1 to w.warmup do
      ignore (restart_cycle sys w.spec g o st ~batch)
    done);
  { w; sys; o; g; st = stats () }

(* --- measurement -------------------------------------------------------- *)

(* One slice of a steady workload's closed loop. *)
let slice e =
  let st = e.st in
  Report.deadline_slice ~lat:st.lat
    ~committed:(fun () -> st.committed)
    (fun ~more ->
      run e.sys e.w.spec e.o st ~clients:e.w.spec.clients ~next:(fun () -> script e.g) ~more)

(* One restart cycle: its batches as a slice (throughput over the time
   spent running them) and its (DC, TC) restart times. *)
let cycle e =
  let st = e.st in
  Report.Hist.clear st.lat;
  let c = restart_cycle e.sys e.w.spec e.g e.o st ~batch in
  ( Report.summarize ~tps:(float c.batch_commits /. (float c.batch_ns /. 1e9)) st.lat,
    (c.dc_ns, c.tc_ns) )

(* Kernel-level audit (structure, version hygiene, idempotence of the
   stable suffix, full-table oracle), outside any timed phase. *)
let audit e =
  match e.sys.Sys1.kernel with
  | None -> []
  | Some k ->
    Kernel.quiesce k;
    let expected = Array.to_list (Array.mapi (fun i v -> (key_of i, v)) e.o.vals) in
    (Audit.run k ~table ~expected).Audit.violations
