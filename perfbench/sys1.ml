(* A 1 TC x 1 DC assembly, either the product [Kernel] or a "probe"
   built from the same public calls [Kernel.create] makes ([Dc.create],
   [Transport.create], [Tc.create], [Tc.attach_dc]).  The probe wraps
   the DC's data/control handlers and the link's send/drain closures in
   spans, counts and captures frames, and replays [Kernel.crash_dc] and
   [Kernel.crash_tc] step by step so each restart phase is timed on its
   own.  Both variants are driven through [Tc] on the assembly's TC. *)

module Kernel = Untx_kernel.Kernel
module Transport = Untx_kernel.Transport
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Wire = Untx_msg.Wire
module Op = Untx_msg.Op
module Metrics = Untx_obs.Metrics
module Cache = Untx_storage.Cache
module Disk = Untx_storage.Disk

let l_tc = Spans.layer "tc"

let l_transport = Spans.layer "transport"

let l_dc = Spans.layer "dc"

(* The name [Kernel] gives its only DC. *)
let dc_name = "dc1"

type restarts = {
  mutable n_dc : int;
  mutable dc_total_ns : int;  (** the whole replayed [Kernel.crash_dc] *)
  mutable dc_recover_ns : int;
  mutable redo_ns : int;
  mutable redo_tc_ns : int;
  mutable redo_transport_ns : int;
  mutable redo_dc_ns : int;
  mutable redo_msgs : int;
  mutable redo_keys : int;
  mutable redo_dup_keys : int;
  mutable redo_disk_reads : int;
  mutable n_tc : int;
  mutable tc_total_ns : int;  (** the whole replayed [Kernel.crash_tc] *)
  mutable tc_recover_ns : int;
  mutable tc_recover_tc_ns : int;
  mutable tc_recover_dc_ns : int;
  mutable records_reset : int;
  mutable pages_dropped : int;
}

let zero_restarts () =
  {
    n_dc = 0; dc_total_ns = 0; tc_total_ns = 0; dc_recover_ns = 0; redo_ns = 0; redo_tc_ns = 0;
    redo_transport_ns = 0; redo_dc_ns = 0; redo_msgs = 0; redo_keys = 0;
    redo_dup_keys = 0; redo_disk_reads = 0; n_tc = 0; tc_recover_ns = 0;
    tc_recover_tc_ns = 0; tc_recover_dc_ns = 0; records_reset = 0;
    pages_dropped = 0;
  }

type t = {
  tc : Tc.t;
  dc : Dc.t;
  transport : Transport.t;
  kernel : Kernel.t option;  (** [None] for the probe *)
  counters : Metrics.t;
  mutable frames : int;  (** probe: frames sent plus replies surfaced *)
  mutable requests_in : int;  (** probe: data frames delivered to the DC *)
  mutable replies_out : int;  (** probe: data replies the DC returned *)
  mutable capture : bool;  (** probe: keep data-channel frames *)
  mutable requests : string list;  (** captured request frames *)
  mutable replies : string list;  (** captured reply frames *)
  mutable n_captured : int;
  mutable redo_frames : string list option;
      (** probe: request frames delivered during [Tc.on_dc_restart] *)
  mutable restarts : restarts;  (** probe: restarts timed phase by phase *)
}

let max_captured = 20_000

let config ~seed ~page_capacity ~cache_pages =
  {
    Kernel.default_config with
    dc = { Dc.default_config with page_capacity; cache_pages };
    seed;
    auto_checkpoint_every = 0;
  }

let kernel cfg =
  let counters = Metrics.create () in
  let k = Kernel.create ~counters cfg in
  {
    tc = Kernel.tc k; dc = Kernel.dc k; transport = Kernel.transport k;
    kernel = Some k; counters; frames = 0; requests_in = 0; replies_out = 0;
    capture = false; requests = []; replies = []; n_captured = 0;
    redo_frames = None; restarts = zero_restarts ();
  }

let keep_request t f =
  if t.capture && t.n_captured < max_captured then begin
    t.requests <- f :: t.requests;
    t.n_captured <- t.n_captured + 1
  end

let keep_reply t f =
  if t.capture && t.n_captured < max_captured then begin
    t.replies <- f :: t.replies;
    t.n_captured <- t.n_captured + 1
  end

let probe (cfg : Kernel.config) =
  let counters = Metrics.create () in
  let dc = Dc.create ~counters cfg.dc in
  let self = ref None in
  let get () = Option.get !self in
  let count_reply = function
    | Some r as reply ->
      let t = get () in
      t.replies_out <- t.replies_out + 1;
      keep_reply t r;
      reply
    | None -> None
  in
  let transport =
    Transport.create ~counters ~policy:cfg.policy ~seed:cfg.seed
      ~data:(fun f ->
        let t = get () in
        t.requests_in <- t.requests_in + 1;
        keep_request t f;
        Option.iter (fun l -> t.redo_frames <- Some (f :: l)) t.redo_frames;
        count_reply (Spans.with_ l_dc (fun () -> Dc.handle_request_frame dc f)))
      ~control:(fun f -> Spans.with_ l_dc (fun () -> Dc.handle_control_frame dc f))
      ()
  in
  let tc = Tc.create ~counters cfg.tc in
  let t =
    {
      tc; dc; transport; kernel = None; counters; frames = 0; requests_in = 0;
      replies_out = 0; capture = false; requests = []; replies = []; n_captured = 0;
      redo_frames = None; restarts = zero_restarts ();
    }
  in
  self := Some t;
  let sent f =
    t.frames <- t.frames + 1;
    Spans.with_ l_transport f
  in
  Tc.attach_dc tc
    {
      Tc.dc_name;
      part = 0;
      send = (fun f -> sent (fun () -> Transport.send transport f));
      send_control = (fun f -> sent (fun () -> Transport.send_control transport f));
      drain =
        (fun () ->
          let ((r, c) as out) =
            Spans.with_ l_transport (fun () -> Transport.drain transport)
          in
          t.frames <- t.frames + List.length r + List.length c;
          out);
    };
  t

let create_table t ~name ~versioned =
  match t.kernel with
  | Some k -> Kernel.create_table k ~name ~versioned
  | None ->
    Dc.create_table t.dc ~name ~versioned;
    Tc.map_table t.tc ~table:name ~dc:dc_name ~versioned

(* --- layer counters ----------------------------------------------------- *)

let disk_reads t = Disk.reads (Dc.disk t.dc)

let disk_writes t = Disk.writes (Dc.disk t.dc)

let evictions t = Cache.evictions (Dc.cache t.dc)

(* Keys a data-channel request touches: version cleanup carries a key
   list, and the DC's duplicate counter counts it per key. *)
let request_keys frame =
  match Wire.decode_request frame with
  | { Wire.op = Op.Commit_versions { keys; _ } | Op.Abort_versions { keys; _ }; _ }
    ->
    List.length keys
  | { Wire.op = Op.Insert _ | Op.Update _ | Op.Delete _; _ } -> 1
  | _ -> 0
  | exception _ -> 0

(* --- restarts ----------------------------------------------------------- *)

let layer_ns a b id =
  let ns, _, _ = Spans.between a b id in
  ns

let timed f =
  let t0 = Spans.now_ns () in
  f ();
  Spans.now_ns () - t0

(* [Kernel.crash_dc], step by step on the probe. *)
let crash_dc t =
  match t.kernel with
  | Some k -> Kernel.crash_dc k
  | None ->
    let r = t.restarts in
    let t0 = Spans.now_ns () in
    Spans.with_ l_transport (fun () -> Transport.drop_in_flight t.transport);
    Spans.with_ l_dc (fun () -> Dc.crash t.dc);
    r.dc_recover_ns <-
      r.dc_recover_ns + timed (fun () -> Spans.with_ l_dc (fun () -> Dc.recover t.dc));
    let dups = Dc.dup_absorbed t.dc and reads = disk_reads t in
    t.redo_frames <- Some [];
    let s0 = Spans.snapshot () in
    r.redo_ns <-
      r.redo_ns
      + timed (fun () ->
            Spans.with_ l_tc (fun () -> Tc.on_dc_restart t.tc ~dc:dc_name));
    let s1 = Spans.snapshot () in
    r.redo_tc_ns <- r.redo_tc_ns + layer_ns s0 s1 l_tc;
    r.redo_transport_ns <- r.redo_transport_ns + layer_ns s0 s1 l_transport;
    r.redo_dc_ns <- r.redo_dc_ns + layer_ns s0 s1 l_dc;
    List.iter
      (fun f ->
        r.redo_msgs <- r.redo_msgs + 1;
        r.redo_keys <- r.redo_keys + request_keys f)
      (Option.get t.redo_frames);
    t.redo_frames <- None;
    r.redo_dup_keys <- r.redo_dup_keys + Dc.dup_absorbed t.dc - dups;
    r.redo_disk_reads <- r.redo_disk_reads + disk_reads t - reads;
    r.n_dc <- r.n_dc + 1;
    r.dc_total_ns <- r.dc_total_ns + Spans.now_ns () - t0

(* [Kernel.crash_tc], step by step on the probe. *)
let crash_tc t =
  match t.kernel with
  | Some k -> Kernel.crash_tc k
  | None ->
    let r = t.restarts in
    let t0 = Spans.now_ns () in
    let reset = Dc.records_reset t.dc and dropped = Dc.pages_dropped t.dc in
    Spans.with_ l_transport (fun () -> Transport.drop_in_flight t.transport);
    Spans.with_ l_tc (fun () -> Tc.crash t.tc);
    let s0 = Spans.snapshot () in
    r.tc_recover_ns <-
      r.tc_recover_ns + timed (fun () -> Spans.with_ l_tc (fun () -> Tc.recover t.tc));
    let s1 = Spans.snapshot () in
    r.tc_recover_tc_ns <- r.tc_recover_tc_ns + layer_ns s0 s1 l_tc;
    r.tc_recover_dc_ns <-
      r.tc_recover_dc_ns + layer_ns s0 s1 l_dc + layer_ns s0 s1 l_transport;
    r.records_reset <- r.records_reset + Dc.records_reset t.dc - reset;
    r.pages_dropped <- r.pages_dropped + Dc.pages_dropped t.dc - dropped;
    r.n_tc <- r.n_tc + 1;
    r.tc_total_ns <- r.tc_total_ns + Spans.now_ns () - t0
