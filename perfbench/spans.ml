(* Span recorder for the traced run.

   Spans are recorded only by the benchmark's own code, around calls it
   makes into a layer (or, in the probe assembly, around the transport
   and DC-handler closures it wires in).  Each span carries a layer id,
   start and end in nanoseconds, its parent span and the transaction it
   belongs to.  Self time and self allocation (minor words) are
   aggregated online per layer: a span's self cost is its own cost
   minus what its child spans cover.  Raw spans are kept in memory up
   to [cap] and written out as JSONL at the end of the run.

   When [enabled] is false every wrapper costs one bool check. *)

let enabled = ref false

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* --- layer registry --------------------------------------------------- *)

let names : string array ref = ref [||]

let layer name =
  let n = Array.length !names in
  let rec find i =
    if i = n then begin
      names := Array.append !names [| name |];
      n
    end
    else if !names.(i) = name then i
    else find (i + 1)
  in
  find 0

let layer_name id = !names.(id)

(* --- per-layer aggregates --------------------------------------------- *)

let max_layers = 64

let self_ns = Array.make max_layers 0

let self_words = Array.make max_layers 0.

let calls = Array.make max_layers 0

(* --- the open-span stack ------------------------------------------------ *)

let max_depth = 64

let st_layer = Array.make max_depth 0

let st_start = Array.make max_depth 0

let st_words = Array.make max_depth 0.

let st_child_ns = Array.make max_depth 0

let st_child_words = Array.make max_depth 0.

let st_id = Array.make max_depth 0

let depth = ref 0

let next_id = ref 1

let cur_txn = ref 0

let set_txn x = cur_txn := x

(* --- raw span log ------------------------------------------------------ *)

let cap = 50_000

(* Allocated by [reset], so an untraced run does not carry them. *)
let log_id = ref [||]

let log_layer = ref [||]

let log_start = ref [||]

let log_stop = ref [||]

let log_parent = ref [||]

let log_txn = ref [||]

let logged = ref 0

let dropped = ref 0

let origin = ref 0

let reset () =
  Array.fill self_ns 0 max_layers 0;
  Array.fill self_words 0 max_layers 0.;
  Array.fill calls 0 max_layers 0;
  depth := 0;
  List.iter
    (fun a -> if Array.length !a <> cap then a := Array.make cap 0)
    [ log_id; log_layer; log_start; log_stop; log_parent; log_txn ];
  logged := 0;
  dropped := 0;
  origin := now_ns ()

let enter id =
  let d = !depth in
  st_layer.(d) <- id;
  st_id.(d) <- !next_id;
  incr next_id;
  st_child_ns.(d) <- 0;
  st_child_words.(d) <- 0.;
  st_words.(d) <- Gc.minor_words ();
  st_start.(d) <- now_ns ();
  depth := d + 1

let leave () =
  let stop = now_ns () in
  let words = Gc.minor_words () in
  let d = !depth - 1 in
  depth := d;
  let id = st_layer.(d) in
  let dur = stop - st_start.(d) in
  let w = words -. st_words.(d) in
  self_ns.(id) <- self_ns.(id) + dur - st_child_ns.(d);
  self_words.(id) <- self_words.(id) +. w -. st_child_words.(d);
  calls.(id) <- calls.(id) + 1;
  if d > 0 then begin
    st_child_ns.(d - 1) <- st_child_ns.(d - 1) + dur;
    st_child_words.(d - 1) <- st_child_words.(d - 1) +. w
  end;
  let i = !logged in
  if i < Array.length !log_id then begin
    !log_id.(i) <- st_id.(d);
    !log_layer.(i) <- id;
    !log_start.(i) <- st_start.(d) - !origin;
    !log_stop.(i) <- stop - !origin;
    !log_parent.(i) <- (if d > 0 then st_id.(d - 1) else 0);
    !log_txn.(i) <- !cur_txn;
    logged := i + 1
  end
  else incr dropped

let with_ id f =
  if not !enabled then f ()
  else begin
    enter id;
    match f () with
    | v ->
      leave ();
      v
    | exception e ->
      leave ();
      raise e
  end

(* --- phase snapshots ---------------------------------------------------- *)

type snap = { s_ns : int array; s_words : float array; s_calls : int array }

let snapshot () =
  { s_ns = Array.copy self_ns; s_words = Array.copy self_words;
    s_calls = Array.copy calls }

(* Self nanoseconds, self words and span count of a layer between two
   snapshots. *)
let between a b id =
  (b.s_ns.(id) - a.s_ns.(id), b.s_words.(id) -. a.s_words.(id),
   b.s_calls.(id) - a.s_calls.(id))

let dump_jsonl path =
  let oc = open_out path in
  for i = 0 to !logged - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"txn\":%d}\n"
      !log_id.(i) (layer_name !log_layer.(i)) !log_start.(i) !log_stop.(i)
      !log_parent.(i) !log_txn.(i)
  done;
  close_out oc
