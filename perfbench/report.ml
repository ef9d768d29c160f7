(* Order statistics, latency histograms, timed slices and the result
   line. *)

(* Nearest-rank quantile of a float list, [q] in [0, 1]. *)
let quantile l q =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

let median_f l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Latency histogram in fixed storage: log-linear buckets, 128 per power
   of two, so a percentile is within 1% of the samples it stands for and
   recording a sample allocates nothing. *)
module Hist = struct
  let sub = 7

  type t = { b : int array; mutable n : int }

  let create () = { b = Array.make (64 lsl sub) 0; n = 0 }

  let clear h =
    Array.fill h.b 0 (Array.length h.b) 0;
    h.n <- 0

  let index v =
    if v < 2 lsl sub then max v 0
    else begin
      let msb = ref 0 and x = ref v in
      while !x > 1 do
        x := !x lsr 1;
        incr msb
      done;
      let shift = !msb - sub in
      (shift lsl sub) + (v lsr shift)
    end

  (* Lower bound and width of bucket [i]. *)
  let bounds i =
    if i < 2 lsl sub then (float i, 1.)
    else
      let shift = (i lsr sub) - 1 in
      let lo = ((i land ((1 lsl sub) - 1)) lor (1 lsl sub)) lsl shift in
      (float lo, float (1 lsl shift))

  let add h v =
    let i = index v in
    h.b.(i) <- h.b.(i) + 1;
    h.n <- h.n + 1

  (* Nearest-rank [p]th percentile, [p] in [0, 100], placed within its
     bucket by rank, as if the bucket's samples were spread evenly. *)
  let percentile h p =
    if h.n = 0 then 0.
    else begin
      let rank = max 1 (int_of_float (ceil (p /. 100. *. float h.n))) in
      let i = ref 0 and seen = ref h.b.(0) in
      while !seen < rank do
        incr i;
        seen := !seen + h.b.(!i)
      done;
      let lo, width = bounds !i in
      let before = !seen - h.b.(!i) in
      lo +. (width *. (float (rank - before) -. 0.5) /. float h.b.(!i))
    end
end

(* One slice of a timed phase: its throughput and the median and 99th
   percentile latency (ns) of the transactions it committed. *)
type slice = { tps : float; p50 : float; p99 : float; samples : int }

let slice_seconds = 0.25

let summarize ~tps h =
  { tps; p50 = Hist.percentile h 50.; p99 = Hist.percentile h 99.; samples = h.n }

(* Run [run ~more] for [slice_seconds], its latencies recorded into the
   cleared [lat]; [committed ()] counts commits. *)
let deadline_slice ~lat ~committed run =
  Hist.clear lat;
  let c0 = committed () in
  let t0 = Spans.now_ns () in
  let deadline = t0 + int_of_float (slice_seconds *. 1e9) in
  run ~more:(fun () -> Spans.now_ns () < deadline);
  let ns = Spans.now_ns () - t0 in
  summarize ~tps:(float (committed () - c0) /. (float ns /. 1e9)) lat

let peak_heap_mb () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let json_float f =
  if not (Float.is_finite f) then "0.0"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let print_table title rows =
  Printf.printf "\n%s\n" title;
  List.iter
    (fun { name; value; unit } -> Printf.printf "  %-34s %14.4f %s\n" name value unit)
    rows

(* The last line of standard output: one JSON object. *)
let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun { name; value; unit } ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
             (json_float value) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body
