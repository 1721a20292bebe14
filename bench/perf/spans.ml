(* Benchmark-side spans for traced runs ([--trace 1]).

   The bench wraps each call it makes into a layer of the system — the
   protocol handler installed on the transport, protocol timers, sends,
   the stable-store hooks, the trace sink, recovery, the substrate's own
   loop — and records a span around it. A layer's self time is its
   span's duration minus the time its child spans cover. Aggregates are
   kept for every span of the timed windows; the raw spans go into a
   preallocated buffer (the first [capacity] of them) that is written out
   as JSON when the run ends. Untraced runs install no wrappers at all.

   Time the loop spends waiting for input is no layer's: it is timed
   apart ([wait]) and left out of the time the layers' shares are taken
   of, so the shares and the coverage check measure work only. *)

type layer = Handler | Timer | Send | Runtime | Store | Recovery | Sink | Bench

let layers = [ Handler; Timer; Send; Runtime; Store; Recovery; Sink; Bench ]

let index = function
  | Handler -> 0
  | Timer -> 1
  | Send -> 2
  | Runtime -> 3
  | Store -> 4
  | Recovery -> 5
  | Sink -> 6
  | Bench -> 7

let name = function
  | Handler -> "handler"
  | Timer -> "timer"
  | Send -> "send"
  | Runtime -> "runtime"
  | Store -> "store"
  | Recovery -> "recovery"
  | Sink -> "trace"
  | Bench -> "bench"

let nlayers = List.length layers

(* [tracing]: wrappers are installed (set once, from [--trace]).
   [active]: spans are being recorded (only inside timed windows). *)
let tracing = ref false
let active = ref false

(* Float arrays, so the major GC never scans the buffer. *)
let capacity = 1_000_000
let b_layer = ref (Float.Array.create 0)
let b_parent = ref (Float.Array.create 0)
let b_start = ref (Float.Array.create 0)
let b_dur = ref (Float.Array.create 0)
let b_len = ref 0
let b_dropped = ref 0

let max_depth = 64
let s_layer = Array.make max_depth 0
let s_id = Array.make max_depth (-1)
let s_start = Float.Array.make max_depth 0.0
let s_child = Float.Array.make max_depth 0.0
let depth = ref 0

let calls = Array.make nlayers 0
let total = Float.Array.make nlayers 0.0
let self = Float.Array.make nlayers 0.0
let handler_self = Timing.Samples.create ()

let window_total = ref 0.0
let window_start = ref 0.0
let idle_total = ref 0.0

(* When the last top-level span ended (an array, so storing it does not
   allocate), and whether the loop has been waiting since. *)
let last_end = Float.Array.make 1 0.0
let waiting = ref false

let end_wait t =
  if !waiting then begin
    waiting := false;
    idle_total := !idle_total +. (t -. Float.Array.get last_end 0)
  end

let enable () =
  tracing := true;
  b_layer := Float.Array.make capacity 0.0;
  b_parent := Float.Array.make capacity (-1.0);
  b_start := Float.Array.make capacity 0.0;
  b_dur := Float.Array.make capacity 0.0

let enter l =
  let d = !depth in
  if d >= max_depth then failwith "Spans: nesting too deep";
  let t = Timing.now () in
  if d = 0 then end_wait t;
  s_layer.(d) <- index l;
  Float.Array.unsafe_set s_start d t;
  Float.Array.unsafe_set s_child d 0.0;
  let id = !b_len in
  if id < capacity then begin
    Float.Array.unsafe_set !b_layer id (float_of_int (index l));
    Float.Array.unsafe_set !b_parent id
      (if d > 0 then float_of_int s_id.(d - 1) else -1.0);
    Float.Array.unsafe_set !b_start id t;
    b_len := id + 1;
    s_id.(d) <- id
  end
  else begin
    incr b_dropped;
    s_id.(d) <- -1
  end;
  depth := d + 1

let leave () =
  let d = !depth - 1 in
  depth := d;
  let t = Timing.now () in
  if d = 0 then Float.Array.unsafe_set last_end 0 t;
  let dur = t -. Float.Array.unsafe_get s_start d in
  let own = dur -. Float.Array.unsafe_get s_child d in
  let l = s_layer.(d) in
  calls.(l) <- calls.(l) + 1;
  Float.Array.set total l (Float.Array.get total l +. dur);
  Float.Array.set self l (Float.Array.get self l +. own);
  if l = 0 then Timing.Samples.add handler_self own;
  if d > 0 then
    Float.Array.unsafe_set s_child (d - 1)
      (Float.Array.unsafe_get s_child (d - 1) +. dur);
  let id = s_id.(d) in
  if id >= 0 then Float.Array.unsafe_set !b_dur id dur

let with_ l f =
  if not !active then f ()
  else begin
    enter l;
    match f () with
    | r ->
        leave ();
        r
    | exception e ->
        leave ();
        raise e
  end

(* Spans entered so far: unchanged across a call means it ran no layer. *)
let entered () = !b_len + !b_dropped

(* [f] only waits, and is called right after a top-level span that found
   nothing to do. The wait runs from that span's end, when the loop
   decided to wait, to the start of the next top-level span. *)
let wait f =
  if !active then begin
    assert (!depth = 0);
    waiting := true
  end;
  f ()

(* Timed windows: spans are recorded only between [start_window] and
   [stop_window], and coverage is measured against their summed length.
   Both must be called outside any span. *)
let start_window () =
  if !tracing then begin
    assert (!depth = 0);
    active := true;
    window_start := Timing.now ()
  end

let stop_window () =
  if !tracing then begin
    assert (!depth = 0);
    active := false;
    let t = Timing.now () in
    end_wait t;
    window_total := !window_total +. (t -. !window_start)
  end

let self_of l = Float.Array.get self (index l)
let calls_of l = calls.(index l)

let mean_us l =
  let c = calls_of l in
  if c = 0 then 0.0 else Float.Array.get total (index l) /. float_of_int c *. 1e6

(* Shares are of the busy time: the timed wall time less the waits. *)
let share_pct l =
  let busy = !window_total -. !idle_total in
  if busy <= 0.0 then 0.0 else 100.0 *. self_of l /. busy

let idle_pct () =
  if !window_total <= 0.0 then 0.0 else 100.0 *. !idle_total /. !window_total

let covered_pct () =
  List.fold_left (fun acc l -> acc +. share_pct l) 0.0 layers

let write_json path =
  let oc = open_out_bin path in
  Printf.fprintf oc "{\"layers\":[%s],\"dropped\":%d,\"spans\":[\n"
    (String.concat "," (List.map (fun l -> Printf.sprintf "%S" (name l)) layers))
    !b_dropped;
  for i = 0 to !b_len - 1 do
    Printf.fprintf oc "%s[%.0f,%.9f,%.9f,%.0f]"
      (if i = 0 then "" else ",\n")
      (Float.Array.get !b_layer i)
      (Float.Array.get !b_start i)
      (Float.Array.get !b_dur i)
      (Float.Array.get !b_parent i)
  done;
  output_string oc "\n]}\n";
  close_out oc
