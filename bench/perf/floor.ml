(* The raw-link floor: two Livenet endpoints and no protocol. A closed
   loop keeps [outstanding] Data-lane round trips in flight; each frame
   is a [Types.wire] value shaped like the mesh's, with a 4-entry FTVC.
   The gap between this and mesh_steady is what the protocol costs. *)

module Loop = Optimist_live.Loop
module Livenet = Optimist_live.Livenet
module Transport = Optimist_core.Transport
module Types = Optimist_core.Types
module Ftvc = Optimist_clock.Ftvc

(* Below Linux's default net.unix.max_dgram_qlen (10): a datagram sent to
   a socket with more queued is refused (EAGAIN) and Livenet drops it. *)
let outstanding = 8
let set_ups = 100

let clock = Array.init 4 (fun i -> { Ftvc.ver = 1 + i; ts = 1000 * (i + 1) })

let frame k : Chain.msg Types.wire =
  Types.Wire_app
    {
      Types.data = { Chain.chain = k; hops = 4 };
      clock;
      frontier = [||];
      sender = 0;
      uid = k;
    }

let intact (msg : Chain.msg Types.app_msg) =
  msg.Types.data = { Chain.chain = msg.Types.uid; hops = 4 }
  && msg.Types.clock = clock && msg.Types.sender = 0

let endpoints ~dir ~seed =
  let loop = Loop.create ~base:(Unix.gettimeofday ()) () in
  let make me : Chain.msg Types.wire Livenet.t =
    Livenet.create ~jitter:(0.0, 0.0) ~loop ~dir ~me ~n:2
      ~seed:(Int64.add seed (Int64.of_int me))
      ()
  in
  let a = make 0 in
  let b = make 1 in
  (loop, a, b)

let workload ~seed ~seconds =
  let w = Window.create () in
  for i = 1 to set_ups - 1 do
    let dir = Timing.fresh_dir (Printf.sprintf "link_floor.s%d" i) in
    let _, a, b = Window.setup w (fun () -> endpoints ~dir ~seed) in
    Livenet.close a;
    Livenet.close b;
    Timing.rm_rf dir
  done;
  let deliver = Timing.Latency.create () and output = Timing.Latency.create () in
  let base = Timing.live_mb () in
  let dir = Timing.fresh_dir "link_floor" in
  let loop, a, b = Window.setup w (fun () -> endpoints ~dir ~seed) in
  let ta = Probe.transport (Livenet.transport a) in
  let tb = Probe.transport (Livenet.transport b) in
  let a_sent = Hashtbl.create 64 and b_sent = Hashtbl.create 64 in
  let next = ref 0 and in_flight = ref 0 and frames = ref 0 in
  let sending = ref true and damaged = ref 0 in
  let lap table uid samples t =
    match Hashtbl.find_opt table uid with
    | Some t0 ->
        Hashtbl.remove table uid;
        Timing.Latency.add samples (t -. t0)
    | None -> incr damaged
  in
  let send_next () =
    let k = !next in
    incr next;
    incr in_flight;
    Hashtbl.replace a_sent k (Timing.now ());
    ta.Transport.send ~lane:Transport.Data ~src:0 ~dst:1 (frame k)
  in
  tb.Transport.set_handler 1 (fun x ->
      let t = Timing.now () in
      incr frames;
      match x with
      | Types.Wire_app msg ->
          (match Hashtbl.find_opt a_sent msg.Types.uid with
          | Some t0 -> Timing.Latency.add deliver (t -. t0)
          | None -> incr damaged);
          Hashtbl.replace b_sent msg.Types.uid (Timing.now ());
          tb.Transport.send ~lane:Transport.Data ~src:1 ~dst:0 x
      | Types.Wire_token _ | Types.Wire_frontier _ -> incr damaged);
  ta.Transport.set_handler 0 (fun x ->
      let t = Timing.now () in
      incr frames;
      match x with
      | Types.Wire_app msg ->
          lap b_sent msg.Types.uid deliver t;
          lap a_sent msg.Types.uid output t;
          if not (intact msg) then incr damaged;
          decr in_flight;
          if !sending then send_next ()
      | Types.Wire_token _ | Types.Wire_frontier _ -> incr damaged);
  (* One-second windows (the last one shorter), each a latency segment. *)
  let start = Timing.now () in
  let pump () = Probe.pump loop in
  let window () =
    let before = !frames in
    let stop = Float.min (Timing.now () +. 1.0) (start +. seconds) in
    Window.start w;
    if before = 0 then
      for _ = 1 to outstanding do
        send_next ()
      done;
    while Timing.now () < stop do
      pump ()
    done;
    Window.stop w ~msgs:(!frames - before);
    Timing.Latency.cut deliver ~slow:w.Window.slow;
    Timing.Latency.cut output ~slow:w.Window.slow
  in
  while Timing.now () -. start < seconds do
    window ()
  done;
  let msgs = !frames in
  sending := false;
  let drain_end = Timing.now () +. 1.0 in
  while !in_flight > 0 && Timing.now () < drain_end do
    pump ()
  done;
  let retained = Report.retained_since base in
  let stats = Livenet.stats a @ Livenet.stats b in
  let sum k = List.fold_left (fun acc (k', v) -> if k = k' then acc + v else acc) 0 stats in
  Livenet.close a;
  Livenet.close b;
  Timing.rm_rf dir;
  let c =
    {
      Report.no_counts with
      msgs;
      retransmits = sum "retransmits";
      send_errors = sum "send_errors";
    }
  in
  let problems =
    List.filter_map Fun.id
      [
        (if !in_flight > 0 then
           Some (Printf.sprintf "link_floor: %d frames lost" !in_flight)
         else None);
        (if c.send_errors > 0 then
           Some (Printf.sprintf "link_floor: %d send errors" c.send_errors)
         else None);
        (if !damaged > 0 then
           Some (Printf.sprintf "link_floor: %d frames damaged or unknown" !damaged)
         else None);
      ]
  in
  {
    Report.attempted = !next;
    failed = !in_flight + !damaged;
    e2e = Report.end_to_end ~w ~deliver ~output ~retained;
    layers = (if !Spans.tracing then Report.per_layer c w else []);
    extra =
      Report.extras ~w ~deliver ~output
      @ [
          Report.m "peak_heap_mb" "MB" (Timing.peak_heap_mb ());
          Report.m "lost_frac" "ratio"
            (float_of_int !in_flight /. float_of_int (max 1 !next));
          Report.m "livenet.send_errors" "count" (float_of_int c.send_errors);
        ];
    problems;
  }
