(* The seams the bench measures through: the transport and runtime records
   a protocol process is built over, and the [Types.tracer] hooks. In an
   untraced run the transport and runtime come back unchanged. *)

module Loop = Optimist_live.Loop
module Transport = Optimist_core.Transport
module Types = Optimist_core.Types

(* One turn of a live loop. Untraced, and outside timed windows: fire due
   timers, then wait up to 10 ms for input. In a traced window the
   runtime layer is a poll that never blocks, so its self time is work
   (select, recvfrom, decode, deferred sendto, retransmission); after a
   poll that ran no layer, a short sleep, timed as idle, stands in for
   the blocking wait. *)
let idle_step = 1e-4

let pump loop =
  if not !Spans.active then Loop.run_once loop ~max_wait:0.01
  else begin
    let before = Spans.entered () in
    Spans.with_ Spans.Runtime (fun () -> Loop.run_once loop ~max_wait:0.0);
    if Spans.entered () = before + 1 then Spans.wait (fun () -> Unix.sleepf idle_step)
  end

let transport (base : 'a Transport.t) =
  if not !Spans.tracing then base
  else
    {
      base with
      Transport.send =
        (fun ~lane ~src ~dst x ->
          Spans.with_ Spans.Send (fun () -> base.Transport.send ~lane ~src ~dst x));
      broadcast =
        (fun ~lane ~src x ->
          Spans.with_ Spans.Send (fun () -> base.Transport.broadcast ~lane ~src x));
      set_handler =
        (fun id f ->
          base.Transport.set_handler id (fun x ->
              Spans.with_ Spans.Handler (fun () -> f x)));
    }

(* Protocol timers; a restart (the simulator's crash recovery) is
   attributed to recovery rather than to periodic timer work. *)
let runtime (base : Transport.runtime) =
  if not !Spans.tracing then base
  else
    {
      base with
      Transport.schedule =
        (fun ?label ~daemon ~delay f ->
          let layer =
            match label with
            | Some { Transport.Engine.l_kind = "restart"; _ } -> Spans.Recovery
            | _ -> Spans.Timer
          in
          base.Transport.schedule ?label ~daemon ~delay (fun () ->
              Spans.with_ layer f));
    }

(* Send -> Deliver latency per message uid, in host time. A message
   delivered twice (retransmitted after its receiver crashed) counts
   once, at its first delivery. *)
let latency_tracer ~deliver ~delivered =
  let sent : (int, float) Hashtbl.t = Hashtbl.create 4096 in
  let message_sent ~src:_ ~uid = Hashtbl.replace sent uid (Timing.now ()) in
  let on_delivered ~pid:_ ~uid =
    incr delivered;
    match Hashtbl.find_opt sent uid with
    | Some t ->
        Hashtbl.remove sent uid;
        Timing.Latency.add deliver (Timing.now () -. t)
    | None -> ()
  in
  if not !Spans.tracing then
    { Types.null_tracer with message_sent; delivered = on_delivered }
  else
    {
      Types.null_tracer with
      message_sent =
        (fun ~src ~uid -> Spans.with_ Spans.Bench (fun () -> message_sent ~src ~uid));
      delivered =
        (fun ~pid ~uid -> Spans.with_ Spans.Bench (fun () -> on_delivered ~pid ~uid));
    }
