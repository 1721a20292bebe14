(* Tests of the discrete-event engine: ordering, determinism, cancellation,
   daemon semantics. *)

module Engine = Optimist_sim.Engine

let test_time_order () =
  let e = Engine.create () in
  let fired = ref [] in
  let note tag () = fired := tag :: !fired in
  ignore (Engine.schedule e ~delay:3.0 (note "c"));
  ignore (Engine.schedule e ~delay:1.0 (note "a"));
  ignore (Engine.schedule e ~delay:2.0 (note "b"));
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !fired);
  Alcotest.(check (float 1e-9)) "final time" 3.0 (Engine.now e)

let test_tie_break_fifo () =
  let e = Engine.create () in
  let fired = ref [] in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~delay:5.0 (fun () -> fired := i :: !fired))
  done;
  Engine.run e;
  Alcotest.(check (list int))
    "ties fire in scheduling order"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !fired)

let test_nested_scheduling () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         fired := "outer" :: !fired;
         ignore
           (Engine.schedule e ~delay:0.5 (fun () -> fired := "inner" :: !fired))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !fired);
  Alcotest.(check (float 1e-9)) "time" 1.5 (Engine.now e)

let test_cancel () =
  let e = Engine.create () in
  let fired = ref 0 in
  let c = Engine.schedule e ~delay:1.0 (fun () -> incr fired) in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> incr fired));
  Engine.cancel e c;
  Engine.run e;
  Alcotest.(check int) "only uncancelled fires" 1 !fired

let test_zero_delay () =
  let e = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule e ~delay:0.0 (fun () -> fired := true));
  Engine.run e;
  Alcotest.(check bool) "zero delay fires" true !fired

let test_negative_delay_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      ignore (Engine.schedule e ~delay:(-1.0) (fun () -> ())))

let test_past_schedule_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:5.0 (fun () -> ()));
  Engine.run e;
  let raised =
    try
      ignore (Engine.schedule_at e 1.0 (fun () -> ()));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "past rejected" true raised

(* [nan < now] is false, so only an explicit check keeps a NaN time out
   of the queue, where it would fire first and leave the clock at NaN. *)
let test_non_finite_rejected () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> fired := 1 :: !fired));
  let rejects what f =
    let raised = try ignore (f ()); false with Invalid_argument _ -> true in
    Alcotest.(check bool) what true raised
  in
  let nop () = () in
  rejects "nan delay" (fun () -> Engine.schedule e ~delay:Float.nan nop);
  rejects "infinite delay" (fun () -> Engine.schedule e ~delay:Float.infinity nop);
  rejects "-infinite delay" (fun () ->
      Engine.schedule e ~delay:Float.neg_infinity nop);
  rejects "nan time" (fun () -> Engine.schedule_at e Float.nan nop);
  rejects "infinite time" (fun () -> Engine.schedule_at e Float.infinity nop);
  Engine.run ~until:10.0 e;
  Alcotest.(check (list int)) "only the finite event fired" [ 1 ] !fired;
  Alcotest.(check (float 0.0)) "clock is finite" 10.0 (Engine.now e)

let test_daemon_does_not_block_exit () =
  let e = Engine.create () in
  let daemon_fires = ref 0 in
  let rec tick () =
    incr daemon_fires;
    ignore (Engine.schedule e ~daemon:true ~delay:1.0 tick)
  in
  ignore (Engine.schedule e ~daemon:true ~delay:1.0 tick);
  ignore (Engine.schedule e ~delay:5.5 (fun () -> ()));
  Engine.run e;
  (* Daemons at t=1..5 fire while real work remains; the self-rescheduling
     loop must not keep the engine alive past t=5.5. *)
  Alcotest.(check int) "daemon fired while work pending" 5 !daemon_fires;
  Alcotest.(check (float 1e-9)) "stopped at last real event" 5.5 (Engine.now e)

let test_until_horizon () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> fired := 1 :: !fired));
  ignore (Engine.schedule e ~delay:10.0 (fun () -> fired := 10 :: !fired));
  Engine.run ~until:5.0 e;
  Alcotest.(check (list int)) "horizon respected" [ 1 ] (List.rev !fired);
  Engine.run e;
  Alcotest.(check (list int)) "resumes" [ 1; 10 ] (List.rev !fired)

let test_step () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> incr fired));
  ignore (Engine.schedule e ~delay:2.0 (fun () -> incr fired));
  Alcotest.(check bool) "step 1" true (Engine.step e);
  Alcotest.(check int) "one fired" 1 !fired;
  Alcotest.(check bool) "step 2" true (Engine.step e);
  Alcotest.(check bool) "exhausted" false (Engine.step e)

let test_events_fired_counter () =
  let e = Engine.create () in
  for _ = 1 to 7 do
    ignore (Engine.schedule e ~delay:1.0 (fun () -> ()))
  done;
  Engine.run e;
  Alcotest.(check int) "count" 7 (Engine.events_fired e)

(* Regression: [pending] counts cancelled tombstones (they stay in the
   heap until popped); [live_pending] must not. *)
let test_live_pending_excludes_tombstones () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> ()));
  let c = Engine.schedule e ~delay:2.0 (fun () -> ()) in
  ignore (Engine.schedule e ~daemon:true ~delay:3.0 (fun () -> ()));
  Engine.cancel e c;
  Alcotest.(check int) "pending counts the tombstone" 3 (Engine.pending e);
  Alcotest.(check int) "live_pending does not" 2 (Engine.live_pending e);
  Alcotest.(check int) "live_work excludes the daemon too" 1
    (Engine.live_work e);
  Engine.run e;
  (* run stops at quiescence (live_work = 0): the live event fired and
     was deducted; only the never-fired daemon remains queued. *)
  Alcotest.(check int) "only the daemon remains" 1 (Engine.live_pending e);
  Alcotest.(check int) "no live work" 0 (Engine.live_work e)

(* The scheduler seam: a strategy over the enabled set replaces the FIFO
   tie-break, and the enabled set exposes labels without advancing
   time. *)
let test_strategy_overrides_tie_break () =
  let e = Engine.create () in
  let fired = ref [] in
  for i = 1 to 4 do
    let label =
      { Engine.l_kind = "n"; l_pid = i; l_src = -1; l_info = "" }
    in
    ignore
      (Engine.schedule e ~label ~delay:1.0 (fun () -> fired := i :: !fired))
  done;
  let cands = Engine.enabled e in
  Alcotest.(check int) "enabled sees all four" 4 (Array.length cands);
  Alcotest.(check int) "labels survive" 3 cands.(2).Engine.c_label.Engine.l_pid;
  (* Fire highest-seq first: exactly the reverse of the FIFO order. *)
  Engine.set_strategy e (Some (fun cands -> Array.length cands - 1));
  Engine.run e;
  Alcotest.(check (list int)) "reverse order" [ 4; 3; 2; 1 ] (List.rev !fired);
  Engine.set_strategy e None;
  ignore (Engine.schedule e ~delay:1.0 (fun () -> fired := 9 :: !fired));
  Engine.run e;
  Alcotest.(check (list int))
    "default restored" [ 4; 3; 2; 1; 9 ]
    (List.rev !fired)

(* --- The queue: firing order against a model --- *)

(* Events fire in ascending time, scheduling order breaking ties: a
   stable sort of the times is the order. *)
let prop_queue_sorted =
  QCheck.Test.make ~name:"queue pops in (time, seq) order" ~count:300
    QCheck.(list (int_bound 20))
    (fun times ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iteri
        (fun i at ->
          ignore
            (Engine.schedule_at e (float_of_int at) (fun () ->
                 fired := (at, i) :: !fired)))
        times;
      Engine.run e;
      List.rev !fired
      = List.stable_sort
          (fun (a, _) (b, _) -> Int.compare a b)
          (List.mapi (fun i at -> (at, i)) times))

(* Inspecting the queue neither fires nor removes anything. *)
let test_queue_peek () =
  let e = Engine.create () in
  Alcotest.(check int) "empty: nothing enabled" 0 (Array.length (Engine.enabled e));
  Alcotest.(check int) "empty: nothing queued" 0 (Array.length (Engine.queued e));
  List.iter
    (fun at -> ignore (Engine.schedule_at e at (fun () -> ())))
    [ 3.0; 1.0; 2.0 ];
  Alcotest.(check int) "pending" 3 (Engine.pending e);
  let enabled = Engine.enabled e in
  Alcotest.(check int) "one enabled" 1 (Array.length enabled);
  Alcotest.(check (float 0.0)) "the earliest" 1.0 enabled.(0).Engine.c_at;
  Alcotest.(check (list (float 0.0)))
    "queued in time order" [ 1.0; 2.0; 3.0 ]
    (Array.to_list (Array.map (fun c -> c.Engine.c_at) (Engine.queued e)));
  Alcotest.(check int) "peeking does not pop" 3 (Engine.pending e);
  Alcotest.(check int) "nothing fired" 0 (Engine.events_fired e);
  Alcotest.(check (float 0.0)) "time did not move" 0.0 (Engine.now e)

(* An initial event: its time, whether it is cancelled right after it is
   scheduled, whether it is a daemon, and the children its handler
   schedules (delay, cancelled right away). *)
type spec = {
  at : int;
  cancelled : bool;
  daemon : bool;
  children : (int * bool) list;
}

let gen_spec =
  let open QCheck.Gen in
  let flag k = map (fun x -> x = 0) (int_bound k) in
  map
    (fun (at, cancelled, daemon, children) -> { at; cancelled; daemon; children })
    (quad (int_bound 4) (flag 4) (flag 5)
       (list_size (int_bound 3) (pair (int_bound 2) (flag 4))))

let print_spec s =
  Printf.sprintf "{at=%d%s%s children=[%s]}" s.at
    (if s.cancelled then " cancelled" else "")
    (if s.daemon then " daemon" else "")
    (String.concat ";"
       (List.map
          (fun (d, c) -> Printf.sprintf "%d%s" d (if c then "x" else ""))
          s.children))

(* What one firing saw: the event's id (initial index, child index or
   -1), the clock, every live queued (time, seq), the live count, and
   the queue's size with tombstones. *)
type seen = {
  id : int * int;
  now : float;
  queued : (float * int) list;
  live : int;
  pending : int;
}

(* The model: a list of scheduled events; the next to fire is the live
   one with the least (time, seq), and the run stops when no live
   non-daemon event is left. *)
type mev = {
  m_at : float;
  m_seq : int;
  m_id : int * int;
  m_daemon : bool;
  m_cancelled : bool;
  m_children : (int * bool) list;
}

let model specs =
  let seq = ref 0 and pending = ref [] and seen = ref [] in
  let add m_at m_id m_daemon m_cancelled m_children =
    pending :=
      { m_at; m_seq = !seq; m_id; m_daemon; m_cancelled; m_children } :: !pending;
    incr seq
  in
  List.iteri
    (fun i s -> add (float_of_int s.at) (i, -1) s.daemon s.cancelled s.children)
    specs;
  let key m = (m.m_at, m.m_seq) in
  let rec loop () =
    let live = List.filter (fun m -> not m.m_cancelled) !pending in
    if List.exists (fun m -> not m.m_daemon) live then begin
      let next =
        List.fold_left (fun a m -> if key m < key a then m else a) (List.hd live) live
      in
      pending := List.filter (fun m -> m != next) !pending;
      let live = List.filter (fun m -> m != next) live in
      seen :=
        ( next.m_id,
          next.m_at,
          List.sort compare (List.map key live),
          List.length live,
          (* unpopped: everything after [next], tombstones included *)
          List.length (List.filter (fun m -> key m > key next) !pending) )
        :: !seen;
      List.iteri
        (fun j (d, c) -> add (next.m_at +. float_of_int d) (fst next.m_id, j) false c [])
        next.m_children;
      loop ()
    end
  in
  loop ();
  List.rev !seen

let engine_run ~strategy specs =
  let e = Engine.create () in
  if strategy then
    (* FIFO by choice: the lowest seq of the earliest instant. *)
    Engine.set_strategy e (Some (fun _ -> 0));
  let seen = ref [] in
  let note id =
    seen :=
      {
        id;
        now = Engine.now e;
        queued =
          Array.to_list
            (Array.map (fun c -> (c.Engine.c_at, c.Engine.c_seq)) (Engine.queued e));
        live = Engine.live_pending e;
        pending = Engine.pending e;
      }
      :: !seen
  in
  List.iteri
    (fun i s ->
      let ev =
        Engine.schedule_at e ~daemon:s.daemon (float_of_int s.at) (fun () ->
            note (i, -1);
            List.iteri
              (fun j (d, c) ->
                let child =
                  Engine.schedule e ~delay:(float_of_int d) (fun () -> note (i, j))
                in
                if c then Engine.cancel e child)
              s.children)
      in
      if s.cancelled then Engine.cancel e ev)
    specs;
  Engine.run e;
  List.rev !seen

let agrees ~strategy specs =
  let got = engine_run ~strategy specs and want = model specs in
  List.length got = List.length want
  && List.for_all2
       (fun g (id, now, queued, live, unpopped) ->
         g.id = id && g.now = now && g.queued = queued && g.live = live
         (* [pending] counts tombstones until they are popped *)
         && g.pending >= live
         && g.pending <= unpopped)
       got want

let prop_queue_model =
  QCheck.Test.make ~name:"queue fires as the (time, seq) model" ~count:500
    QCheck.(make ~print:(Print.list print_spec) Gen.(list_size (int_bound 30) gen_spec))
    (fun specs -> agrees ~strategy:false specs && agrees ~strategy:true specs)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_queue_sorted; prop_queue_model ]

let suite =
  [
    Alcotest.test_case "events fire in time order" `Quick test_time_order;
    Alcotest.test_case "ties break in schedule order" `Quick test_tie_break_fifo;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "cancellation" `Quick test_cancel;
    Alcotest.test_case "zero delay" `Quick test_zero_delay;
    Alcotest.test_case "negative delay rejected" `Quick
      test_negative_delay_rejected;
    Alcotest.test_case "scheduling in the past rejected" `Quick
      test_past_schedule_rejected;
    Alcotest.test_case "non-finite times rejected" `Quick
      test_non_finite_rejected;
    Alcotest.test_case "daemons do not block exit" `Quick
      test_daemon_does_not_block_exit;
    Alcotest.test_case "until horizon" `Quick test_until_horizon;
    Alcotest.test_case "manual stepping" `Quick test_step;
    Alcotest.test_case "events fired counter" `Quick test_events_fired_counter;
    Alcotest.test_case "live_pending excludes tombstones" `Quick
      test_live_pending_excludes_tombstones;
    Alcotest.test_case "strategy overrides tie break" `Quick
      test_strategy_overrides_tie_break;
    Alcotest.test_case "queue peek does not pop" `Quick test_queue_peek;
  ]
  @ qsuite
