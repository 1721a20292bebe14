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
  ]
