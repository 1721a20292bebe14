(* Tests of the Section 6.5 output-commit rule: "before committing an
   output to the environment, a process must make sure that it will never
   rollback the current state or lose it in a failure."

   The application emits an output (a send to Types.output_dst) for every
   delivered key; chains forward messages around a ring first when asked. *)

module Network = Optimist_net.Network
module Engine = Optimist_sim.Engine
module Types = Optimist_core.Types
module Process = Optimist_core.Process
module System = Optimist_core.System
module Trace = Optimist_obs.Trace
module Ftvc = Optimist_clock.Ftvc
module Counters = Optimist_util.Stats.Counters

type msg = { key : int; hops : int }

(* Forward [hops] times around the ring, then emit the key as an output. *)
let app ~n : (int, msg) Types.app =
  {
    Types.init = (fun _ -> 0);
    on_message =
      (fun ~me ~src:_ state m ->
        let state' = state + 1 in
        let sends =
          if m.hops > 0 then [ ((me + 1) mod n, { m with hops = m.hops - 1 }) ]
          else [ (Types.output_dst, m) ]
        in
        (state', sends));
  }

(* Every Data and Control message takes 5 time units, so a commit request
   and its answer make a round trip of 10. [released] records the virtual
   time of each release, newest first, next to [outputs]. *)
let latency = 5.0

type run = {
  sys : (int, msg) System.t;
  outputs : (int * int * int) list ref;  (** (pid, seq, key), newest first *)
  released : float list ref;
  ring : Trace.Ring.t;
}

let make ?(commit = true) ?(flush_interval = 10_000.0) ?(drop_in_flight = false) n
    =
  let outputs = ref [] and released = ref [] in
  let sys = ref None in
  let on_output ~pid ~seq m =
    outputs := (pid, seq, m.key) :: !outputs;
    Option.iter (fun s -> released := Engine.now (System.engine s) :: !released) !sys
  in
  let config =
    {
      Types.default_config with
      Types.commit_outputs = commit;
      flush_interval;
      checkpoint_interval = 10_000.0;
      restart_delay = 10.0;
      drop_in_flight_on_crash = drop_in_flight;
    }
  in
  let net_config =
    { (Network.default_config ~n) with Network.latency = Network.Constant latency }
  in
  let ring = Trace.Ring.create ~capacity:100_000 () in
  let trace = Trace.create () in
  Trace.attach trace (Trace.Ring.sink ring);
  let s =
    System.create ~seed:8L ~net_config ~config ~trace ~on_output ~n ~app:(app ~n) ()
  in
  sys := Some s;
  { sys = s; outputs; released; ring }

let requests r pid =
  Option.value ~default:0
    (List.assoc_opt "commit_requests" (Process.counters (System.process r.sys pid)))

(* The commit rule as the trace shows it: when an output is released,
   every state it depends on is in its holder's stable log. A dependency
   [(ver, ts)] on process [j] is covered by an earlier Log_flush of [j]
   whose own clock entry is [(ver, ts')] with [ts' >= ts]; [j]'s initial
   state [(0, 1)] and below needs none. Returns the releases checked. *)
let check_released_logged r =
  let flushed = Hashtbl.create 16 in
  List.fold_left
    (fun checked (ev : Trace.event) ->
      match ev.kind with
      | Trace.Log_flush _ ->
          let own = ev.clock.(ev.pid) in
          let prev = Option.value ~default:0 (Hashtbl.find_opt flushed (ev.pid, own.Ftvc.ver)) in
          Hashtbl.replace flushed (ev.pid, own.Ftvc.ver) (max prev own.Ftvc.ts);
          checked
      | Trace.Output_commit { seq } ->
          Array.iteri
            (fun j (d : Ftvc.entry) ->
              let logged =
                (d.ver = 0 && d.ts <= 1)
                ||
                match Hashtbl.find_opt flushed (j, d.ver) with
                | Some ts -> d.ts <= ts
                | None -> false
              in
              if not logged then
                Alcotest.failf
                  "P%d released output %d at %.1f while P%d's state (%d,%d) was not \
                   in its stable log"
                  ev.pid seq ev.at j d.ver d.ts)
            ev.clock;
          checked + 1
      | _ -> checked)
    0 (Trace.Ring.to_list r.ring)

(* --- without the rule, outputs release immediately --- *)

let test_optimistic_immediate () =
  let r = make ~commit:false 3 in
  System.inject_at r.sys ~at:10.0 ~pid:0 { key = 42; hops = 0 };
  System.run r.sys;
  Alcotest.(check (list (triple int int int))) "released at once"
    [ (0, 1, 42) ] !(r.outputs)

(* --- with the rule, an output waits for its state to be logged --- *)

(* The producing state is flushed as the output becomes pending, so with
   no remote dependency the output leaves at once, after that flush and
   with no request. *)
let test_buffered_until_logged () =
  let r = make 3 in
  System.inject_at r.sys ~at:10.0 ~pid:0 { key = 42; hops = 0 };
  System.run r.sys;
  Alcotest.(check (list (triple int int int))) "released" [ (0, 1, 42) ] !(r.outputs);
  Alcotest.(check (list (float 0.0))) "at its own flush" [ 10.0 ] !(r.released);
  Alcotest.(check int) "after its state was logged" 1 (check_released_logged r);
  Alcotest.(check int) "no request" 0 (requests r 0);
  Alcotest.(check int) "drained" 0 (System.pending_outputs r.sys)

(* --- an output also waits for its *dependencies* to be logged --- *)

(* One hop: P0 delivers (unflushed) and forwards; P1 outputs. P1's own
   flush is not enough: the output leaves only once P0 has flushed, on
   P1's request, and P1 has its answer. *)
let test_waits_for_remote_dependency () =
  let r = make 3 in
  System.inject_at r.sys ~at:10.0 ~pid:0 { key = 7; hops = 1 };
  System.run r.sys ~until:24.0;
  Alcotest.(check (list (triple int int int))) "still waiting on P0" [] !(r.outputs);
  Alcotest.(check int) "pending at P1" 1 (System.pending_outputs r.sys);
  Alcotest.(check int) "P0 has flushed" 1
    (List.length
       (List.filter
          (fun (ev : Trace.event) ->
            ev.pid = 0 && match ev.kind with Trace.Log_flush _ -> true | _ -> false)
          (Trace.Ring.to_list r.ring)));
  System.run r.sys;
  Alcotest.(check (list (triple int int int))) "released" [ (1, 1, 7) ] !(r.outputs);
  Alcotest.(check int) "after P0 logged it" 1 (check_released_logged r);
  Alcotest.(check int) "one request, to P0" 1 (requests r 1)

(* Timers parked: the output at P1 (t = 15) asks P0, whose answer arrives
   one round trip later. *)
let test_commits_in_one_round_trip () =
  let r = make 3 in
  System.inject_at r.sys ~at:10.0 ~pid:0 { key = 5; hops = 1 };
  System.run r.sys;
  Alcotest.(check (list (triple int int int))) "released" [ (1, 1, 5) ] !(r.outputs);
  Alcotest.(check (list (float 1e-9))) "one round trip after the output"
    [ 10.0 +. latency +. (2.0 *. latency) ]
    !(r.released);
  Alcotest.(check int) "safe" 1 (check_released_logged r)

(* --- the payoff: outputs from states that a crash destroys are never
   released under the rule, but escape without it --- *)

(* P0 delivers at t = 10 and forwards twice; P2 outputs at t = 20 and asks
   P0 and P1, but P0 crashes at t = 22, before the request reaches it: its
   delivery was never flushed, so the output's state is lost. *)
let crash_scenario ~commit =
  let r = make ~commit 3 in
  System.inject_at r.sys ~at:10.0 ~pid:0 { key = 99; hops = 2 };
  System.fail_at r.sys ~at:22.0 ~pid:0;
  System.run r.sys;
  System.settle_outputs r.sys;
  ignore (check_released_logged r);
  r

let test_lost_state_output_suppressed () =
  let r = crash_scenario ~commit:true in
  Alcotest.(check (list (triple int int int))) "commit rule holds it back" []
    !(r.outputs);
  Alcotest.(check int) "P2 asked P0 and P1" 2 (requests r 2);
  Alcotest.(check int) "nothing pending" 0 (System.pending_outputs r.sys);
  Alcotest.(check (list (triple int int int)))
    "optimistic release leaks it"
    [ (2, 1, 99) ]
    !((crash_scenario ~commit:false).outputs)

(* A request whose target is down is dropped with it; the answer never
   comes, and the flush timer's gossip commits the output instead. P0
   delivers at t = 42 and forwards; P1 outputs at t = 47 and asks P0; P0's
   timer flushes and gossips at t = 50 and P0 crashes at t = 51, so the
   request (due at 52) is lost but the gossip (due at 55) is not. *)
let test_lost_request_recovered_by_gossip () =
  let r = make ~flush_interval:50.0 ~drop_in_flight:true 3 in
  System.inject_at r.sys ~at:42.0 ~pid:0 { key = 3; hops = 1 };
  System.fail_at r.sys ~at:51.0 ~pid:0;
  System.run r.sys ~until:54.0;
  Alcotest.(check (list (triple int int int))) "not yet" [] !(r.outputs);
  System.run r.sys ~until:56.0;
  Alcotest.(check (list (triple int int int))) "released" [ (1, 1, 3) ] !(r.outputs);
  Alcotest.(check (list (float 1e-9))) "by the gossip" [ 55.0 ] !(r.released);
  System.run r.sys;
  Alcotest.(check int) "released once" 1 (List.length !(r.outputs));
  Alcotest.(check int) "one request" 1 (requests r 1);
  Alcotest.(check bool) "the request was dropped at P0's restart" true
    (Counters.get (Network.stats (System.network r.sys)) "dropped.data" >= 1);
  Alcotest.(check int) "safe" 1 (check_released_logged r);
  Alcotest.(check int) "no rollback" 0 (System.total r.sys "rollbacks")

(* Ten outputs at P1 in a burst, each depending on a newer state of P0:
   one request is outstanding at a time, and its answer covers them all. *)
let test_burst_one_outstanding_request () =
  let r = make 3 in
  for k = 0 to 9 do
    System.inject_at r.sys ~at:(10.0 +. (0.1 *. float_of_int k)) ~pid:0 { key = k; hops = 1 }
  done;
  System.run r.sys;
  Alcotest.(check int) "all released" 10 (List.length !(r.outputs));
  Alcotest.(check int) "one request to P0" 1 (requests r 1);
  Alcotest.(check int) "safe" 10 (check_released_logged r)

(* --- outputs from orphan states are dropped by the rollback --- *)

let test_orphan_output_dropped () =
  let r = make 3 in
  let sys = r.sys and outputs = r.outputs in
  (* P0's delivery (unflushed) forwards to P1, which outputs; P0 then
     crashes, making P1's state an orphan. P1 rolls back; the buffered
     output must die with the orphan. *)
  System.inject_at sys ~at:10.0 ~pid:0 { key = 13; hops = 1 };
  System.fail_at sys ~at:17.0 ~pid:0;
  System.run sys;
  System.settle_outputs sys;
  Alcotest.(check (list (triple int int int))) "no orphan output" [] !outputs;
  Alcotest.(check int) "nothing pending" 0 (System.pending_outputs sys);
  Alcotest.(check bool) "P1 did roll back" true
    (System.total sys "rollbacks" >= 1)

(* --- outputs of surviving states are released exactly once, in order --- *)

let test_ordered_exactly_once () =
  let r = make ~flush_interval:20.0 3 in
  let sys = r.sys and outputs = r.outputs in
  for k = 1 to 10 do
    System.inject_at sys ~at:(10.0 *. float_of_int k) ~pid:0 { key = k; hops = 0 }
  done;
  (* A mid-run crash of P1 (uninvolved) and one of P0 after a flush. *)
  System.fail_at sys ~at:55.0 ~pid:1;
  System.run sys;
  System.settle_outputs sys;
  let p0_outputs =
    List.rev !outputs
    |> List.filter (fun (pid, _, _) -> pid = 0)
    |> List.map (fun (_, seq, key) -> (seq, key))
  in
  (* Sequence numbers strictly increase: released in order, no duplicates. *)
  let rec increasing = function
    | (s1, _) :: ((s2, _) :: _ as rest) -> s1 < s2 && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "in order" true (increasing p0_outputs);
  Alcotest.(check bool) "most keys released" true (List.length p0_outputs >= 8)

(* --- replay must not re-release committed outputs --- *)

let test_replay_no_double_release () =
  let r = make ~flush_interval:5.0 3 in
  let sys = r.sys and outputs = r.outputs in
  System.inject_at sys ~at:10.0 ~pid:0 { key = 1; hops = 0 };
  System.run sys;
  System.settle_outputs sys;
  Alcotest.(check int) "one release" 1 (List.length !outputs);
  (* Crash after the flush: restart replays the delivery and regenerates
     the output, which is already committed. *)
  System.fail_at sys ~at:100.0 ~pid:0;
  System.run sys;
  System.settle_outputs sys;
  Alcotest.(check int) "still one release" 1 (List.length !outputs)

let suite =
  [
    Alcotest.test_case "optimistic release is immediate" `Quick
      test_optimistic_immediate;
    Alcotest.test_case "buffered until locally logged" `Quick
      test_buffered_until_logged;
    Alcotest.test_case "waits for remote dependencies" `Quick
      test_waits_for_remote_dependency;
    Alcotest.test_case "lost-state output suppressed" `Quick
      test_lost_state_output_suppressed;
    Alcotest.test_case "orphan output dropped" `Quick test_orphan_output_dropped;
    Alcotest.test_case "ordered, exactly once" `Quick test_ordered_exactly_once;
    Alcotest.test_case "replay does not re-release" `Quick
      test_replay_no_double_release;
    Alcotest.test_case "commit within one request round trip" `Quick
      test_commits_in_one_round_trip;
    Alcotest.test_case "lost request: gossip commits" `Quick
      test_lost_request_recovered_by_gossip;
    Alcotest.test_case "burst: one request outstanding" `Quick
      test_burst_one_outstanding_request;
  ]
