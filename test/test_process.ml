(* Process-level unit tests of the Figure 4 receive/restart/rollback
   machinery, driven with scripted timing on constant-latency networks so
   each rule is exercised in isolation. *)

module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Ftvc = Optimist_clock.Ftvc
module Types = Optimist_core.Types
module Process = Optimist_core.Process
module System = Optimist_core.System
module Oracle = Optimist_oracle.Oracle

let cget dump name =
  match List.assoc_opt name dump with Some v -> v | None -> 0

type msg = { tag : string; route : (int * string) list }

(* Scripted app: a message carries the remaining route; each delivery pops
   the next (destination, tag) hop. *)
let app : (string list, msg) Types.app =
  {
    Types.init = (fun _ -> []);
    on_message =
      (fun ~me:_ ~src:_ state m ->
        let state' = m.tag :: state in
        let sends =
          match m.route with
          | [] -> []
          | (dst, tag) :: rest -> [ (dst, { tag; route = rest }) ]
        in
        (state', sends));
  }

let make ?(n = 3) ?(latency = 5.0) ?(control_latency = latency)
    ?(flush_interval = 10_000.0) ?(restart_delay = 10.0) ?tracer () =
  let config =
    {
      Types.default_config with
      Types.flush_interval;
      checkpoint_interval = 10_000.0;
      restart_delay;
    }
  in
  let net_config =
    {
      (Network.default_config ~n) with
      Network.latency = Network.Constant latency;
      control_latency = Some (Network.Constant control_latency);
    }
  in
  System.create ~seed:6L ~net_config ~config ?tracer ~n ~app ()

let received sys pid = List.rev (Process.state (System.process sys pid))

(* --- deliverability: a message naming an unknown incarnation waits --- *)

let test_hold_for_missing_token () =
  (* Control plane slower than data: P1 restarts and its new-incarnation
     message beats the version-0 token to P2. *)
  let sys = make ~latency:2.0 ~control_latency:20.0 () in
  System.inject_at sys ~at:5.0 ~pid:1 { tag = "pre"; route = [] };
  System.fail_at sys ~at:10.0 ~pid:1;
  (* After restart (t=20), P1 sends to P2 from incarnation 1. *)
  System.inject_at sys ~at:21.0 ~pid:1 { tag = "go"; route = [ (2, "from-v1") ] };
  System.run ~until:29.0 sys;
  (* t=29: the message (sent ~21, latency 2) has arrived; the token
     (sent 20, latency 20) has not. *)
  Alcotest.(check int) "message held" 1 (Process.held_count (System.process sys 2));
  Alcotest.(check (list string)) "not delivered yet" [] (received sys 2);
  System.run sys;
  Alcotest.(check int) "released" 0 (Process.held_count (System.process sys 2));
  Alcotest.(check (list string)) "delivered after token" [ "from-v1" ]
    (received sys 2)

(* --- token before message: no hold needed --- *)

let test_no_hold_when_token_known () =
  let sys = make ~latency:20.0 ~control_latency:2.0 () in
  System.inject_at sys ~at:5.0 ~pid:1 { tag = "pre"; route = [] };
  System.fail_at sys ~at:10.0 ~pid:1;
  System.inject_at sys ~at:21.0 ~pid:1 { tag = "go"; route = [ (2, "from-v1") ] };
  System.run sys;
  Alcotest.(check int) "never held" 0
    (cget (Process.counters (System.process sys 2)) "held");
  Alcotest.(check (list string)) "delivered" [ "from-v1" ] (received sys 2)

(* --- version accessor and token content --- *)

let test_version_and_token () =
  let sys = make () in
  System.fail_at sys ~at:10.0 ~pid:0;
  System.fail_at sys ~at:40.0 ~pid:0;
  System.run sys;
  Alcotest.(check int) "two incarnations" 2 (Process.version (System.process sys 0));
  (* Peers saw both tokens. *)
  Alcotest.(check int) "tokens at P1" 2
    (cget (Process.counters (System.process sys 1)) "tokens_received")

(* --- a rollback that crosses the process's own restart point --- *)

let test_rollback_crossing_restart () =
  (* P0 delivers from P1 (building a dependency on P1's volatile state),
     then P0 crashes and restarts: the dependency survives in P0's stable
     log, so the new incarnation still carries it. Only then does P1
     crash, losing the state P0 depends on: P0's rollback must cross its
     own restart point and keep its incarnation number. *)
  let oracle = Oracle.create ~n:3 in
  let sys = make ~flush_interval:10_000.0 ~tracer:(Oracle.tracer oracle) () in
  (* P1 -> P0 dependency; P1's delivery of "seed" stays volatile. *)
  System.inject_at sys ~at:5.0 ~pid:1 { tag = "seed"; route = [ (0, "dep") ] };
  (* P0 flushes (making "dep" stable), then crashes and restarts. *)
  ignore
    (Engine.schedule_at (System.engine sys) 15.0 (fun () ->
         Process.flush_now (System.process sys 0)));
  System.fail_at sys ~at:20.0 ~pid:0;
  (* After P0's restart (t=30), P1 crashes losing "seed". *)
  System.fail_at sys ~at:40.0 ~pid:1;
  System.run sys;
  let p0 = System.process sys 0 in
  (* P0 rolled back past its own restart: the dependency is gone, but the
     incarnation number did not regress. *)
  Alcotest.(check (list string)) "dependency rolled away" [] (received sys 0);
  Alcotest.(check int) "incarnation kept" 1 (Process.version p0);
  Alcotest.(check int) "one rollback" 1
    (cget (Process.counters p0) "rollbacks");
  Alcotest.(check string) "oracle clean" ""
    (String.concat ";"
       (List.map (fun v -> v.Oracle.check) (Oracle.check oracle)))

(* --- checkpoint_now shortens replay --- *)

let test_checkpoint_now () =
  let sys = make () in
  System.inject_at sys ~at:5.0 ~pid:0 { tag = "a"; route = [] };
  System.inject_at sys ~at:6.0 ~pid:0 { tag = "b"; route = [] };
  ignore
    (Engine.schedule_at (System.engine sys) 8.0 (fun () ->
         Process.checkpoint_now (System.process sys 0)));
  System.inject_at sys ~at:10.0 ~pid:0 { tag = "c"; route = [] };
  ignore
    (Engine.schedule_at (System.engine sys) 12.0 (fun () ->
         Process.flush_now (System.process sys 0)));
  System.fail_at sys ~at:15.0 ~pid:0;
  System.run sys;
  let p0 = System.process sys 0 in
  Alcotest.(check (list string)) "state restored" [ "a"; "b"; "c" ] (received sys 0);
  (* Only "c" (after the forced checkpoint) was replayed. *)
  Alcotest.(check int) "replay shortened" 1
    (cget (Process.counters p0) "replayed")

(* --- ablation: without synchronous token logging, a crash can forget a
   token it acted on, and the replayed computation re-accepts dependencies
   on dead states --- *)

let test_unlogged_tokens_forget () =
  let run ~log_tokens =
    let config =
      {
        Types.default_config with
        Types.log_tokens;
        flush_interval = 10_000.0;
        checkpoint_interval = 10_000.0;
        restart_delay = 10.0;
      }
    in
    let net_config =
      {
        (Network.default_config ~n:3) with
        Network.latency = Network.Constant 5.0;
        control_latency = Some (Network.Constant 5.0);
      }
    in
    let sys = System.create ~seed:6L ~net_config ~config ~n:3 ~app () in
    (* P1's state is lost; P0 hears the token; then P0 itself crashes
       right after and must still know the token when it comes back. *)
    System.inject_at sys ~at:5.0 ~pid:1 { tag = "seed"; route = [ (0, "dep") ] };
    ignore
      (Engine.schedule_at (System.engine sys) 12.0 (fun () ->
           Process.flush_now (System.process sys 0)));
    System.fail_at sys ~at:20.0 ~pid:1;
    (* P0 processes the token at ~35 and rolls back; crash it at 36. *)
    System.fail_at sys ~at:36.0 ~pid:0;
    System.run sys;
    Process.history (System.process sys 0)
  in
  let with_log = run ~log_tokens:true in
  let without_log = run ~log_tokens:false in
  Alcotest.(check bool) "token survives the crash" true
    (Optimist_history.History.has_token with_log ~pid:1 ~ver:0);
  Alcotest.(check bool) "ablation forgets the token" false
    (Optimist_history.History.has_token without_log ~pid:1 ~ver:0)

(* --- injections while down are dropped, not queued --- *)

let test_inject_while_down () =
  let sys = make () in
  System.fail_at sys ~at:10.0 ~pid:0;
  System.inject_at sys ~at:12.0 ~pid:0 { tag = "ghost"; route = [] };
  System.run sys;
  Alcotest.(check (list string)) "stimulus lost" [] (received sys 0)

(* --- a sent clock is shared with the sender, and read-only --- *)

(* The wire message carries the sender's pre-send clock array itself, not
   a copy; it must keep its value while the sender goes on sending and
   delivering. A capturing transport keeps every message P0 sends. *)
let test_sent_clock_unchanged () =
  let module Transport = Optimist_core.Transport in
  let engine = Engine.create () in
  let sent = ref [] and handler = ref (fun _ -> ()) in
  let net =
    {
      Transport.send = (fun ~lane:_ ~src:_ ~dst:_ w -> sent := w :: !sent);
      broadcast = (fun ~lane:_ ~src:_ _ -> ());
      set_handler = (fun _ f -> handler := f);
      set_down = (fun _ -> ());
      set_up = (fun ~drop_held_data:_ _ -> ());
    }
  in
  (* A delivered [k] makes P0 send [k] messages to P1. *)
  let app =
    {
      Types.init = (fun _ -> 0);
      on_message =
        (fun ~me:_ ~src:_ count k -> (count + 1, List.init k (fun _ -> (1, 0))));
    }
  in
  let uid = ref 0 in
  let p =
    Process.create_rt ~rt:(Transport.of_engine engine) ~net ~app ~id:0 ~n:2
      ~next_uid:(fun () -> incr uid; !uid) ()
  in
  let clock_of = function
    | Types.Wire_app m -> m.Types.clock
    | Types.Wire_token _ | Types.Wire_frontier _ -> Alcotest.fail "not an app message"
  in
  Process.inject p 1;
  let first = match !sent with [ w ] -> clock_of w | _ -> Alcotest.fail "one send" in
  let before = Array.copy first in
  let pairs a = Array.to_list a |> List.map (fun e -> (e.Ftvc.ver, e.Ftvc.ts)) in
  Alcotest.(check (list (pair int int)))
    "carries the pre-send clock" [ (0, 2); (0, 0) ] (pairs first);
  Alcotest.(check (list (pair int int)))
    "the sender moved past it" [ (0, 3); (0, 0) ]
    (pairs (Ftvc.entries (Process.clock p)));
  Process.inject p 3;
  !handler
    (Types.Wire_app
       {
         Types.data = 2;
         clock = [| { Ftvc.ver = 0; ts = 0 }; { Ftvc.ver = 0; ts = 9 } |];
         frontier = [||];
         sender = 1;
         uid = 1000;
       });
  Alcotest.(check int) "six sends" 6 (List.length !sent);
  Alcotest.(check bool) "first message's clock unchanged" true (first = before);
  let clocks = List.rev_map clock_of !sent in
  Alcotest.(check bool) "each send has its own array" true
    (List.for_all
       (fun c -> List.length (List.filter (fun c' -> c' == c) clocks) = 1)
       clocks)

let suite =
  [
    Alcotest.test_case "hold for missing token" `Quick test_hold_for_missing_token;
    Alcotest.test_case "no hold when token known" `Quick
      test_no_hold_when_token_known;
    Alcotest.test_case "versions and tokens" `Quick test_version_and_token;
    Alcotest.test_case "rollback crossing own restart" `Quick
      test_rollback_crossing_restart;
    Alcotest.test_case "forced checkpoint shortens replay" `Quick
      test_checkpoint_now;
    Alcotest.test_case "ablation: unlogged tokens forgotten" `Quick
      test_unlogged_tokens_forget;
    Alcotest.test_case "injections while down dropped" `Quick
      test_inject_while_down;
    Alcotest.test_case "sent clock unchanged by later sends and deliveries"
      `Quick test_sent_clock_unchanged;
  ]
