(* What every live protocol writes to stable storage, pinned byte for
   byte, and what its next incarnation reads back.

   Each protocol's live face ({!Optimist_core.Protocol.S}) runs here on
   the simulation engine — no OS processes, no sleeping — over real
   {!Optimist_live.Store} directories in a temp dir:

   - gen 0: every worker runs a few virtual seconds of seeded traffic,
     then the whole system stops (the crash);
   - gen 1: worker 1 is rebuilt from its store on a fresh engine, runs
     [recover], then a little more virtual time.

   A third row rebuilds gen 1 over an empty store — a worker killed
   before its first checkpoint reached disk — which must start from the
   initial state, as gen 0 would, and recover.

   The MD5 of every store file after each phase is compared with
   [persistence.expected]. Those digests were recorded once and must not
   be regenerated to make a change pass: a refactor of how protocols
   reach their store must leave the bytes on disk unchanged.

   Damani-Garg's checkpoint files are also decoded, one line per
   checkpoint, through {!Optimist_core.Process.pp_checkpoint}. Those
   lines do not depend on how a checkpoint is represented, so a change of
   representation moves the [cps.bin] digests and must leave the decoded
   lines as they are. A line's uids are read from the stable log
   ([log.bin]) up to the checkpoint's position: the duplicate filter a
   restore to that checkpoint starts from. *)

module Protocol = Optimist_core.Protocol
module Process = Optimist_core.Process
module Transport = Optimist_core.Transport
module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Registry = Optimist_protocols.Registry
module Store = Optimist_live.Store
module Traffic = Optimist_workload.Traffic
module Schedule = Optimist_workload.Schedule

let n = 3
let victim = 1
let crash_at = 2.5
let recover_for = 1.5

let tmp_counter = ref 0

let temp_dir () =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "optpersist-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let store_dir dir me = Filename.concat dir (Printf.sprintf "store.w%d" me)

(* The same record the live worker hands its protocol, minus the spans. *)
let stable_store st =
  {
    Protocol.append_log =
      (fun entries -> List.iter (Store.append_log st) entries);
    truncate_log = (fun ~stable -> Store.truncate_log st ~stable);
    append_checkpoint =
      (fun ~position c -> Store.append_checkpoint st ~position c);
    discard_checkpoints_after =
      (fun ~position -> Store.discard_checkpoints_after st ~position);
    write_tokens = (fun tokens -> Store.write_tokens st tokens);
    write_gen = Store.write_gen st;
    load_log = (fun () -> Store.load_log st);
    load_checkpoints = (fun () -> Store.load_checkpoints st);
    load_tokens = (fun () -> Store.load_tokens st);
    load_gen = (fun () -> Store.load_gen st);
  }

(* The worker's uid scheme: the generation is folded in. *)
let uid_gen ~gen ~me =
  let seq = ref 0 in
  fun () ->
    incr seq;
    (((gen lsl 28) + !seq) * n) + me

let net_config id =
  {
    (Network.default_config ~n) with
    Network.ordering = (if Registry.fifo id then Network.Fifo else Reorder);
    latency = Network.Uniform (0.001, 0.02);
  }

let app = Traffic.app ~n Traffic.Uniform
let initial_digest = Traffic.digest (app.Optimist_core.Types.init victim)

(* "<protocol> <phase> w<pid>/<file> <md5>", one line per store file. *)
let digest_lines ~name ~phase dir pids =
  List.concat_map
    (fun me ->
      let d = store_dir dir me in
      Sys.readdir d |> Array.to_list
      |> List.filter (fun f -> Filename.extension f = ".bin")
      |> List.sort compare
      |> List.map (fun f ->
             Printf.sprintf "%s %s w%d/%s %s" name phase me f
               (Digest.to_hex (Digest.file (Filename.concat d f)))))
    pids

(* "<protocol> <phase> w<pid>/cps.bin[<k>] <checkpoint>", one line per
   checkpoint of a Damani-Garg store, oldest first. *)
let image_lines id ~name ~phase dir pids =
  if id <> Registry.Dg then []
  else
    List.concat_map
      (fun me ->
        let st = Store.open_ (store_dir dir me) in
        let cps : ((Traffic.state, Traffic.msg) Process.checkpoint * int) list
            =
          Store.load_checkpoints st
        in
        let log : Traffic.msg Optimist_core.Types.log_entry array =
          Store.load_log st
        in
        Store.close st;
        List.rev cps
        |> List.mapi (fun k c ->
               Format.asprintf "%s %s w%d/cps.bin[%d] %a" name phase me k
                 (Process.pp_checkpoint ~log) c))
      pids

(* Build worker [me]'s incarnation [gen] over its store directory, with
   every other endpoint a silent sink. *)
let incarnation (module P : Protocol.S) id ~dir ~me ~gen ~until =
  let engine = Engine.create ~seed:11L () in
  let net = Network.create engine (net_config id) in
  for j = 0 to n - 1 do
    if j <> me then Network.set_handler net j (fun _ -> ())
  done;
  let st = Store.open_ (store_dir dir me) in
  let p =
    P.create_rt ~rt:(Transport.of_engine engine)
      ~net:(Transport.of_network net) ~app ~id:me ~n ~gen
      ~store:(stable_store st) ~next_uid:(uid_gen ~gen ~me) ()
  in
  P.recover p;
  let state = P.state p in
  ignore (Engine.schedule_at engine until (fun () -> ()));
  Engine.run ~until engine;
  Store.close st;
  state

(* Gen 0 of the whole system, stopped at [crash_at]. *)
let gen0 (module P : Protocol.S) id ~dir =
  let engine = Engine.create ~seed:7L () in
  let net = Network.create engine (net_config id) in
  let stores = Array.init n (fun me -> Store.open_ (store_dir dir me)) in
  let procs =
    Array.init n (fun me ->
        P.create_rt ~rt:(Transport.of_engine engine)
          ~net:(Transport.of_network net) ~app ~id:me ~n ~gen:0
          ~store:(stable_store stores.(me)) ~next_uid:(uid_gen ~gen:0 ~me) ())
  in
  List.iter
    (fun (inj : Schedule.injection) ->
      ignore
        (Engine.schedule_at engine inj.at (fun () ->
             P.inject procs.(inj.pid)
               (Traffic.fresh ~key:inj.key ~hops:inj.hops))))
    (Schedule.poisson_injections ~seed:5L ~n ~rate:8.0
       ~duration:(crash_at -. 0.3) ~hops:3);
  (* A non-daemon event at the crash instant keeps the periodic
     checkpoint and flush timers firing up to it. *)
  ignore (Engine.schedule_at engine crash_at (fun () -> ()));
  Engine.run ~until:crash_at engine;
  Array.iter Store.close stores

let runs = Hashtbl.create 8

(* Both phases for one protocol, computed once. *)
let run id =
  match Hashtbl.find_opt runs id with
  | Some r -> r
  | None ->
      let impl = Result.get_ok (Registry.live id) in
      let name = Registry.name id in
      let dir = temp_dir () in
      gen0 impl id ~dir;
      let phase phase pids =
        (* Digest before decoding: opening a store creates missing files. *)
        let digests = digest_lines ~name ~phase dir pids in
        digests @ image_lines id ~name ~phase dir pids
      in
      let g0 = phase "gen0" (List.init n Fun.id) in
      let state =
        incarnation impl id ~dir ~me:victim ~gen:1 ~until:recover_for
      in
      let g1 = phase "gen1" [ victim ] in
      let r = (g0 @ g1, Traffic.digest state <> initial_digest) in
      Hashtbl.replace runs id r;
      r

let expected name =
  let ic = open_in "persistence.expected" in
  let mine = String.starts_with ~prefix:(name ^ " ") in
  let rec read acc =
    match input_line ic with
    | l -> read (if mine l then l :: acc else acc)
    | exception End_of_file -> List.rev acc
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read [])

let test_pinned id () =
  let name = Registry.name id in
  let lines, _ = run id in
  let want = expected name in
  if lines <> want then
    Alcotest.failf "store bytes of %s moved; now:\n%s" name
      (String.concat "\n" lines)

let test_restores id () =
  let _, restored = run id in
  Alcotest.(check bool) "gen 1 resumed the state its store held" true restored

let test_empty_store id () =
  let impl = Result.get_ok (Registry.live id) in
  let state =
    incarnation impl id ~dir:(temp_dir ()) ~me:victim ~gen:1 ~until:recover_for
  in
  Alcotest.(check int) "gen 1 starts from the initial state" initial_digest
    (Traffic.digest state)

(* A retransmitted copy of a message a gen-1 Damani-Garg worker's stable
   log holds must be dropped: its duplicate filter is the uids of the log
   it was rebuilt from, not a set a checkpoint carried. *)
let test_dg_rebuild_drops_logged_copy () =
  let module P = Registry.Dg_live in
  let dir = temp_dir () in
  gen0 (Result.get_ok (Registry.live Registry.Dg)) Registry.Dg ~dir;
  let st = Store.open_ (store_dir dir victim) in
  let logged =
    Array.to_list (Store.load_log st)
    |> List.filter_map (function
         | Optimist_core.Types.L_msg (m : Traffic.msg Optimist_core.Types.app_msg)
           when m.sender >= 0 ->
             Some m
         | L_msg _ | L_rollback _ -> None)
  in
  let copy = List.nth logged (List.length logged / 2) in
  let engine = Engine.create ~seed:11L () in
  let net = Network.create engine (net_config Registry.Dg) in
  for j = 0 to n - 1 do
    if j <> victim then Network.set_handler net j (fun _ -> ())
  done;
  let p =
    P.create_rt ~rt:(Transport.of_engine engine)
      ~net:(Transport.of_network net) ~app ~id:victim ~n ~gen:1
      ~store:(stable_store st) ~next_uid:(uid_gen ~gen:1 ~me:victim) ()
  in
  P.recover p;
  let count name = Option.value ~default:0 (List.assoc_opt name (P.counters p)) in
  let delivered = count "delivered" in
  Network.send net ~src:copy.sender ~dst:victim
    (Optimist_core.Types.Wire_app copy);
  ignore (Engine.schedule_at engine recover_for (fun () -> ()));
  Engine.run ~until:recover_for engine;
  Store.close st;
  Alcotest.(check int) "the copy is dropped" 1 (count "duplicates_dropped");
  Alcotest.(check int) "and not delivered" delivered (count "delivered")

let suite =
  List.concat_map
    (fun id ->
      let name = Registry.name id in
      [
        Alcotest.test_case (name ^ ": store bytes match the pinned digests")
          `Quick (test_pinned id);
        Alcotest.test_case (name ^ ": gen 1 recovers from its store") `Quick
          (test_restores id);
        Alcotest.test_case (name ^ ": gen 1 over an empty store starts fresh")
          `Quick (test_empty_store id);
      ])
    Registry.live_protocols
  @ [
      Alcotest.test_case
        "damani-garg: gen 1 drops a retransmitted copy of a logged message"
        `Quick test_dg_rebuild_drops_logged_copy;
    ]
