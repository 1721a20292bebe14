(* The lane semantics of Optimist_live.Link, as one table of cases run
   over every fabric: the live suite runs it over Livenet, the cluster
   suite over the TCP mesh. A case is written once against [Link]; the
   fabric only decides how frames move. *)

module Loop = Optimist_live.Loop
module Link = Optimist_live.Link
module Transport = Optimist_core.Transport
module Prng = Optimist_util.Prng

(* A fresh two-worker mesh: its factory, and a way to put raw bytes on
   the wire to worker [dst] as one batch (a datagram, or a TCP body),
   bypassing the lanes. *)
type mesh = {
  factory : Link.factory;
  inject : dst:int -> Bytes.t -> unit;
}

type fabric = {
  label : string;  (** test-name prefix *)
  fresh : unit -> mesh;
}

let endpoint ?jitter ?faults m loop ~me ~seed : string Link.t =
  Link.create ?jitter ~retransmit_every:0.02 ?faults ~loop ~me ~n:2 ~seed
    m.factory

let new_loop () = Loop.create ~base:(Unix.gettimeofday ()) ()
let send l lane payload = (Link.transport l).Transport.send ~lane ~src:0 ~dst:1 payload

(* Record what [l] (worker [me]) delivers, newest first. *)
let inbox l ~me =
  let got = ref [] in
  (Link.transport l).Transport.set_handler me (fun m -> got := m :: !got);
  got

let stat l key = List.assoc key (Link.stats l)

let connect a b =
  Alcotest.(check bool) "mesh ready" true
    (Link.ready a ~timeout:5.0 && Link.ready b ~timeout:5.0)

let data_and_control m =
  let loop = new_loop () in
  let a = endpoint m loop ~me:0 ~seed:11L in
  let b = endpoint m loop ~me:1 ~seed:12L in
  connect a b;
  let got = inbox b ~me:1 in
  send a Transport.Data "data";
  send a Transport.Control "ctl";
  Loop.run loop ~until:(Loop.now loop +. 0.4);
  Alcotest.(check (list string)) "both lanes delivered" [ "ctl"; "data" ]
    (List.sort compare !got);
  Alcotest.(check int) "control acked" 0 (Link.unacked_count a);
  Link.close a;
  Link.close b

(* A control frame sent before the destination even exists must reach it
   once it is up — the live analogue of tokens queued across downtime —
   and be delivered exactly once despite retransmission. *)
let control_reaches_late_peer m =
  let loop = new_loop () in
  let a = endpoint m loop ~me:0 ~seed:3L in
  send a Transport.Control "tok";
  Loop.run loop ~until:0.1;
  Alcotest.(check int) "still unacked" 1 (Link.unacked_count a);
  let b = endpoint m loop ~me:1 ~seed:4L in
  let got = inbox b ~me:1 in
  connect a b;
  Loop.run loop ~until:(Loop.now loop +. 0.5);
  Alcotest.(check (list string)) "delivered exactly once" [ "tok" ] !got;
  Alcotest.(check int) "acked after retry" 0 (Link.unacked_count a);
  Link.close a;
  Link.close b

let data_to_dead_peer_drops m =
  let loop = new_loop () in
  let a = endpoint m loop ~me:0 ~seed:5L in
  send a Transport.Data "vanishes";
  Loop.run loop ~until:0.1;
  Alcotest.(check int) "counted as a wire drop" 1 (stat a "send_errors");
  Link.close a

(* A sustained one-way partition (only the sender's gate is configured,
   so the reverse path stays open): control frames pile up unacked while
   the window is shut, then heal through retransmission — and the
   receiver's dedup must keep delivery exactly-once despite every
   retransmit that piled up arriving at once. *)
let partition_heals m =
  let loop = new_loop () in
  let faults =
    {
      Link.no_faults with
      partitions = [ { Link.pt_start = 0.0; pt_stop = 0.3; pt_island = [ 0 ] } ];
    }
  in
  let a = endpoint ~faults m loop ~me:0 ~seed:21L in
  let b = endpoint m loop ~me:1 ~seed:22L in
  connect a b;
  let got = inbox b ~me:1 in
  send a Transport.Control "t1";
  send a Transport.Control "t2";
  Loop.run loop ~until:0.2;
  Alcotest.(check int) "unacked grows while partitioned" 2
    (Link.unacked_count a);
  Alcotest.(check (list string)) "nothing crossed the partition" [] !got;
  Alcotest.(check bool) "sends were gated, not lost silently" true
    (stat a "partition_blocked" > 0);
  Loop.run loop ~until:0.8;
  Alcotest.(check (list string)) "delivered exactly once after heal"
    [ "t1"; "t2" ] (List.sort compare !got);
  Alcotest.(check int) "drained to zero after heal" 0 (Link.unacked_count a);
  Link.close a;
  Link.close b

(* Zero jitter is the FIFO lane a FIFO-assuming protocol runs on: each
   round of back-to-back Data sends must arrive in send order. One loop
   turn per round drains the receiver, however slow the host, so a round
   never overfills a 10-datagram UDS queue. *)
let zero_jitter_keeps_send_order m =
  let rounds = 200 and burst = 5 in
  let loop = new_loop () in
  let a = endpoint ~jitter:(0.0, 0.0) m loop ~me:0 ~seed:51L in
  let b = endpoint m loop ~me:1 ~seed:52L in
  connect a b;
  let got = inbox b ~me:1 in
  for r = 1 to rounds do
    for i = 1 to burst do
      send a Transport.Data (Printf.sprintf "%d.%d" r i)
    done;
    Loop.run_once loop ~max_wait:0.05
  done;
  Loop.run loop ~until:(Loop.now loop +. 0.3);
  let sent =
    List.concat
      (List.init rounds (fun r ->
           List.init burst (fun i -> Printf.sprintf "%d.%d" (r + 1) (i + 1))))
  in
  Alcotest.(check int) "no send errors" 0 (stat a "send_errors");
  Alcotest.(check (list string)) "arrival order is send order" sent
    (List.rev !got);
  Link.close a;
  Link.close b

(* The seeded fault plan draws, per Data send: drop?, then (if kept) a
   jitter delay, dup?, and a second delay for the duplicate; with zero
   jitter there is no delay to draw. Replaying that order on a bare PRNG
   predicts the counts exactly, so every fabric must report the same
   ones for the same seed. *)
let drop_dup_match_reference ?jitter m =
  let drop_rate = 0.3 and dup_rate = 0.3 and sends = 40 and seed = 77L in
  let rng = Prng.create seed and dropped = ref 0 and duplicated = ref 0 in
  let delay () = if jitter = None then ignore (Prng.float rng 0.019) in
  for _ = 1 to sends do
    if Prng.bernoulli rng drop_rate then incr dropped
    else begin
      delay ();
      if Prng.bernoulli rng dup_rate then begin
        incr duplicated;
        delay ()
      end
    end
  done;
  let loop = new_loop () in
  let faults = { Link.no_faults with drop_rate; dup_rate } in
  let a = endpoint ?jitter ~faults m loop ~me:0 ~seed in
  let b = endpoint m loop ~me:1 ~seed:78L in
  connect a b;
  let got = inbox b ~me:1 in
  for i = 1 to sends do
    send a Transport.Data (string_of_int i)
  done;
  Loop.run loop ~until:(Loop.now loop +. 0.4);
  Alcotest.(check int) "drops" !dropped (stat a "faults_dropped");
  Alcotest.(check int) "duplicates" !duplicated (stat a "faults_duplicated");
  Alcotest.(check int) "every written copy arrives or is a send error"
    (sends - !dropped + !duplicated)
    (List.length !got + stat a "send_errors");
  Link.close a;
  Link.close b

(* One frame from a source outside the mesh (the receiver would ack it
   to that pid), then one undecodable frame: both are counted and
   dropped, and the receiver goes on delivering. *)
let rejects_bad_frames m =
  let loop = new_loop () in
  let a = endpoint m loop ~me:0 ~seed:41L in
  let b = endpoint m loop ~me:1 ~seed:42L in
  connect a b;
  let got = inbox b ~me:1 in
  m.inject ~dst:1
    (Marshal.to_bytes (Link.Ctl_msg { src = 7; seq = 1; payload = "forged" }) []);
  send a Transport.Control "after";
  Loop.run loop ~until:(Loop.now loop +. 0.3);
  Alcotest.(check (list string)) "valid frame still delivered" [ "after" ] !got;
  Alcotest.(check int) "out-of-range source rejected" 1 (stat b "rejected");
  m.inject ~dst:1 (Bytes.of_string "not a marshalled frame");
  send a Transport.Data "still";
  Loop.run loop ~until:(Loop.now loop +. 0.3);
  Alcotest.(check (list string)) "and after garbage" [ "still"; "after" ] !got;
  Alcotest.(check int) "garbage rejected" 2 (stat b "rejected");
  Link.close a;
  Link.close b

(* A live peer that never drains: once its receive queue is full, a
   write fails as busy, which is congestion, not a loss to a dead peer.
   The loop never runs, so nothing reads the queue. *)
let burst_to_undrained_peer_is_busy m =
  let loop = new_loop () in
  let a = endpoint ~jitter:(0.0, 0.0) m loop ~me:0 ~seed:61L in
  let b = endpoint m loop ~me:1 ~seed:62L in
  connect a b;
  let rec burst k =
    if k < 10_000 && stat a "send_errors" = 0 then begin
      send a Transport.Data (string_of_int k);
      burst (k + 1)
    end
  in
  burst 0;
  Alcotest.(check bool) "a write failed busy" true (stat a "send_busy" > 0);
  Alcotest.(check int) "every failed write was busy" (stat a "send_errors")
    (stat a "send_busy");
  Link.close a;
  Link.close b

(* A closed peer loses every frame, and none of them counts as busy.
   The frames are written at the loop's next seam, so the loop turns
   once. *)
let closed_peer_is_not_busy m =
  let loop = new_loop () in
  let a = endpoint ~jitter:(0.0, 0.0) m loop ~me:0 ~seed:63L in
  let b = endpoint m loop ~me:1 ~seed:64L in
  connect a b;
  Link.close b;
  for i = 1 to 3 do
    send a Transport.Data (string_of_int i)
  done;
  Loop.run_once loop ~max_wait:0.0;
  Alcotest.(check int) "every frame lost" 3 (stat a "send_errors");
  Alcotest.(check int) "none busy" 0 (stat a "send_busy");
  Link.close a

(* A burst of Control frames in one callback, as a token makes a peer
   resend its whole send history: only a window of them is in flight at
   once, so the receiver's queue never fills, and the rest follow as acks
   come back, each delivered once. *)
let control_burst_is_windowed m =
  let frames = 64 in
  let loop = new_loop () in
  let a = endpoint ~jitter:(0.0, 0.0) m loop ~me:0 ~seed:65L in
  let b = endpoint m loop ~me:1 ~seed:66L in
  connect a b;
  let got = inbox b ~me:1 in
  let sent = List.init frames (fun i -> Printf.sprintf "%02d" i) in
  List.iter (send a Transport.Control) sent;
  Loop.run loop ~until:(Loop.now loop +. 1.0);
  Alcotest.(check int) "none busy" 0 (stat a "send_busy");
  Alcotest.(check (list string)) "each delivered exactly once" sent
    (List.sort compare !got);
  Alcotest.(check int) "the rest waited for the window" (frames - 8)
    (stat a "ctl_queued");
  Alcotest.(check int) "all acked" 0 (Link.unacked_count a);
  Link.close a;
  Link.close b

(* Frames sent in one callback leave together: 32 Data frames to one
   peer are one batch, far under a 10-datagram UDS queue, so every one
   arrives, in send order. *)
let one_callback_is_one_batch m =
  let frames = 32 in
  let loop = new_loop () in
  let a = endpoint ~jitter:(0.0, 0.0) m loop ~me:0 ~seed:67L in
  let b = endpoint m loop ~me:1 ~seed:68L in
  connect a b;
  let got = inbox b ~me:1 in
  let before = stat a "batches_sent" in
  let sent = List.init frames (fun i -> Printf.sprintf "%02d" i) in
  Loop.schedule loop ~delay:0.0 (fun () -> List.iter (send a Transport.Data) sent);
  Loop.run loop ~until:(Loop.now loop +. 0.3);
  Alcotest.(check bool) "at most 4 batches" true
    (stat a "batches_sent" - before <= 4);
  Alcotest.(check int) "no send errors" 0 (stat a "send_errors");
  Alcotest.(check (list string)) "all delivered in send order" sent
    (List.rev !got);
  Link.close a;
  Link.close b

(* A batch whose frame sizes do not tile it exactly (trailing bytes, or
   a frame cut short) is rejected whole, once, before any of its frames
   is dispatched; the valid frames it carries are not delivered. *)
let untiled_batch_is_rejected_whole m =
  let loop = new_loop () in
  let a = endpoint m loop ~me:0 ~seed:69L in
  let b = endpoint m loop ~me:1 ~seed:70L in
  connect a b;
  let got = inbox b ~me:1 in
  let frame x = Marshal.to_bytes (Link.Data_msg { src = 0; payload = x }) [] in
  let two = Bytes.cat (frame "one") (frame "two") in
  m.inject ~dst:1 (Bytes.cat two (Bytes.of_string "tail"));
  m.inject ~dst:1 (Bytes.sub two 0 (Bytes.length two - 1));
  Loop.run loop ~until:(Loop.now loop +. 0.3);
  Alcotest.(check (list string)) "no frame dispatched" [] !got;
  Alcotest.(check int) "each batch rejected once" 2 (stat b "rejected");
  m.inject ~dst:1 two;
  Loop.run loop ~until:(Loop.now loop +. 0.3);
  Alcotest.(check (list string)) "a tiled batch is dispatched" [ "two"; "one" ]
    !got;
  Alcotest.(check int) "and not rejected" 2 (stat b "rejected");
  Link.close a;
  Link.close b

(* Closing a link writes what it still holds: frames sent after the last
   seam are not lost with it. *)
let close_writes_pending m =
  let loop = new_loop () in
  let a = endpoint ~jitter:(0.0, 0.0) m loop ~me:0 ~seed:71L in
  let b = endpoint m loop ~me:1 ~seed:72L in
  connect a b;
  let got = inbox b ~me:1 in
  send a Transport.Data "d1";
  send a Transport.Data "d2";
  Link.close a;
  Loop.run loop ~until:(Loop.now loop +. 0.3);
  Alcotest.(check int) "written, not lost" 0 (stat a "send_errors");
  Alcotest.(check (list string)) "delivered after the sender closed"
    [ "d1"; "d2" ] (List.rev !got);
  Link.close b

(* Control frames ride the same batches as Data frames; interleaving
   them must not reorder the FIFO Data lane. *)
let interleaved_lanes_keep_data_order m =
  let rounds = 50 and burst = 4 in
  let loop = new_loop () in
  let a = endpoint ~jitter:(0.0, 0.0) m loop ~me:0 ~seed:73L in
  let b = endpoint m loop ~me:1 ~seed:74L in
  connect a b;
  let got = inbox b ~me:1 in
  for r = 1 to rounds do
    for i = 1 to burst do
      send a Transport.Data (Printf.sprintf "d%d.%d" r i);
      send a Transport.Control (Printf.sprintf "c%d.%d" r i)
    done;
    Loop.run_once loop ~max_wait:0.05
  done;
  Loop.run loop ~until:(Loop.now loop +. 0.5);
  let names prefix =
    List.concat
      (List.init rounds (fun r ->
           List.init burst (fun i ->
               Printf.sprintf "%c%d.%d" prefix (r + 1) (i + 1))))
  in
  let lane c = List.filter (fun x -> x.[0] = c) (List.rev !got) in
  Alcotest.(check int) "no send errors" 0 (stat a "send_errors");
  Alcotest.(check (list string)) "data arrival order is send order"
    (names 'd') (lane 'd');
  Alcotest.(check (list string)) "control delivered exactly once"
    (List.sort compare (names 'c'))
    (List.sort compare (lane 'c'));
  Link.close a;
  Link.close b

let table fabric =
  List.map (fun (name, case) ->
      Alcotest.test_case (fabric.label ^ ": " ^ name) `Quick (fun () ->
          case (fabric.fresh ())))

(* Cases for a fabric whose receiver queue fills after a few writes:
   Livenet's datagram queue does, while the TCP mesh buffers 4 MiB per
   connection before a write comes back busy. *)
let busy_cases fabric =
  table fabric
    [
      ("a burst to a peer that never drains is busy", burst_to_undrained_peer_is_busy);
      ("writes to a closed peer are not busy", closed_peer_is_not_busy);
      ("a control burst is windowed, never busy", control_burst_is_windowed);
    ]

let cases fabric =
  table fabric
    [
      ("data and control delivery", data_and_control);
      ("control reaches a late peer", control_reaches_late_peer);
      ("data to dead peer drops", data_to_dead_peer_drops);
      ("one-way partition heals exactly-once", partition_heals);
      ("zero jitter keeps send order", zero_jitter_keeps_send_order);
      ("seeded drop/dup match the reference draws", drop_dup_match_reference ?jitter:None);
      ( "seeded drop/dup under zero jitter match the reference draws",
        drop_dup_match_reference ~jitter:(0.0, 0.0) );
      ("bad frames are rejected, not fatal", rejects_bad_frames);
      ("32 frames in one callback leave as one batch", one_callback_is_one_batch);
      ("a batch that does not tile is rejected whole", untiled_batch_is_rejected_whole);
      ("close writes the pending frames", close_writes_pending);
      ( "interleaved data and control keep the data order",
        interleaved_lanes_keep_data_order );
    ]
