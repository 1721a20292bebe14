module Transport = Optimist_core.Transport
module Prng = Optimist_util.Prng

(* The two-lane channel the recovery protocol asks for, defined once.
   Data frames are fire-and-forget: seeded drop, sender-side jitter and
   seeded duplication decide their fate at send time. Control frames are
   sequence-numbered, kept until acknowledged and retransmitted on a
   timer, so a token sent to a dead worker reaches its next incarnation;
   receivers ack every copy and deliver the first. At most [ctl_window]
   of them are in flight to one destination; the rest wait in send order
   and go out as acks come back. Below both lanes sits
   the partition gate. A fabric (Livenet's datagrams, the cluster's TCP
   mesh) only moves the encoded frames. *)

type partition = { pt_start : float; pt_stop : float; pt_island : int list }

type faults = {
  drop_rate : float;
  dup_rate : float;
  partitions : partition list;
}

let no_faults = { drop_rate = 0.0; dup_rate = 0.0; partitions = [] }

type 'a frame =
  | Data_msg of { src : int; payload : 'a }
  | Ctl_msg of { src : int; seq : int; payload : 'a }
  | Ctl_ack of { seq : int }

type port = {
  deliver : Bytes.t -> int -> int -> unit;
  send : dst:int -> Bytes.t -> unit;
  reject : unit -> unit;
}

type fabric = {
  write : dst:int -> Bytes.t -> bool;
  ready : timeout:float -> bool;
  stats : unit -> (string * int) list;
  snapshot : unit -> (string * float) list;
  close : unit -> unit;
}

type factory = loop:Loop.t -> me:int -> n:int -> port -> fabric

type 'a t = {
  loop : Loop.t;
  me : int;
  n : int;
  rng : Prng.t;
  jitter_lo : float;
  jitter_span : float;
  faults : faults;
  mutable fabric : fabric;
  mutable handler : 'a -> unit;
  mutable ctl_seq : int;
  unacked : (int, int * Bytes.t) Hashtbl.t;
      (* in flight: seq -> (dst, encoded frame) *)
  in_flight : int array; (* per destination: its entries in [unacked] *)
  waiting : (int * Bytes.t) Queue.t array;
      (* per destination, oldest first: (seq, frame) not yet written *)
  seen_ctl : (int * int, unit) Hashtbl.t; (* (src, seq) already delivered *)
  mutable sent_data : int;
  mutable sent_ctl : int;
  mutable retransmits : int;
  mutable ctl_queued : int;
  mutable received : int;
  mutable send_errors : int;
  mutable faults_dropped : int;
  mutable faults_duplicated : int;
  mutable partition_blocked : int;
  mutable rejected : int;
  mutable closed : bool;
}

(* An active partition blocks frames crossing the island boundary in
   either direction. Data frames (and acks) vanish like real in-flight
   losses, while Control frames come back through the retransmit timer
   once the window closes — a burst partition heals without
   protocol-visible state. *)
let partitioned t ~dst =
  t.faults.partitions <> []
  && begin
       let now = Loop.now t.loop in
       List.exists
         (fun p ->
           now >= p.pt_start && now < p.pt_stop
           && List.mem t.me p.pt_island <> List.mem dst p.pt_island)
         t.faults.partitions
     end

(* Every frame, whichever lane or fabric it belongs to, is written here.
   A failed write (dead or unborn peer, down connection) is a Data
   frame's fate; a Control frame retries through the retransmit timer. *)
let write t ~dst bytes =
  if partitioned t ~dst then t.partition_blocked <- t.partition_blocked + 1
  else if not (t.fabric.write ~dst bytes) then
    t.send_errors <- t.send_errors + 1

(* Eight frames fit a 10-datagram Unix-domain queue with room for the
   Data lane: a token's retransmission of a whole send history would
   otherwise overflow a restarted worker's queue in one burst, and every
   retransmit timer tick would overflow it again. *)
let ctl_window = 8

let launch t ~dst seq bytes =
  Hashtbl.replace t.unacked seq (dst, bytes);
  t.in_flight.(dst) <- t.in_flight.(dst) + 1;
  write t ~dst bytes

let send t ~lane ~dst payload =
  if not t.closed then
    match lane with
    | Transport.Data ->
        t.sent_data <- t.sent_data + 1;
        if t.faults.drop_rate > 0.0 && Prng.bernoulli t.rng t.faults.drop_rate
        then t.faults_dropped <- t.faults_dropped + 1
        else begin
          let bytes = Marshal.to_bytes (Data_msg { src = t.me; payload }) [] in
          (* Sender-side jitter delays the actual write by a random amount,
             so two back-to-back sends can hit the wire (and the receiver)
             out of order — the "reordered sockets" condition. An empty
             window draws nothing and writes in this call: send order is
             wire order, so the lane is FIFO. *)
          let post () =
            if t.jitter_span = 0.0 && t.jitter_lo = 0.0 then write t ~dst bytes
            else
              let delay = t.jitter_lo +. Prng.float t.rng t.jitter_span in
              Loop.schedule t.loop ~delay (fun () ->
                  if not t.closed then write t ~dst bytes)
          in
          post ();
          if t.faults.dup_rate > 0.0 && Prng.bernoulli t.rng t.faults.dup_rate
          then begin
            t.faults_duplicated <- t.faults_duplicated + 1;
            post ()
          end
        end
    | Transport.Control ->
        t.sent_ctl <- t.sent_ctl + 1;
        t.ctl_seq <- t.ctl_seq + 1;
        let seq = t.ctl_seq in
        let bytes =
          Marshal.to_bytes (Ctl_msg { src = t.me; seq; payload }) []
        in
        if t.in_flight.(dst) < ctl_window then launch t ~dst seq bytes
        else begin
          t.ctl_queued <- t.ctl_queued + 1;
          Queue.push (seq, bytes) t.waiting.(dst)
        end

(* An ack frees a window slot: the oldest waiting frame takes it. Every
   copy is acked, so only the first ack of a frame counts. *)
let acked t seq =
  match Hashtbl.find_opt t.unacked seq with
  | None -> ()
  | Some (dst, _) ->
      Hashtbl.remove t.unacked seq;
      t.in_flight.(dst) <- t.in_flight.(dst) - 1;
      match Queue.take_opt t.waiting.(dst) with
      | Some (seq, bytes) -> launch t ~dst seq bytes
      | None -> ()

let dispatch t frame =
  t.received <- t.received + 1;
  match frame with
  | Data_msg { src = _; payload } -> t.handler payload
  | Ctl_msg { src; seq; payload } ->
      (* Ack first (acks are cheap and idempotent); deliver only the first
         copy — retransmits of frames we already processed are dropped
         here rather than burdening the protocol. *)
      write t ~dst:src (Marshal.to_bytes (Ctl_ack { seq }) []);
      if not (Hashtbl.mem t.seen_ctl (src, seq)) then begin
        Hashtbl.replace t.seen_ctl (src, seq) ();
        t.handler payload
      end
  | Ctl_ack { seq } -> acked t seq

(* A received frame must be exactly one marshalled value, and its source
   a worker of this mesh: the source is where the ack goes, so an
   out-of-range one would make the fabric index past its peer table. *)
let receive t buf off len =
  let frame : 'a frame option =
    try
      if len >= Marshal.header_size && Marshal.total_size buf off = len then
        Some (Marshal.from_bytes buf off)
      else None
    with Failure _ | Invalid_argument _ -> None
  in
  match frame with
  | Some (Data_msg { src; _ } | Ctl_msg { src; _ }) when src < 0 || src >= t.n
    ->
      t.rejected <- t.rejected + 1
  | Some frame -> dispatch t frame
  | None -> t.rejected <- t.rejected + 1

let retransmit_pending t =
  Hashtbl.iter
    (fun _ (dst, bytes) ->
      t.retransmits <- t.retransmits + 1;
      write t ~dst bytes)
    t.unacked

(* Stands in for the fabric while [create] attaches it. *)
let detached =
  {
    write = (fun ~dst:_ _ -> false);
    ready = (fun ~timeout:_ -> false);
    stats = (fun () -> []);
    snapshot = (fun () -> []);
    close = ignore;
  }

let create ?(jitter = (0.001, 0.02)) ?(retransmit_every = 0.1) ?(seq_base = 0)
    ?(faults = no_faults) ~loop ~me ~n ~seed (factory : factory) =
  let jitter_lo, jitter_hi = jitter in
  let t =
    {
      loop;
      me;
      n;
      rng = Prng.create seed;
      jitter_lo;
      jitter_span = Float.max (jitter_hi -. jitter_lo) 0.0;
      faults;
      fabric = detached;
      handler = (fun _ -> ());
      ctl_seq = seq_base;
      unacked = Hashtbl.create 64;
      in_flight = Array.make n 0;
      waiting = Array.init n (fun _ -> Queue.create ());
      seen_ctl = Hashtbl.create 256;
      sent_data = 0;
      sent_ctl = 0;
      retransmits = 0;
      ctl_queued = 0;
      received = 0;
      send_errors = 0;
      faults_dropped = 0;
      faults_duplicated = 0;
      partition_blocked = 0;
      rejected = 0;
      closed = false;
    }
  in
  t.fabric <-
    factory ~loop ~me ~n
      {
        deliver = receive t;
        send = write t;
        reject = (fun () -> t.rejected <- t.rejected + 1);
      };
  let rec retry_loop () =
    if not t.closed then begin
      retransmit_pending t;
      Loop.schedule loop ~delay:retransmit_every retry_loop
    end
  in
  Loop.schedule loop ~delay:retransmit_every retry_loop;
  t

(* The per-incarnation PRNG seed and control-sequence base: distinct per
   incarnation, so a restarted worker's control frames are not mistaken
   for retransmits of its predecessor's, and identical over every
   fabric, so a scenario replays the same draws over UDS and TCP. *)
let incarnation ?jitter factory ~loop ~me ~gen ~n ~seed ~faults =
  create ?jitter ~seq_base:(gen * 1_000_000) ~faults ~loop ~me ~n
    ~seed:(Int64.add seed (Int64.of_int (1 + me + (gen * n))))
    factory

let transport t =
  {
    Transport.send = (fun ~lane ~src:_ ~dst payload -> send t ~lane ~dst payload);
    broadcast =
      (fun ~lane ~src:_ payload ->
        for dst = 0 to t.n - 1 do
          if dst <> t.me then send t ~lane ~dst payload
        done);
    set_handler = (fun id f -> if id = t.me then t.handler <- f);
    (* Crashes are real process deaths here; the fabric has no gate. *)
    set_down = (fun _ -> ());
    set_up = (fun ~drop_held_data:_ _ -> ());
  }

let ready t ~timeout = t.fabric.ready ~timeout
let unacked_count t =
  Array.fold_left
    (fun acc q -> acc + Queue.length q)
    (Hashtbl.length t.unacked) t.waiting

let lane_stats t =
  [
    ("sent_data", t.sent_data);
    ("sent_control", t.sent_ctl);
    ("retransmits", t.retransmits);
    ("ctl_queued", t.ctl_queued);
    ("received", t.received);
    ("send_errors", t.send_errors);
    ("faults_dropped", t.faults_dropped);
    ("faults_duplicated", t.faults_duplicated);
    ("partition_blocked", t.partition_blocked);
    ("rejected", t.rejected);
  ]

let stats t = lane_stats t @ t.fabric.stats ()

let snapshot t =
  List.map
    (fun (k, v) -> ("link." ^ k, v))
    (List.map (fun (k, v) -> (k, float_of_int v)) (lane_stats t)
    @ t.fabric.snapshot ())

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.fabric.close ()
  end
