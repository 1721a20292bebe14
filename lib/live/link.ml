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
   the partition gate. Frames that pass it wait in a per-destination
   pending list until the loop's next seam, which writes each
   destination's frames as one batch. A fabric (Livenet's datagrams, the
   cluster's TCP mesh) only moves the batches. *)

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

type write_result = Sent | Busy | Gone

type fabric = {
  write : dst:int -> Bytes.t -> int -> write_result;
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
  before_write : unit -> unit;
  pending : Bytes.t list array;
      (* per destination, newest first: frames past the gate, unwritten *)
  pending_bytes : int array;
  mutable dirty : bool; (* some destination may have pending frames *)
  mutable seam : unit -> unit; (* registered on [loop] until [close] *)
  mutable ctl_seq : int;
  unacked : (int, int * Bytes.t) Hashtbl.t;
      (* in flight: seq -> (dst, encoded frame) *)
  in_flight : int array; (* per destination: its entries in [unacked] *)
  waiting : (int * Bytes.t) Queue.t array;
      (* per destination, oldest first: (seq, frame) not yet written *)
  seen_ctl : (int * int, unit) Hashtbl.t; (* (src, seq) already delivered *)
  mutable sent_data : int;
  mutable sent_ctl : int;
  mutable batches_sent : int;
  mutable retransmits : int;
  mutable ctl_queued : int;
  mutable received : int;
  mutable send_errors : int;
  mutable send_busy : int;
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

(* A failed write (dead or unborn peer, down or clogged connection)
   loses every frame it carried: a Data frame's fate; a Control frame
   retries through the retransmit timer. Busy writes are counted twice,
   as lost and as busy, so [send_errors - send_busy] is the loss to dead
   peers. *)
let count_failed t ~frames = function
  | Sent -> ()
  | Busy ->
      t.send_errors <- t.send_errors + frames;
      t.send_busy <- t.send_busy + frames
  | Gone -> t.send_errors <- t.send_errors + frames

(* A batch larger than this is written before it grows further; a frame
   this large or larger goes out alone. *)
let batch_cap = 16384

(* One staging block for every endpoint of this OS process, allocated
   when the first link is created (so it is set-up, not a heap the run
   keeps growing): [write_pending] fills it and hands it
   to the fabric, which copies it out (into the kernel, or into a framed
   TCP chunk) before returning, and nothing else runs in between. *)
let stage = lazy (Bytes.create batch_cap)

(* Copy [frames] (newest first) into [stage] so that they end at [stop],
   oldest first. *)
let rec fill stage stop = function
  | [] -> ()
  | b :: older ->
      let l = Bytes.length b in
      Bytes.blit b 0 stage (stop - l) l;
      fill stage (stop - l) older

(* Write [dst]'s pending frames as one batch: the marshalled frames back
   to back, oldest first. A lone frame is written from its own bytes. *)
let write_pending t dst =
  match t.pending.(dst) with
  | [] -> ()
  | frames ->
      let len = t.pending_bytes.(dst) in
      t.pending.(dst) <- [];
      t.pending_bytes.(dst) <- 0;
      let buf =
        match frames with
        | [ b ] -> b
        | _ ->
            let stage = Lazy.force stage in
            fill stage len frames;
            stage
      in
      match t.fabric.write ~dst buf len with
      | Sent -> t.batches_sent <- t.batches_sent + 1
      | result -> count_failed t ~frames:(List.length frames) result

(* A write forced inside a callback: what [before_write] guards goes
   first. *)
let write_forced t dst =
  t.before_write ();
  write_pending t dst

(* The seam hook: every destination's pending frames, one write each. *)
let write_batches t =
  if t.dirty then begin
    t.dirty <- false;
    t.before_write ();
    for dst = 0 to t.n - 1 do
      write_pending t dst
    done
  end

(* Every lane frame passes the partition gate here, in send order, and
   waits for the next seam; a destination whose frames reach
   [batch_cap] is written at once. *)
let write t ~dst bytes =
  if partitioned t ~dst then t.partition_blocked <- t.partition_blocked + 1
  else begin
    let len = Bytes.length bytes in
    if t.pending_bytes.(dst) + len > batch_cap then write_forced t dst;
    t.pending.(dst) <- bytes :: t.pending.(dst);
    t.pending_bytes.(dst) <- t.pending_bytes.(dst) + len;
    t.dirty <- true;
    if t.pending_bytes.(dst) >= batch_cap then write_forced t dst
  end

(* A fabric-level frame (a TCP heartbeat): through the gate, written now,
   alone. *)
let write_now t ~dst bytes =
  if partitioned t ~dst then t.partition_blocked <- t.partition_blocked + 1
  else count_failed t ~frames:1 (t.fabric.write ~dst bytes (Bytes.length bytes))

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
          (* Sender-side jitter delays the frame by a random amount, so
             two back-to-back sends can hit the wire (and the receiver)
             out of order — the "reordered sockets" condition. An empty
             window draws nothing and queues the frame in this call: send
             order is wire order, so the lane is FIFO. *)
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

(* Whether [buf.[pos, stop)] is a run of whole marshalled values, by
   their headers alone. *)
let rec tiles buf pos stop =
  pos = stop
  || stop - pos >= Marshal.header_size
     &&
     let size = Marshal.total_size buf pos in
     size > 0 && size <= stop - pos && tiles buf (pos + size) stop

(* Each frame must be one marshalled value, and its source a worker of
   this mesh: the source is where the ack goes, so an out-of-range one
   would make the fabric index past its peer table. *)
let rec dispatch_from t buf pos stop =
  if pos < stop && not t.closed then begin
    let size = Marshal.total_size buf pos in
    (match (Marshal.from_bytes buf pos : 'a frame) with
    | Data_msg { src; _ } | Ctl_msg { src; _ } when src < 0 || src >= t.n ->
        t.rejected <- t.rejected + 1
    | frame -> dispatch t frame
    | exception (Failure _ | Invalid_argument _) ->
        t.rejected <- t.rejected + 1);
    dispatch_from t buf (pos + size) stop
  end

(* A received batch is dispatched only once its frame sizes tile it
   exactly; otherwise it is rejected whole, and counted once. *)
let receive t buf off len =
  let whole =
    try len > 0 && tiles buf off (off + len)
    with Failure _ | Invalid_argument _ -> false
  in
  if whole then dispatch_from t buf off (off + len)
  else t.rejected <- t.rejected + 1

let retransmit_pending t =
  Hashtbl.iter
    (fun _ (dst, bytes) ->
      t.retransmits <- t.retransmits + 1;
      write t ~dst bytes)
    t.unacked

(* Stands in for the fabric while [create] attaches it. *)
let detached =
  {
    write = (fun ~dst:_ _ _ -> Gone);
    ready = (fun ~timeout:_ -> false);
    stats = (fun () -> []);
    snapshot = (fun () -> []);
    close = ignore;
  }

let create ?(jitter = (0.001, 0.02)) ?(retransmit_every = 0.1) ?(seq_base = 0)
    ?(faults = no_faults) ?(before_write = ignore) ~loop ~me ~n ~seed
    (factory : factory) =
  let jitter_lo, jitter_hi = jitter in
  ignore (Lazy.force stage);
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
      before_write;
      pending = Array.make n [];
      pending_bytes = Array.make n 0;
      dirty = false;
      seam = ignore;
      ctl_seq = seq_base;
      unacked = Hashtbl.create 64;
      in_flight = Array.make n 0;
      waiting = Array.init n (fun _ -> Queue.create ());
      seen_ctl = Hashtbl.create 256;
      sent_data = 0;
      sent_ctl = 0;
      batches_sent = 0;
      retransmits = 0;
      ctl_queued = 0;
      received = 0;
      send_errors = 0;
      send_busy = 0;
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
        send = write_now t;
        reject = (fun () -> t.rejected <- t.rejected + 1);
      };
  t.seam <- (fun () -> write_batches t);
  Loop.on_seam loop t.seam;
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
let incarnation ?jitter ?before_write factory ~loop ~me ~gen ~n ~seed ~faults =
  create ?jitter ~seq_base:(gen * 1_000_000) ~faults ?before_write ~loop ~me ~n
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
    ("batches_sent", t.batches_sent);
    ("retransmits", t.retransmits);
    ("ctl_queued", t.ctl_queued);
    ("received", t.received);
    ("send_errors", t.send_errors);
    ("send_busy", t.send_busy);
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

(* What is pending is written first: a closed link loses no frame it
   had already accepted. *)
let close t =
  if not t.closed then begin
    write_batches t;
    t.closed <- true;
    Loop.remove_seam t.loop t.seam;
    t.fabric.close ()
  end
