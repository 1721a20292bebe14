module Metrics = Optimist_obs.Metrics
module Loop = Optimist_live.Loop
module Link = Optimist_live.Link

(* TCP mesh: worker [i] listens on [endpoints.(i)] and keeps one
   *outbound* stream connection to every peer. Connections are directed:
   my sends to [dst] ride my outbound connection, and everything [dst]
   sends me — acks and heartbeat pongs included — rides its own outbound
   connection back (every frame carries its source pid, so inbound
   streams need no handshake). A SIGKILL-ed peer costs its
   correspondents a dead connection, rebuilt by capped
   exponential-backoff reconnect once the successor incarnation listens
   again; in the interim writes to it fail, which the lanes treat as
   they treat a refused datagram.

   Framing is a 4-byte big-endian length prefix over a body that is
   either one of Link's batches (one or more marshalled lane frames — a
   Livenet datagram, byte for byte) or a heartbeat. Heartbeat pings flow
   on every live connection; a peer that stops ponging for [hb_timeout]
   is declared down and its connection is torn and rebuilt (failure
   detection under silent network death, where TCP itself may take
   minutes to notice). *)

(* A frame larger than this is a corrupt stream, not a message. *)
let max_frame = 1 lsl 24

(* Bound on unflushed bytes per connection before writes come back busy
   — backpressure against a peer that stops reading. *)
let outbuf_cap = 1 lsl 22

let hb_every = 0.25
let hb_timeout = 3.0
let backoff_min = 0.05
let backoff_max = 1.0

(* A heartbeat body: tag, source pid (int32), send time (float bits).
   Every marshalled value starts with the 0x84 of Marshal's magic
   number, so neither tag can open a lane frame. *)
let hb_ping = '\001'
let hb_pong = '\002'
let hb_len = 13

type conn = {
  c_dst : int;
  mutable c_fd : Unix.file_descr option;
  mutable c_up : bool;  (** connect completed, stream writable *)
  mutable c_ever_up : bool;  (** distinguishes connects from reconnects *)
  mutable c_armed : bool;  (** writable callback registered *)
  c_q : Bytes.t Queue.t;  (** unflushed chunks *)
  mutable c_q_off : int;  (** write offset into the queue head *)
  mutable c_q_bytes : int;
  mutable c_backoff : float;
  mutable c_next_attempt : float;  (** wall clock; 0 = due now *)
  mutable c_last_seen : float;  (** wall clock of the last pong *)
}

type t = {
  loop : Loop.t;
  me : int;
  endpoints : (string * int) array;
  port : Link.port;
  scope : Metrics.Scope.t;  (** stream counters and the RTT histogram *)
  conns : conn array;  (** index = dst; [me]'s slot is never used *)
  mutable listen_fd : Unix.file_descr option;
  mutable inbound : Unix.file_descr list;  (** accepted connections *)
  mutable closed : bool;
}

let incr ?by t name = Metrics.Scope.incr ?by t.scope name

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found ->
      failwith (Printf.sprintf "tcp link: cannot resolve host %S" host))

let heartbeat tag ~src ~at =
  let b = Bytes.create hb_len in
  Bytes.set b 0 tag;
  Bytes.set_int32_be b 1 (Int32.of_int src);
  Bytes.set_int64_be b 5 (Int64.bits_of_float at);
  b

let conn_down t conn =
  (match conn.c_fd with
  | None -> ()
  | Some fd ->
      Loop.remove_fd t.loop fd;
      conn.c_armed <- false;
      (try Unix.close fd with Unix.Unix_error _ -> ()));
  conn.c_fd <- None;
  conn.c_up <- false;
  Queue.clear conn.c_q;
  conn.c_q_off <- 0;
  conn.c_q_bytes <- 0;
  conn.c_next_attempt <- Unix.gettimeofday () +. conn.c_backoff;
  conn.c_backoff <- Float.min (conn.c_backoff *. 2.0) backoff_max

let rec flush t conn =
  match conn.c_fd with
  | None -> ()
  | Some fd ->
      if Queue.is_empty conn.c_q then begin
        if conn.c_armed then begin
          Loop.remove_writable t.loop fd;
          conn.c_armed <- false
        end
      end
      else begin
        let head = Queue.peek conn.c_q in
        let len = Bytes.length head - conn.c_q_off in
        match Unix.write fd head conn.c_q_off len with
        | n ->
            conn.c_q_bytes <- conn.c_q_bytes - n;
            if n = len then begin
              ignore (Queue.pop conn.c_q);
              conn.c_q_off <- 0;
              flush t conn
            end
            else begin
              conn.c_q_off <- conn.c_q_off + n;
              arm t conn fd
            end
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            arm t conn fd
        | exception Unix.Unix_error _ -> conn_down t conn
      end

and arm t conn fd =
  if not conn.c_armed then begin
    conn.c_armed <- true;
    Loop.on_writable t.loop fd (fun () -> flush t conn)
  end

(* The fabric's write: frame [body.[0, n)] onto [dst]'s outbound
   connection. A down connection is gone, a clogged one busy. *)
let conn_send t ~dst body n =
  let conn = t.conns.(dst) in
  if not conn.c_up then Link.Gone
  else if conn.c_q_bytes > outbuf_cap then Link.Busy
  else begin
    let out = Bytes.create (4 + n) in
    Bytes.set_int32_be out 0 (Int32.of_int n);
    Bytes.blit body 0 out 4 n;
    incr t "frames_sent";
    incr ~by:(4 + n) t "bytes_sent";
    Queue.push out conn.c_q;
    conn.c_q_bytes <- conn.c_q_bytes + 4 + n;
    flush t conn;
    Link.Sent
  end

(* One received body: a heartbeat is handled here, anything else is a
   batch for the lanes to decode. *)
let on_frame t buf off len =
  let tag = Bytes.get buf off in
  if len = hb_len && (tag = hb_ping || tag = hb_pong) then begin
    let src = Int32.to_int (Bytes.get_int32_be buf (off + 1)) in
    let at = Int64.float_of_bits (Bytes.get_int64_be buf (off + 5)) in
    if src < 0 || src >= Array.length t.conns then t.port.reject ()
    else if tag = hb_ping then
      t.port.send ~dst:src (heartbeat hb_pong ~src:t.me ~at)
    else begin
      let now = Unix.gettimeofday () in
      t.conns.(src).c_last_seen <- now;
      Metrics.Scope.observe_hist t.scope "hb_rtt_ms"
        (Float.max 0.0 ((now -. at) *. 1000.0))
    end
  end
  else t.port.deliver buf off len

type reader = { mutable r_buf : Bytes.t; mutable r_len : int }

(* Hand every complete body in the reader's buffer to [on_frame] and
   keep the incomplete tail; [false] on a corrupt length. *)
let drain t r =
  let rec go pos =
    if r.r_len - pos < 4 then Some pos
    else
      let flen = Int32.to_int (Bytes.get_int32_be r.r_buf pos) in
      if flen <= 0 || flen > max_frame then None
      else if r.r_len - pos - 4 < flen then Some pos
      else begin
        incr t "frames_received";
        on_frame t r.r_buf (pos + 4) flen;
        go (pos + 4 + flen)
      end
  in
  match go 0 with
  | None -> false
  | Some pos ->
      Bytes.blit r.r_buf pos r.r_buf 0 (r.r_len - pos);
      r.r_len <- r.r_len - pos;
      true

(* Register a frame reader on [fd]. Both inbound accepted connections
   and outbound connections read through this (a peer only ever sends us
   frames on its own outbound connection, but an EOF on ours is how we
   learn it died). [on_close] runs on EOF, a read error, or a corrupt
   stream. *)
let add_reader t fd ~on_close =
  let r = { r_buf = Bytes.create 65536; r_len = 0 } in
  Loop.on_readable t.loop fd (fun () ->
      if r.r_len = Bytes.length r.r_buf then begin
        let bigger = Bytes.create (2 * r.r_len) in
        Bytes.blit r.r_buf 0 bigger 0 r.r_len;
        r.r_buf <- bigger
      end;
      match Unix.read fd r.r_buf r.r_len (Bytes.length r.r_buf - r.r_len) with
      | 0 -> on_close ()
      | n ->
          incr ~by:n t "bytes_received";
          r.r_len <- r.r_len + n;
          if not (drain t r) then on_close ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> on_close ())

let on_connected t conn fd =
  conn.c_up <- true;
  conn.c_backoff <- backoff_min;
  conn.c_last_seen <- Unix.gettimeofday ();
  if conn.c_ever_up then incr t "reconnects" else incr t "connects";
  conn.c_ever_up <- true;
  add_reader t fd ~on_close:(fun () -> conn_down t conn)

(* Non-blocking connect: EINPROGRESS parks the socket in the writable
   set; completion is judged by SO_ERROR. *)
let attempt_connect t conn =
  if (not t.closed) && Option.is_none conn.c_fd then begin
    let host, port = t.endpoints.(conn.c_dst) in
    match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error _ ->
        conn.c_next_attempt <- Unix.gettimeofday () +. conn.c_backoff
    | fd -> (
        Unix.set_nonblock fd;
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        conn.c_fd <- Some fd;
        conn.c_up <- false;
        match Unix.connect fd (Unix.ADDR_INET (resolve host, port)) with
        | () -> on_connected t conn fd
        | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _)
          ->
            Loop.on_writable t.loop fd (fun () ->
                Loop.remove_writable t.loop fd;
                (* A [file_descr] is an int on Unix: [==] is fd equality,
                   with no polymorphic compare. *)
                let current =
                  match conn.c_fd with Some f -> f == fd | None -> false
                in
                if current && not conn.c_up then
                  match Unix.getsockopt_error fd with
                  | None -> on_connected t conn fd
                  | Some _ -> conn_down t conn)
        | exception Unix.Unix_error _ -> conn_down t conn)
  end

(* Retry every due disconnected peer. Driven from the periodic tick and
   from [ready]'s pump (loop timers idle until the run base passes, so
   the pre-base connection barrier cannot rely on them). *)
let reconnect_due t =
  let now = Unix.gettimeofday () in
  Array.iter
    (fun conn ->
      if
        conn.c_dst <> t.me && Option.is_none conn.c_fd
        && conn.c_next_attempt <= now
      then attempt_connect t conn)
    t.conns

(* Pings go through the lanes' partition gate: a partitioned peer
   genuinely looks dead. *)
let heartbeat_tick t =
  let now = Unix.gettimeofday () in
  Array.iter
    (fun conn ->
      if conn.c_dst <> t.me && conn.c_up then begin
        if now -. conn.c_last_seen > hb_timeout then begin
          (* Silence despite a live TCP stream: declare the peer down
             and rebuild through the backoff path. *)
          incr t "hb_timeouts";
          conn_down t conn
        end
        else t.port.send ~dst:conn.c_dst (heartbeat hb_ping ~src:t.me ~at:now)
      end)
    t.conns

let listen t =
  let _, port = t.endpoints.(t.me) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_any, port));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  t.listen_fd <- Some fd;
  Loop.on_readable t.loop fd (fun () ->
      let continue = ref true in
      while !continue do
        match Unix.accept fd with
        | cfd, _ ->
            Unix.set_nonblock cfd;
            Unix.setsockopt cfd Unix.TCP_NODELAY true;
            incr t "accepted";
            t.inbound <- cfd :: t.inbound;
            add_reader t cfd ~on_close:(fun () ->
                t.inbound <- List.filter (fun f -> f != cfd) t.inbound;
                Loop.remove_fd t.loop cfd;
                try Unix.close cfd with Unix.Unix_error _ -> ())
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            continue := false
        | exception Unix.Unix_error _ -> continue := false
      done)

(* Startup barrier: pump the loop (connect completions, accepts) until
   every outbound connection is up. Wall-clock driven — the loop's own
   clock may still be idling before the run base. *)
let wait_connected t ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let connected () =
    Array.for_all (fun conn -> conn.c_dst = t.me || conn.c_up) t.conns
  in
  let rec wait () =
    if connected () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      reconnect_due t;
      Loop.run_once t.loop ~max_wait:0.02;
      wait ()
    end
  in
  wait ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter
      (fun conn ->
        match conn.c_fd with
        | None -> ()
        | Some fd ->
            Loop.remove_fd t.loop fd;
            (try Unix.close fd with Unix.Unix_error _ -> ());
            conn.c_fd <- None;
            conn.c_up <- false)
      t.conns;
    (* Accepted inbound connections too: a process death would close
       them for free, but an in-process teardown (tests, same-process
       incarnation swaps) must not leave readers that keep consuming a
       peer's frames — the peer would never see EOF and never reconnect
       to the successor. *)
    List.iter
      (fun fd ->
        Loop.remove_fd t.loop fd;
        try Unix.close fd with Unix.Unix_error _ -> ())
      t.inbound;
    t.inbound <- [];
    match t.listen_fd with
    | None -> ()
    | Some fd ->
        Loop.remove_fd t.loop fd;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        t.listen_fd <- None
  end

let factory ~endpoints : Link.factory =
 fun ~loop ~me ~n port ->
  if Array.length endpoints <> n then
    invalid_arg
      (Printf.sprintf "tcp link: %d endpoints for %d workers"
         (Array.length endpoints) n);
  let t =
    {
      loop;
      me;
      endpoints;
      port;
      scope = Metrics.Scope.create ~protocol:"tcp" ~process:me ();
      conns =
        Array.init n (fun dst ->
            {
              c_dst = dst;
              c_fd = None;
              c_up = false;
              c_ever_up = false;
              c_armed = false;
              c_q = Queue.create ();
              c_q_off = 0;
              c_q_bytes = 0;
              c_backoff = backoff_min;
              c_next_attempt = 0.0;
              c_last_seen = 0.0;
            });
      listen_fd = None;
      inbound = [];
      closed = false;
    }
  in
  listen t;
  reconnect_due t;
  let rec hb_loop () =
    if not t.closed then begin
      heartbeat_tick t;
      reconnect_due t;
      Loop.schedule loop ~delay:hb_every hb_loop
    end
  in
  Loop.schedule loop ~delay:hb_every hb_loop;
  {
    Link.write = conn_send t;
    ready = wait_connected t;
    stats = (fun () -> Metrics.Scope.counters t.scope);
    snapshot = (fun () -> Metrics.Scope.snapshot t.scope);
    close = (fun () -> close t);
  }
