(* One Unix-domain *datagram* socket per worker. Datagrams keep message
   boundaries (no stream framing) and need no connection management, so a
   SIGKILL-ed peer costs its correspondents nothing but an ECONNREFUSED on
   the next send — exactly the failed write the Data lane treats as a
   loss and the Control lane retries. Each datagram is one of Link's
   batches. *)

type 'a t = 'a Link.t

let sock_path dir i = Filename.concat dir (Printf.sprintf "w%d.sock" i)

(* The portable floor of [sizeof sun_path] (104 on the BSDs, 108 on
   Linux), checked against the longest peer path so a long --dir fails
   with one line instead of an opaque [Unix.bind] exception. *)
let sun_path_max = 104

let check_dir ~dir ~n =
  let path = sock_path dir (max 0 (n - 1)) in
  let len = String.length path in
  if len >= sun_path_max then
    Error
      (Printf.sprintf
         "socket path %s is %d bytes, over the AF_UNIX sun_path limit (%d) \
          — use a shorter --dir"
         path len sun_path_max)
  else Ok ()

(* Every worker binds its socket at startup; until a peer's path exists,
   sends to it vanish into ENOENT. The barrier makes gen-0 startup clean;
   restarted workers find all paths already present. *)
let wait_for_peers ~dir ~n ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    if List.for_all Sys.file_exists (List.init n (sock_path dir)) then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.005;
      wait ()
    end
  in
  wait ()

(* One receive buffer for every endpoint of this OS process, allocated on
   first use: a 256 KiB block is a major-heap allocation, which every
   set-up and every crash rebuild would otherwise pay again. Sharing is
   safe because [pump] decodes each datagram before its next [recv] and
   the loop runs one callback at a time, so no two receives interleave. *)
let recv_buf = lazy (Bytes.create 262144)

let factory ~dir : Link.factory =
 fun ~loop ~me ~n port ->
  (match check_dir ~dir ~n with Ok () -> () | Error e -> invalid_arg e);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_DGRAM 0 in
  let path = sock_path dir me in
  (try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  let addrs = Array.init n (fun i -> Unix.ADDR_UNIX (sock_path dir i)) in
  let buf = Lazy.force recv_buf in
  let closed = ref false in
  (* Drain every datagram currently queued; the socket is non-blocking.
     Each frame names its source, so the sender's address is not read. *)
  let rec pump () =
    match Unix.recv fd buf 0 (Bytes.length buf) [] with
    | len ->
        port.Link.deliver buf 0 len;
        if not !closed then pump ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
  in
  Loop.on_readable loop fd pump;
  (* One batch, one datagram. A full queue (the peer is alive but
     behind) is busy; a dead or unborn peer is gone. *)
  let write ~dst bytes len =
    match Unix.sendto fd bytes 0 len [] addrs.(dst) with
    | _ -> Link.Sent
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ENOBUFS), _, _)
      ->
        Link.Busy
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
        Link.Gone
  in
  {
    Link.write;
    ready = (fun ~timeout -> wait_for_peers ~dir ~n ~timeout);
    stats = (fun () -> []);
    snapshot = (fun () -> []);
    close =
      (fun () ->
        closed := true;
        Loop.remove_fd loop fd;
        try Unix.close fd with Unix.Unix_error _ -> ());
  }

let create ?jitter ?retransmit_every ?seq_base ?faults ~loop ~dir ~me ~n ~seed
    () =
  Link.create ?jitter ?retransmit_every ?seq_base ?faults ~loop ~me ~n ~seed
    (factory ~dir)

let transport = Link.transport
let unacked_count = Link.unacked_count
let stats = Link.stats
let close = Link.close
