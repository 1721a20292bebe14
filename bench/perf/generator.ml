(* The open-loop client of mesh_crash, as a process of its own. It sends
   chain [c] over a Unix datagram socket when [c] is due, whatever the
   mesh is doing, and says how late it sent. A recovery that holds the
   mesh's loop delays when a submission is picked up, which the commit
   latency (timed from the due time) counts, but not when it is made, so
   the offered load is the one specified. The child spins until each due
   time rather than sleeping: on a shared virtual machine a sleeping CPU
   can take milliseconds to be woken, which would show as lag. It takes
   the second core for the length of a round; the mesh keeps the first. *)

module Loop = Optimist_live.Loop

type t = { pid : int; fd : Unix.file_descr; go : Unix.file_descr; loop : Loop.t }

let frame_len = 16

let rec read_full fd b off =
  if off = Bytes.length b then true
  else
    match Unix.read fd b off (Bytes.length b - off) with
    | 0 -> false
    | k -> read_full fd b (off + k)

(* The child sends chain [c] [due c] seconds after the start [go] gives
   it; [on_submit c lag] runs in [loop] as each submission arrives.
   Spawn before the mesh opens its sockets and files, so the child holds
   none of them: a crashed incarnation's socket must really close. *)
let spawn ~loop ~dir ~count ~due ~on_submit =
  let path = Filename.concat dir "gen.sock" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_DGRAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      (* A blocking socket: when the mesh's queue is full the child
         waits, and its lag shows it. It leaves with [_exit], so the
         parent's at_exit handlers do not run twice. *)
      Unix.close w;
      Unix.close fd;
      let b = Bytes.create frame_len and s = Bytes.create 8 in
      (try
         if read_full r s 0 then begin
           let start = Int64.float_of_bits (Bytes.get_int64_le s 0) in
           let out = Unix.socket Unix.PF_UNIX Unix.SOCK_DGRAM 0 in
           for c = 0 to count - 1 do
             let at = start +. due c in
             while Timing.now () < at do
               Domain.cpu_relax ()
             done;
             Bytes.set_int64_le b 0 (Int64.of_int c);
             Bytes.set_int64_le b 8 (Int64.bits_of_float (Timing.now () -. at));
             ignore (Unix.sendto out b 0 frame_len [] (Unix.ADDR_UNIX path))
           done
         end
       with Unix.Unix_error _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close r;
      Unix.set_nonblock fd;
      let b = Bytes.create frame_len in
      let rec drain () =
        match Unix.recv fd b 0 frame_len [] with
        | _ ->
            on_submit
              (Int64.to_int (Bytes.get_int64_le b 0))
              (Int64.float_of_bits (Bytes.get_int64_le b 8));
            drain ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            ()
      in
      Loop.on_readable loop fd (fun () -> Spans.with_ Spans.Bench drain);
      { pid; fd; go = w; loop }

(* [start] is on [Timing.now]'s clock, which the child shares. *)
let go t ~start =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float start);
  ignore (Unix.write t.go b 0 8);
  Unix.close t.go

(* Closing first ends a child still blocked on a full queue (its send
   fails), so the wait always returns. *)
let finish t =
  Loop.remove_fd t.loop t.fd;
  Unix.close t.fd;
  ignore (Unix.waitpid [] t.pid)
