(* Coordinator <-> agent control protocol: length-prefixed marshalled
   messages over one blocking TCP connection per agent. Both ends are
   the same recsim binary, which is what makes Marshal across the wire
   sound (same type layout); the version handshake guards against
   mismatched builds on different hosts — and the workers' TCP mesh
   frames too, so a change to either layout bumps it. *)

let version = 5

type agent_cfg = {
  run_id : string;  (** for agent-side logging *)
  workers : int list;  (** the pids this agent hosts *)
  endpoints : (string * int) array;  (** worker pid -> host, data port *)
  plan : Optimist_live.Plan.t;
      (** the whole run; its kill schedule is cluster-wide and the agent
          filters it down to the pids it hosts *)
}

type request =
  | Hello
  | Plan of agent_cfg
  | Start of { base : float }
      (** absolute [Unix.gettimeofday] origin of the run, chosen by the
          coordinator slightly in the future so every agent's workers
          share one timeline (multi-host use assumes synchronized
          clocks; on localhost the origin is exact) *)
  | Fetch
  | Bye

type response =
  | Welcome of { version : int }
  | Ok_
  | Done_ of { crashes : int; clean_exits : int; gens : (int * int) list }
  | File of { path : string; data : string }
      (** one run artifact, path relative to the agent's run directory *)
  | Fetched
  | Error_ of string

(* --- framed blocking IO --- *)

let max_msg = 1 lsl 28

let write_all fd bytes =
  let len = Bytes.length bytes in
  let pos = ref 0 in
  while !pos < len do
    match Unix.write fd bytes !pos (len - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let read_all fd len =
  let buf = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    match Unix.read fd buf !pos (len - !pos) with
    | 0 -> failwith "cluster proto: connection closed mid-message"
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  buf

let send_msg fd v =
  let body = Marshal.to_bytes v [] in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (Bytes.length body));
  write_all fd hdr;
  write_all fd body

let recv_msg fd =
  let hdr = read_all fd 4 in
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
  if len <= 0 || len > max_msg then
    failwith (Printf.sprintf "cluster proto: bad message length %d" len);
  Marshal.from_bytes (read_all fd len) 0

let send_request fd (r : request) = send_msg fd r
let recv_request fd : request = recv_msg fd
let send_response fd (r : response) = send_msg fd r
let recv_response fd : response = recv_msg fd
