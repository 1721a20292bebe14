module Supervisor = Optimist_live.Supervisor

(* One cluster agent: hosts a block of workers on this machine on behalf
   of a remote coordinator. The agent listens on a control port, accepts
   one coordinator connection at a time, and executes the Plan/Start/
   Fetch exchange — Start runs the ordinary live supervision loop
   ({!Optimist_live.Supervisor.supervise}) over the agent's pid block,
   with every worker on the TCP mesh, so SIGKILL injection, respawn and
   stable-store recovery behave exactly as in a single-host run. *)

type session = { mutable plan : Proto.agent_cfg option }

let log ~quiet fmt =
  Printf.ksprintf
    (fun s -> if not quiet then (print_string s; print_newline (); flush stdout))
    fmt

let sup_cfg ~dir (a : Proto.agent_cfg) =
  {
    Supervisor.dir;
    n = a.ag_n;
    protocol = a.ag_protocol;
    seed = a.ag_seed;
    duration = a.ag_duration;
    settle = a.ag_settle;
    rate = a.ag_rate;
    hops = a.ag_hops;
    pattern = a.ag_pattern;
    faults = a.ag_kills;
    net_faults = a.ag_net;
    restart_delay = a.ag_restart_delay;
    jitter = Supervisor.default_cfg.Supervisor.jitter;
    telemetry = a.ag_telemetry;
    link =
      Some
        (Tcplink.factory ~faults:a.ag_net ~endpoints:a.ag_endpoints
           ~n:a.ag_n ~seed:a.ag_seed ());
  }

(* Run artifacts, as run-directory-relative paths: per-incarnation
   traces and stats plus the stable stores, everything a coordinator
   needs to merge and audit the run. *)
let artifacts dir =
  let acc = ref [] in
  let rec walk rel =
    let abs = if rel = "" then dir else Filename.concat dir rel in
    Array.iter
      (fun name ->
        let rel = if rel = "" then name else Filename.concat rel name in
        let abs = Filename.concat dir rel in
        if Sys.is_directory abs then walk rel else acc := rel :: !acc)
      (Sys.readdir abs)
  in
  walk "";
  List.sort compare !acc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let handle_conn ~dir ~quiet fd =
  let session = { plan = None } in
  let continue = ref true in
  while !continue do
    match Proto.recv_request fd with
    | Proto.Hello -> Proto.send_response fd (Proto.Welcome { version = Proto.version })
    | Proto.Plan a -> (
        let cfg = sup_cfg ~dir a in
        match Supervisor.validate cfg with
        | () ->
            Supervisor.clean_dir cfg;
            session.plan <- Some a;
            log ~quiet "agent: plan %s — workers [%s] of %d, protocol %s" a.ag_run
              (String.concat ";" (List.map string_of_int a.ag_workers))
              a.ag_n
              (Optimist_protocols.Registry.name a.ag_protocol);
            Proto.send_response fd Proto.Ok_
        | exception Invalid_argument msg ->
            Proto.send_response fd (Proto.Error_ msg))
    | Proto.Start { base } -> (
        match session.plan with
        | None -> Proto.send_response fd (Proto.Error_ "start before plan")
        | Some a -> (
            log ~quiet "agent: starting %s (base in %.3fs)" a.ag_run
              (base -. Unix.gettimeofday ());
            match
              Supervisor.supervise (sup_cfg ~dir a) ~base ~workers:a.ag_workers
            with
            | sv ->
                log ~quiet "agent: %s done — %d crash(es), %d clean exit(s)"
                  a.ag_run sv.Supervisor.sv_crashes sv.Supervisor.sv_clean_exits;
                Proto.send_response fd
                  (Proto.Done_
                     {
                       crashes = sv.Supervisor.sv_crashes;
                       clean_exits = sv.Supervisor.sv_clean_exits;
                       gens = sv.Supervisor.sv_gens;
                     })
            | exception e ->
                Proto.send_response fd (Proto.Error_ (Printexc.to_string e))))
    | Proto.Fetch ->
        List.iter
          (fun rel ->
            let data = read_file (Filename.concat dir rel) in
            Proto.send_response fd (Proto.File { path = rel; data }))
          (artifacts dir);
        Proto.send_response fd Proto.Fetched
    | Proto.Bye ->
        Proto.send_response fd Proto.Ok_;
        continue := false
    | exception _ -> continue := false
  done

let serve ?(quiet = false) ?(once = false) ~dir ~port () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_any, port));
  Unix.listen lfd 8;
  log ~quiet "agent: listening on port %d (dir %s)" port dir;
  let continue = ref true in
  while !continue do
    match Unix.accept lfd with
    | fd, _ ->
        (try handle_conn ~dir ~quiet fd
         with e ->
           log ~quiet "agent: session error: %s" (Printexc.to_string e));
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if once then continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  try Unix.close lfd with Unix.Unix_error _ -> ()
