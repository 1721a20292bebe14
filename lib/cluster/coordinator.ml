module Worker = Optimist_live.Worker
module Registry = Optimist_protocols.Registry
module Livenet = Optimist_live.Livenet
module Merge = Optimist_live.Merge
module Json = Optimist_obs.Json
module Traffic = Optimist_workload.Traffic
module Scenario = Optimist_soak.Scenario
module Soak = Optimist_soak.Soak

(* The coordinator drives N agents through one cluster run: split the
   worker ids into contiguous per-agent blocks, ship every agent the
   plan (full endpoint table, full SIGKILL schedule — each agent filters
   to its block), start everyone against a shared base instant slightly
   in the future, wait for the supervision loops to finish, fetch the
   per-host traces/stats/stores back, and feed them through the
   single-host Merge and report/lint pipeline. The merged artifacts are
   indistinguishable from a single-host run's, which is the point: every
   downstream consumer (recsim check/report, the soak assessor) works
   unchanged. *)

type cfg = {
  cc_out : string;  (** coordinator-side output directory *)
  cc_n : int;
  cc_protocol : Registry.id;
  cc_seed : int64;
  cc_duration : float;
  cc_settle : float;
  cc_rate : float;
  cc_hops : int;
  cc_pattern : Traffic.pattern;
  cc_kills : (float * int) list;
  cc_net : Livenet.faults;
  cc_restart_delay : float;
  cc_telemetry : Worker.telemetry;
  cc_lead : float;  (** seconds between Start and the shared base *)
  cc_worker_base : int;  (** worker pid [i] listens on [cc_worker_base + i] *)
}

let default_cfg =
  {
    cc_out = "cluster-run";
    cc_n = 4;
    cc_protocol = Registry.Dg;
    cc_seed = 1L;
    cc_duration = 3.0;
    cc_settle = 2.0;
    cc_rate = 8.0;
    cc_hops = 3;
    cc_pattern = Traffic.Uniform;
    cc_kills = [];
    cc_net = Livenet.no_faults;
    cc_restart_delay = 0.3;
    cc_telemetry = Worker.Full;
    cc_lead = 0.5;
    cc_worker_base = 7900;
  }

type summary = {
  cs_merged : string;
  cs_chrome : string;
  cs_events : int;
  cs_dropped : int;
  cs_crashes : int;
  cs_clean_exits : int;
  cs_gens : (int * int) list;  (** (pid, final generation) *)
}

let merged_file out = Filename.concat out "merged.jsonl"
let chrome_file out = Filename.concat out "trace.chrome.json"
let run_file out = Filename.concat out "run.json"

(* Contiguous pid blocks: agent [j] of [k] hosts a run of
   [n/k (+1 for the first n mod k agents)] consecutive pids. *)
let blocks ~n ~k =
  let q = n / k and r = n mod k in
  List.init k (fun j ->
      let lo = (j * q) + min j r in
      let size = q + if j < r then 1 else 0 in
      List.init size (fun i -> lo + i))

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Clear fetched artifacts of a previous run: top-level files and
   store.* directories. Agent scratch directories (forked-localhost
   mode) are left alone — live agents may be inside them. *)
let clean_out out =
  if not (Sys.file_exists out) then Unix.mkdir out 0o755
  else
    Array.iter
      (fun name ->
        let path = Filename.concat out name in
        if Sys.is_directory path then begin
          if starts_with "store." name then rm_rf path
        end
        else Sys.remove path)
      (Sys.readdir out)

(* A fetched path must stay inside the output directory. *)
let safe_path rel =
  Filename.is_relative rel
  && rel <> ""
  && List.for_all
       (fun seg -> seg <> ".." && seg <> "")
       (String.split_on_char '/' rel)

let write_artifact ~out ~rel data =
  let rec ensure_dir d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      ensure_dir (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  let path = Filename.concat out rel in
  ensure_dir (Filename.dirname path);
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let connect ~host ~port ~timeout =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found ->
        failwith (Printf.sprintf "cannot resolve host %S" host))
  in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec attempt () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_INET (addr, port)) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ETIMEDOUT), _, _)
      when Unix.gettimeofday () < deadline ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.05;
        attempt ()
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  attempt ()

let expect_ok fd what =
  match Proto.recv_response fd with
  | Proto.Ok_ -> ()
  | Proto.Error_ msg -> failwith (Printf.sprintf "%s: %s" what msg)
  | _ -> failwith (Printf.sprintf "%s: unexpected response" what)

let run ?(log = fun _ -> ()) cfg ~peers =
  let k = List.length peers in
  if k = 0 then Error "no agents"
  else if cfg.cc_n < k then
    Error
      (Printf.sprintf "%d agent(s) for %d worker(s) — at most one per worker"
         k cfg.cc_n)
  else begin
    let run_id =
      Printf.sprintf "run-%s-%Ld"
        (Registry.name cfg.cc_protocol)
        cfg.cc_seed
    in
    let peer_arr = Array.of_list peers in
    let pid_blocks = blocks ~n:cfg.cc_n ~k in
    let endpoints = Array.make cfg.cc_n ("", 0) in
    List.iteri
      (fun j pids ->
        let host, _ = peer_arr.(j) in
        List.iter
          (fun pid -> endpoints.(pid) <- (host, cfg.cc_worker_base + pid))
          pids)
      pid_blocks;
    clean_out cfg.cc_out;
    let conns = ref [] in
    let close_all () =
      List.iter
        (fun (fd, _, _) ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        !conns
    in
    match
      begin
        (* Connect and handshake every agent before anything starts. *)
        List.iteri
          (fun j (host, port) ->
            let fd = connect ~host ~port ~timeout:5.0 in
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO
              (cfg.cc_duration +. cfg.cc_settle +. 60.0);
            conns := !conns @ [ (fd, j, Printf.sprintf "%s:%d" host port) ];
            Proto.send_request fd Proto.Hello;
            match Proto.recv_response fd with
            | Proto.Welcome { version } when version = Proto.version -> ()
            | Proto.Welcome { version } ->
                failwith
                  (Printf.sprintf
                     "agent %s:%d speaks protocol v%d, coordinator v%d \
                      (mismatched builds?)"
                     host port version Proto.version)
            | _ -> failwith "bad handshake")
          peers;
        List.iter
          (fun (fd, j, who) ->
            let a =
              {
                Proto.ag_run = run_id;
                ag_n = cfg.cc_n;
                ag_workers = List.nth pid_blocks j;
                ag_endpoints = endpoints;
                ag_protocol = cfg.cc_protocol;
                ag_seed = cfg.cc_seed;
                ag_duration = cfg.cc_duration;
                ag_settle = cfg.cc_settle;
                ag_rate = cfg.cc_rate;
                ag_hops = cfg.cc_hops;
                ag_pattern = cfg.cc_pattern;
                ag_kills = cfg.cc_kills;
                ag_net = cfg.cc_net;
                ag_restart_delay = cfg.cc_restart_delay;
                ag_telemetry = cfg.cc_telemetry;
              }
            in
            Proto.send_request fd (Proto.Plan a);
            expect_ok fd (Printf.sprintf "agent %s rejected the plan" who))
          !conns;
        (* One shared origin, slightly in the future so every agent's
           workers are up and connected before time starts flowing. *)
        let base = Unix.gettimeofday () +. cfg.cc_lead in
        List.iter
          (fun (fd, _, _) -> Proto.send_request fd (Proto.Start { base }))
          !conns;
        log
          (Printf.sprintf "cluster: %d agent(s) started, base +%.2fs"
             k cfg.cc_lead);
        let crashes = ref 0 and clean_exits = ref 0 in
        let gens = ref [] in
        List.iter
          (fun (fd, _, who) ->
            match Proto.recv_response fd with
            | Proto.Done_ d ->
                crashes := !crashes + d.crashes;
                clean_exits := !clean_exits + d.clean_exits;
                gens := !gens @ d.gens
            | Proto.Error_ msg ->
                failwith (Printf.sprintf "agent %s failed: %s" who msg)
            | _ -> failwith (Printf.sprintf "agent %s: unexpected response" who))
          !conns;
        (* Pull every agent's artifacts into the shared output dir. *)
        List.iter
          (fun (fd, _, who) ->
            Proto.send_request fd Proto.Fetch;
            let fetching = ref true in
            while !fetching do
              match Proto.recv_response fd with
              | Proto.File { path; data } ->
                  if safe_path path then
                    write_artifact ~out:cfg.cc_out ~rel:path data
                  else
                    log
                      (Printf.sprintf "cluster: agent %s sent unsafe path %S — skipped"
                         who path)
              | Proto.Fetched -> fetching := false
              | Proto.Error_ msg ->
                  failwith (Printf.sprintf "agent %s fetch failed: %s" who msg)
              | _ ->
                  failwith
                    (Printf.sprintf "agent %s: unexpected fetch response" who)
            done)
          !conns;
        List.iter
          (fun (fd, _, _) ->
            Proto.send_request fd Proto.Bye;
            match Proto.recv_response fd with _ | (exception _) -> ())
          !conns;
        (!crashes, !clean_exits, List.sort compare !gens)
      end
    with
    | exception e ->
        close_all ();
        Error (Printexc.to_string e)
    | crashes, clean_exits, gens ->
        close_all ();
        let events, dropped =
          Merge.run ~dir:cfg.cc_out ~out:(merged_file cfg.cc_out)
        in
        ignore
          (Merge.chrome ~src:(merged_file cfg.cc_out)
             ~out:(chrome_file cfg.cc_out));
        let summary =
          Json.Obj
            [
              ("transport", Json.String "tcp");
              ("run", Json.String run_id);
              ("protocol", Json.String (Registry.name cfg.cc_protocol));
              ("telemetry", Json.String (Worker.telemetry_name cfg.cc_telemetry));
              ("n", Json.Int cfg.cc_n);
              ("agents", Json.Int k);
              ( "peers",
                Json.List
                  (List.map (fun (h, p) -> Json.String (Printf.sprintf "%s:%d" h p)) peers)
              );
              ("seed", Json.String (Int64.to_string cfg.cc_seed));
              ("duration", Json.Float cfg.cc_duration);
              ("settle", Json.Float cfg.cc_settle);
              ("rate", Json.Float cfg.cc_rate);
              ("hops", Json.Int cfg.cc_hops);
              ( "faults",
                Json.List
                  (List.map
                     (fun (at, pid) ->
                       Json.Obj [ ("at", Json.Float at); ("pid", Json.Int pid) ])
                     cfg.cc_kills) );
              ("drop_rate", Json.Float cfg.cc_net.Livenet.drop_rate);
              ("dup_rate", Json.Float cfg.cc_net.Livenet.dup_rate);
              ("crashes", Json.Int crashes);
              ("clean_exits", Json.Int clean_exits);
              ("events", Json.Int events);
              ("dropped_lines", Json.Int dropped);
              ( "generations",
                Json.List (List.map (fun (_, g) -> Json.Int g) gens) );
            ]
        in
        let oc = open_out (run_file cfg.cc_out) in
        output_string oc (Json.to_string summary);
        output_string oc "\n";
        close_out oc;
        Ok
          {
            cs_merged = merged_file cfg.cc_out;
            cs_chrome = chrome_file cfg.cc_out;
            cs_events = events;
            cs_dropped = dropped;
            cs_crashes = crashes;
            cs_clean_exits = clean_exits;
            cs_gens = gens;
          }
  end

(* Localhost multi-process mode: fork the agents ourselves (same binary,
   straight into [Agent.serve ~once]), run against them as 127.0.0.1
   peers, and reap. Control ports [port_base + j]; worker data ports
   come from [cfg.cc_worker_base] as usual. *)
let run_forked ?(log = fun _ -> ()) ?(port_base = 7800) ~agents cfg =
  if agents < 1 then Error "need at least one agent"
  else begin
    clean_out cfg.cc_out;
    (* Stale scratch dirs from a previous run with a different layout. *)
    Array.iter
      (fun name ->
        let path = Filename.concat cfg.cc_out name in
        if Sys.is_directory path && starts_with "agent" name then rm_rf path)
      (Sys.readdir cfg.cc_out);
    let children =
      List.init agents (fun j ->
          let port = port_base + j in
          let dir = Filename.concat cfg.cc_out (Printf.sprintf "agent%d" j) in
          match Unix.fork () with
          | 0 ->
              (try Agent.serve ~quiet:true ~once:true ~dir ~port ()
               with e ->
                 prerr_endline
                   (Printf.sprintf "agent %d: %s" j (Printexc.to_string e));
                 Unix._exit 1);
              Unix._exit 0
          | pid -> pid)
    in
    let peers = List.init agents (fun j -> ("127.0.0.1", port_base + j)) in
    let res = run ~log cfg ~peers in
    (match res with
    | Ok _ -> ()
    | Error _ ->
        (* A failed exchange can leave agents blocked mid-protocol. *)
        List.iter
          (fun pid ->
            try Unix.kill pid Sys.sigkill
            with Unix.Unix_error _ -> ())
          children);
    List.iter
      (fun pid ->
        try ignore (Unix.waitpid [] pid)
        with Unix.Unix_error _ -> ())
      children;
    res
  end

(* Soak integration: a {!Optimist_soak.Soak.run_campaign} runner that
   executes each scenario as a forked-localhost TCP cluster and judges
   it with the shared assessor — multi-host soak without the harness
   knowing anything changed. *)
let scenario_runner ?(agents = 2) ?(port_base = 7800) ?(worker_base = 7900) ()
    ~dir (s : Scenario.t) =
  match Registry.of_string s.Scenario.sc_protocol with
  | None -> Error (Printf.sprintf "unknown protocol %S" s.Scenario.sc_protocol)
  | Some protocol -> (
      let cfg =
        {
          cc_out = dir;
          cc_n = s.sc_n;
          cc_protocol = protocol;
          cc_seed = Scenario.run_seed s;
          cc_duration = s.sc_duration;
          cc_settle = s.sc_settle;
          cc_rate = s.sc_rate;
          cc_hops = s.sc_hops;
          cc_pattern = Traffic.Uniform;
          cc_kills =
            List.map
              (fun k -> (k.Scenario.kl_at, k.Scenario.kl_pid))
              s.sc_kills;
          cc_net =
            {
              Livenet.drop_rate = s.sc_drop;
              dup_rate = s.sc_dup;
              partitions =
                List.map
                  (fun p ->
                    {
                      Livenet.pt_start = p.Scenario.pr_start;
                      pt_stop = p.Scenario.pr_stop;
                      pt_island = p.Scenario.pr_island;
                    })
                  s.sc_partitions;
            };
          cc_restart_delay = s.sc_restart_delay;
          cc_telemetry = Worker.Full;
          cc_lead = default_cfg.cc_lead;
          cc_worker_base = worker_base;
        }
      in
      match run_forked ~port_base ~agents:(min agents s.sc_n) cfg with
      | Error _ as e -> e
      | Ok r ->
          Soak.assess ~crashes:r.cs_crashes ~events:r.cs_events
            ~merged:r.cs_merged s)
