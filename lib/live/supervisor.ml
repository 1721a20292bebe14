module Json = Optimist_obs.Json
module Registry = Optimist_protocols.Registry
module Traffic = Optimist_workload.Traffic

(* The supervisor is the only process of a live run with a global view:
   it forks the n workers, injects failures by sending real SIGKILLs at
   scheduled instants, respawns the victims (next generation, same
   stable store) after a restart delay, reaps children, and finally
   merges the per-incarnation traces into one lintable stream.

   Workers are forked, not exec'd: the child shares the parent's code
   image and jumps straight into [Worker.main], which sidesteps
   argv-marshalling and keeps the run self-contained in one binary. The
   child leaves via [Unix._exit] so inherited channel buffers are not
   flushed twice. *)

type cfg = {
  dir : string;
  n : int;
  protocol : Worker.protocol;
  seed : int64;
  duration : float;
  settle : float;
  rate : float;
  hops : int;
  pattern : Traffic.pattern;
  faults : (float * int) list;  (** (seconds into the run, pid) SIGKILLs *)
  net_faults : Livenet.faults;  (** seeded drops/dups/partitions *)
  restart_delay : float;
  jitter : float * float;
  telemetry : Worker.telemetry;
  link : Link.factory option;  (** [None] = the UDS mesh under [dir] *)
}

let default_cfg =
  {
    dir = "live-run";
    n = 4;
    protocol = Worker.Dg;
    seed = 1L;
    duration = 3.0;
    settle = 2.0;
    rate = 8.0;
    hops = 3;
    pattern = Traffic.Uniform;
    faults = [];
    net_faults = Livenet.no_faults;
    restart_delay = 0.3;
    jitter = (0.001, 0.02);
    telemetry = Worker.Full;
    link = None;
  }

type result = {
  merged : string;  (** path of the merged JSONL trace *)
  chrome : string;  (** path of the merged Chrome trace *)
  events : int;
  dropped : int;  (** torn/unparsable trace lines skipped by the merge *)
  crashes : int;  (** SIGKILLs actually delivered *)
  clean_exits : int;  (** final incarnations that exited 0 *)
}

let merged_file dir = Filename.concat dir "merged.jsonl"
let chrome_file dir = Filename.concat dir "trace.chrome.json"
let run_file dir = Filename.concat dir "run.json"

let validate cfg =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  Result.iter_error (fail "%s") (Registry.live cfg.protocol);
  if cfg.n < 2 then fail "n must be at least 2 (got %d)" cfg.n;
  (* Catch an over-long --dir here, before any worker hits the opaque
     [Unix.bind] EINVAL/ENAMETOOLONG deep inside its fork. *)
  (match cfg.link with
  | Some _ -> () (* non-UDS fabric: no socket paths under [dir] *)
  | None -> (
      match Livenet.check_dir ~dir:cfg.dir ~n:cfg.n with
      | Ok () -> ()
      | Error e -> fail "%s" e));
  if cfg.duration <= 0.0 then fail "duration must be positive";
  if cfg.settle < 0.0 then fail "settle must be non-negative";
  if cfg.rate <= 0.0 then fail "rate must be positive";
  if cfg.restart_delay <= 0.0 then fail "restart delay must be positive";
  List.iter
    (fun (at, pid) ->
      if pid < 0 || pid >= cfg.n then
        fail "fault pid %d out of range [0, %d)" pid cfg.n;
      if at <= 0.0 || at >= cfg.duration then
        fail "fault time %g outside the injection window (0, %g)" at
          cfg.duration)
    cfg.faults;
  let rate_ok r = Float.is_finite r && r >= 0.0 && r < 1.0 in
  if not (rate_ok cfg.net_faults.drop_rate) then
    fail "drop rate must be in [0, 1) (got %g)" cfg.net_faults.drop_rate;
  if not (rate_ok cfg.net_faults.dup_rate) then
    fail "dup rate must be in [0, 1) (got %g)" cfg.net_faults.dup_rate;
  List.iter
    (fun (p : Livenet.partition) ->
      if p.pt_start < 0.0 || p.pt_stop <= p.pt_start then
        fail "partition window [%g, %g) is empty or negative" p.pt_start
          p.pt_stop;
      if p.pt_island = [] then fail "partition island must not be empty";
      List.iter
        (fun pid ->
          if pid < 0 || pid >= cfg.n then
            fail "partition pid %d out of range [0, %d)" pid cfg.n)
        p.pt_island)
    cfg.net_faults.partitions

(* Clear the previous run's artifacts (sockets, traces, stores, reports)
   so a reused directory cannot mix two runs' traces. *)
let clean_dir cfg =
  if not (Sys.file_exists cfg.dir) then Unix.mkdir cfg.dir 0o755
  else
    Array.iter
      (fun name ->
        let path = Filename.concat cfg.dir name in
        if Sys.is_directory path then begin
          if String.length name >= 6 && String.sub name 0 6 = "store." then begin
            Array.iter
              (fun f -> Sys.remove (Filename.concat path f))
              (Sys.readdir path);
            Unix.rmdir path
          end
        end
        else Sys.remove path)
      (Sys.readdir cfg.dir)

let spawn cfg ~base ~pid ~gen =
  let wcfg =
    {
      Worker.dir = cfg.dir;
      me = pid;
      n = cfg.n;
      protocol = cfg.protocol;
      gen;
      seed = cfg.seed;
      base;
      duration = cfg.duration;
      settle = cfg.settle;
      rate = cfg.rate;
      hops = cfg.hops;
      pattern = cfg.pattern;
      jitter = cfg.jitter;
      faults = cfg.net_faults;
      telemetry = cfg.telemetry;
      link = cfg.link;
    }
  in
  match Unix.fork () with
  | 0 ->
      (try Worker.main wcfg
       with e ->
         prerr_endline
           (Printf.sprintf "worker %d: %s" pid (Printexc.to_string e));
         Unix._exit 1);
      Unix._exit 0
  | child -> child

let kill_hard ospid =
  try Unix.kill ospid Sys.sigkill
  with Unix.Unix_error (Unix.ESRCH, _, _) -> ()

type sv_result = {
  sv_crashes : int;
  sv_clean_exits : int;
  sv_gens : (int * int) list;  (** (pid, final generation) *)
}

(* The supervision loop over an explicit pid subset: a single-host run
   supervises all n workers; a cluster agent supervises only its local
   block against a coordinator-chosen [base], with the fault schedule
   filtered down to the pids it hosts. [base] may lie in the future
   (coordinated multi-host start): workers' loop clocks idle at 0 until
   it passes, and the deadline below is measured from it. *)
let supervise cfg ~base ~workers =
  let now () = Unix.gettimeofday () -. base in
  let deadline = cfg.duration +. cfg.settle in
  (* os pid -> worker index, for reaping *)
  let children = Hashtbl.create 16 in
  let gens = Hashtbl.create 16 in
  let alive = Hashtbl.create 16 in
  let clean_exits = ref 0 in
  let crashes = ref 0 in
  let start ~pid ~gen =
    let child = spawn cfg ~base ~pid ~gen in
    Hashtbl.replace children child pid;
    Hashtbl.replace gens pid gen;
    Hashtbl.replace alive pid true
  in
  List.iter (fun pid -> start ~pid ~gen:0) workers;
  let kills =
    ref
      (List.sort compare
         (List.filter (fun (_, pid) -> List.mem pid workers) cfg.faults))
  in
  let respawns = ref [] (* (at, pid), unsorted — scanned each tick *) in
  let reap ~blocking =
    let flags = if blocking then [] else [ Unix.WNOHANG ] in
    let continue = ref true in
    while !continue do
      match Unix.waitpid flags (-1) with
      | 0, _ -> continue := false
      | child, status ->
          (match Hashtbl.find_opt children child with
          | Some pid ->
              Hashtbl.replace alive pid false;
              if status = Unix.WEXITED 0 then incr clean_exits
          | None -> ());
          Hashtbl.remove children child;
          if blocking then continue := false
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  (* Supervision loop: deliver due SIGKILLs, respawn the victims one
     generation up, reap exits. *)
  while now () < deadline do
    let t = now () in
    (match !kills with
    | (at, pid) :: rest when at <= t ->
        kills := rest;
        if Hashtbl.find_opt alive pid = Some true then begin
          let ospid, _ =
            Hashtbl.fold
              (fun os p acc -> if p = pid then (os, p) else acc)
              children (-1, pid)
          in
          if ospid > 0 then begin
            kill_hard ospid;
            incr crashes;
            (* The corpse is reaped by the WNOHANG pass below; the next
               incarnation starts after the restart delay. *)
            respawns := (t +. cfg.restart_delay, pid) :: !respawns
          end
        end
    | _ -> ());
    let due, later = List.partition (fun (at, _) -> at <= t) !respawns in
    respawns := later;
    List.iter
      (fun (_, pid) -> start ~pid ~gen:(Hashtbl.find gens pid + 1))
      due;
    reap ~blocking:false;
    Unix.sleepf 0.005
  done;
  (* Workers stop at the same wall-clock deadline; give them a grace
     period to write stats and exit, then put down any straggler. *)
  let grace = Unix.gettimeofday () +. 10.0 in
  while Hashtbl.length children > 0 && Unix.gettimeofday () < grace do
    reap ~blocking:false;
    Unix.sleepf 0.02
  done;
  Hashtbl.iter (fun ospid _ -> kill_hard ospid) children;
  while Hashtbl.length children > 0 do
    reap ~blocking:true
  done;
  {
    sv_crashes = !crashes;
    sv_clean_exits = !clean_exits;
    sv_gens =
      List.map (fun pid -> (pid, Hashtbl.find gens pid)) workers;
  }

let run cfg =
  validate cfg;
  clean_dir cfg;
  let base = Unix.gettimeofday () in
  let sv =
    supervise cfg ~base ~workers:(List.init cfg.n (fun pid -> pid))
  in
  let crashes = ref sv.sv_crashes in
  let clean_exits = ref sv.sv_clean_exits in
  let gens = Array.make cfg.n 0 in
  List.iter (fun (pid, g) -> gens.(pid) <- g) sv.sv_gens;
  let events, dropped = Merge.run ~dir:cfg.dir ~out:(merged_file cfg.dir) in
  ignore
    (Merge.chrome ~src:(merged_file cfg.dir) ~out:(chrome_file cfg.dir));
  let summary =
    Json.Obj
      [
        ("protocol", Json.String (Registry.name cfg.protocol));
        ("telemetry", Json.String (Worker.telemetry_name cfg.telemetry));
        ("n", Json.Int cfg.n);
        ("seed", Json.String (Int64.to_string cfg.seed));
        ("duration", Json.Float cfg.duration);
        ("settle", Json.Float cfg.settle);
        ("rate", Json.Float cfg.rate);
        ("hops", Json.Int cfg.hops);
        ( "faults",
          Json.List
            (List.map
               (fun (at, pid) ->
                 Json.Obj [ ("at", Json.Float at); ("pid", Json.Int pid) ])
               cfg.faults) );
        ("drop_rate", Json.Float cfg.net_faults.drop_rate);
        ("dup_rate", Json.Float cfg.net_faults.dup_rate);
        ( "partitions",
          Json.List
            (List.map
               (fun (p : Livenet.partition) ->
                 Json.Obj
                   [
                     ("start", Json.Float p.pt_start);
                     ("stop", Json.Float p.pt_stop);
                     ( "island",
                       Json.List (List.map (fun i -> Json.Int i) p.pt_island)
                     );
                   ])
               cfg.net_faults.partitions) );
        ("crashes", Json.Int !crashes);
        ("clean_exits", Json.Int !clean_exits);
        ("events", Json.Int events);
        ("dropped_lines", Json.Int dropped);
        ( "generations",
          Json.List (Array.to_list (Array.map (fun g -> Json.Int g) gens)) );
      ]
  in
  let oc = open_out (run_file cfg.dir) in
  output_string oc (Json.to_string summary);
  output_string oc "\n";
  close_out oc;
  {
    merged = merged_file cfg.dir;
    chrome = chrome_file cfg.dir;
    events;
    dropped;
    crashes = !crashes;
    clean_exits = !clean_exits;
  }
