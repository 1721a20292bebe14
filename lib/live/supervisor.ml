module Json = Optimist_obs.Json

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

(* Clear the previous run's artifacts (sockets, traces, stores, reports)
   so a reused directory cannot mix two runs' traces. Other directories
   (a cluster run's agent scratch directories) are left alone. *)
let clean_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else
    Array.iter
      (fun name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then begin
          if String.length name >= 6 && String.sub name 0 6 = "store." then begin
            Array.iter
              (fun f -> Sys.remove (Filename.concat path f))
              (Sys.readdir path);
            Unix.rmdir path
          end
        end
        else Sys.remove path)
      (Sys.readdir dir)

let spawn cfg =
  match Unix.fork () with
  | 0 ->
      (try Worker.main cfg
       with e ->
         prerr_endline
           (Printf.sprintf "worker %d: %s" cfg.Worker.me (Printexc.to_string e));
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
   block against a coordinator-chosen [base], with the kill schedule
   filtered down to the pids it hosts. [base] may lie in the future
   (coordinated multi-host start): workers' loop clocks idle at 0 until
   it passes, and the deadline below is measured from it. *)
let supervise ~dir ~link (plan : Plan.t) ~base ~workers =
  let now () = Unix.gettimeofday () -. base in
  let deadline = plan.duration +. plan.settle in
  (* os pid -> worker index, for reaping *)
  let children = Hashtbl.create 16 in
  let gens = Hashtbl.create 16 in
  let alive = Hashtbl.create 16 in
  let clean_exits = ref 0 in
  let crashes = ref 0 in
  let start ~pid ~gen =
    let child = spawn { Worker.plan; dir; me = pid; gen; base; link } in
    Hashtbl.replace children child pid;
    Hashtbl.replace gens pid gen;
    Hashtbl.replace alive pid true
  in
  List.iter (fun pid -> start ~pid ~gen:0) workers;
  let kills =
    ref
      (List.sort compare
         (List.filter (fun (_, pid) -> List.mem pid workers) plan.kills))
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
            respawns := (t +. plan.restart_delay, pid) :: !respawns
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

(* Merge the per-incarnation traces under [dir] and write the Chrome
   timeline and [run.json] — the plan, then the outcome. A cluster run
   puts its own fields ([extra]) first. *)
let finish ?(extra = []) ~dir plan sv =
  let merged = merged_file dir and chrome = chrome_file dir in
  let events, dropped = Merge.run ~dir ~out:merged in
  ignore (Merge.chrome ~src:merged ~out:chrome);
  let summary =
    Json.Obj
      (extra @ Plan.json_fields plan
      @ [
          ("crashes", Json.Int sv.sv_crashes);
          ("clean_exits", Json.Int sv.sv_clean_exits);
          ("events", Json.Int events);
          ("dropped_lines", Json.Int dropped);
          ( "generations",
            Json.List (List.map (fun (_, g) -> Json.Int g) sv.sv_gens) );
        ])
  in
  let oc = open_out (run_file dir) in
  output_string oc (Json.to_string summary);
  output_string oc "\n";
  close_out oc;
  {
    merged;
    chrome;
    events;
    dropped;
    crashes = sv.sv_crashes;
    clean_exits = sv.sv_clean_exits;
  }

let run ~dir (plan : Plan.t) =
  (* Catch an over-long [dir] here, before any worker hits the opaque
     [Unix.bind] EINVAL/ENAMETOOLONG deep inside its fork. *)
  match
    Result.bind (Plan.validate plan) (fun () ->
        Livenet.check_dir ~dir ~n:plan.n)
  with
  | Error _ as e -> e
  | Ok () ->
      clean_dir dir;
      let sv =
        supervise ~dir ~link:(Livenet.factory ~dir) plan
          ~base:(Unix.gettimeofday ()) ~workers:(List.init plan.n Fun.id)
      in
      Ok (finish ~dir plan sv)
