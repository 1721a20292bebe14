module Trace = Optimist_obs.Trace
module Transport = Optimist_core.Transport

type timer = { t_at : float; t_seq : int; t_run : unit -> unit }

type t = {
  base : float;
  mutable last : float;
  mutable timers : timer list; (* sorted by (t_at, t_seq) *)
  mutable seq : int;
  mutable fds : (Unix.file_descr * (unit -> unit)) list;
  mutable wfds : (Unix.file_descr * (unit -> unit)) list;
  mutable stopped : bool;
  tracer : Trace.t;
}

let create ?(tracer = Trace.null) ~base () =
  {
    base;
    last = 0.0;
    timers = [];
    seq = 0;
    fds = [];
    wfds = [];
    stopped = false;
    tracer;
  }

(* Wall clock relative to [base], clamped non-decreasing so per-process
   trace timestamps are monotone even if the system clock steps back. *)
let now t =
  let x = Unix.gettimeofday () -. t.base in
  if x > t.last then t.last <- x;
  t.last

let schedule t ~delay action =
  let at = now t +. Float.max delay 0.0 in
  t.seq <- t.seq + 1;
  let tm = { t_at = at; t_seq = t.seq; t_run = action } in
  (* Lexicographic on (t_at, t_seq) without building tuples for
     polymorphic compare; the same order, NaN included (every comparison
     with NaN is false under both). *)
  let rec ins = function
    | [] -> [ tm ]
    | x :: _ as l
      when tm.t_at < x.t_at || (tm.t_at = x.t_at && tm.t_seq < x.t_seq) ->
        tm :: l
    | x :: rest -> x :: ins rest
  in
  t.timers <- ins t.timers

let on_readable t fd cb = t.fds <- (fd, cb) :: t.fds

let on_writable t fd cb = t.wfds <- (fd, cb) :: t.wfds

let remove_writable t fd = t.wfds <- List.filter (fun (f, _) -> f <> fd) t.wfds

let remove_fd t fd =
  t.fds <- List.filter (fun (f, _) -> f <> fd) t.fds;
  remove_writable t fd

let stop t = t.stopped <- true

let tracer t = t.tracer

(* The [daemon] distinction is meaningless here: a live loop runs to its
   deadline regardless of pending timers, so daemon timers cannot keep it
   alive and non-daemon timers cannot extend it. *)
let runtime t =
  {
    Transport.now = (fun () -> now t);
    schedule =
      (fun ?label:_ ~daemon:_ ~delay action -> schedule t ~delay action);
    tracer = (fun () -> t.tracer);
  }

let fire_due t =
  let rec fire () =
    match t.timers with
    | tm :: rest when tm.t_at <= now t ->
        t.timers <- rest;
        tm.t_run ();
        fire ()
    | _ -> ()
  in
  fire ()

let select_once t ~timeout =
  match
    Unix.select (List.map fst t.fds) (List.map fst t.wfds) [] timeout
  with
  | ready, writable, _ ->
      List.iter
        (fun fd ->
          match List.assoc_opt fd t.fds with Some cb -> cb () | None -> ())
        ready;
      List.iter
        (fun fd ->
          match List.assoc_opt fd t.wfds with Some cb -> cb () | None -> ())
        writable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let run_once t ~max_wait =
  fire_due t;
  if not t.stopped then begin
    let next_timer =
      match t.timers with [] -> infinity | tm :: _ -> tm.t_at
    in
    let timeout =
      Float.max 0.0 (Float.min max_wait (next_timer -. now t))
    in
    select_once t ~timeout
  end

let run t ~until =
  while (not t.stopped) && now t < until do
    fire_due t;
    if (not t.stopped) && now t < until then begin
      let next_timer =
        match t.timers with [] -> infinity | tm :: _ -> tm.t_at
      in
      let timeout =
        Float.max 0.0
          (Float.min (until -. now t)
             (Float.min 0.05 (next_timer -. now t)))
      in
      select_once t ~timeout
    end
  done
