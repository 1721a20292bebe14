module Trace = Optimist_obs.Trace
module Transport = Optimist_core.Transport

type timer = { t_at : float; t_seq : int; t_run : unit -> unit }

type t = {
  base : float;
  mutable last : float;
  mutable timers : timer list; (* sorted by (t_at, t_seq) *)
  mutable seq : int;
  (* Each readiness set twice: the callbacks, and their fds as [select]
     takes them, kept in step by the registration calls so a loop turn
     builds no list. *)
  mutable fds : (Unix.file_descr * (unit -> unit)) list;
  mutable rlist : Unix.file_descr list;
  mutable wfds : (Unix.file_descr * (unit -> unit)) list;
  mutable wlist : Unix.file_descr list;
  mutable seams : (unit -> unit) list;
      (* run after due timers and after each ready callback *)
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
    rlist = [];
    wfds = [];
    wlist = [];
    seams = [];
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

let on_readable t fd cb =
  t.fds <- (fd, cb) :: t.fds;
  t.rlist <- fd :: t.rlist

let on_writable t fd cb =
  t.wfds <- (fd, cb) :: t.wfds;
  t.wlist <- fd :: t.wlist

let remove_writable t fd =
  t.wfds <- List.filter (fun (f, _) -> f != fd) t.wfds;
  t.wlist <- List.filter (fun f -> f != fd) t.wlist

let remove_fd t fd =
  t.fds <- List.filter (fun (f, _) -> f != fd) t.fds;
  t.rlist <- List.filter (fun f -> f != fd) t.rlist;
  remove_writable t fd

(* In registration order, so a hook added first runs first. *)
let on_seam t f = t.seams <- t.seams @ [ f ]
let remove_seam t f = t.seams <- List.filter (fun g -> g != f) t.seams
let seam t = List.iter (fun f -> f ()) t.seams

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
  fire ();
  seam t

(* A callback is looked up when its fd is served, not when select
   returns, so one removed by an earlier callback of this turn never
   runs. A [file_descr] is an int on Unix, so [==] is fd equality. The
   seams run after each callback, so what it sent reaches a peer served
   later in this turn. *)
let select_once t ~timeout =
  match Unix.select t.rlist t.wlist [] timeout with
  | ready, writable, _ ->
      List.iter
        (fun fd ->
          match List.assq_opt fd t.fds with
          | Some cb ->
              cb ();
              seam t
          | None -> ())
        ready;
      List.iter
        (fun fd ->
          match List.assq_opt fd t.wfds with
          | Some cb ->
              cb ();
              seam t
          | None -> ())
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
