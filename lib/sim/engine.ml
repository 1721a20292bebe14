module Prng = Optimist_util.Prng
module Heap = Optimist_util.Heap
module Trace = Optimist_obs.Trace

type time = float

type key = { at : time; seq : int }

type label = { l_kind : string; l_pid : int; l_src : int; l_info : string }

(* The label of an event whose scheduling site gives none. *)
let anon = { l_kind = ""; l_pid = -1; l_src = -1; l_info = "" }

type event = {
  action : unit -> unit;
  daemon : bool;
  label : label;
  mutable cancelled : bool;
}

type cancel = event

type candidate = {
  c_seq : int;
  c_at : time;
  c_daemon : bool;
  c_label : label;
}

type strategy = candidate array -> int

type t = {
  mutable clock : time;
  mutable seq : int;
  mutable fired : int;
  mutable live_work : int; (* pending non-daemon, non-cancelled events *)
  mutable queued_live : int; (* pending non-cancelled events, daemons too *)
  queue : (key, event) Heap.t;
  (* Events popped off the heap while gathering the enabled set of the
     current instant but not yet fired; ascending seq order. Always
     pushed back before anything else looks at the heap. *)
  mutable stash : (key * event) list;
  mutable strategy : strategy option;
  rng : Prng.t;
  mutable tracer : Trace.t;
}

let compare_key a b =
  let c = compare a.at b.at in
  if c <> 0 then c else compare a.seq b.seq

let create ?(seed = 1L) () =
  {
    clock = 0.0;
    seq = 0;
    fired = 0;
    live_work = 0;
    queued_live = 0;
    queue = Heap.create ~cmp:compare_key ();
    stash = [];
    strategy = None;
    rng = Prng.create seed;
    tracer = Trace.null;
  }

let now t = t.clock

let rng t = t.rng

let tracer t = t.tracer

let set_tracer t tr = t.tracer <- tr

let schedule_at t ?(daemon = false) ?(label = anon) at action =
  (* [nan < clock] is false: without this check a NaN time would pass the
     next one, sort first and set the clock to NaN. *)
  if not (Float.is_finite at) then
    invalid_arg (Printf.sprintf "Engine.schedule_at: time %g is not finite" at);
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: %g is in the past (now %g)" at
         t.clock);
  let ev = { action; daemon; label; cancelled = false } in
  Heap.push t.queue { at; seq = t.seq } ev;
  t.seq <- t.seq + 1;
  if not daemon then t.live_work <- t.live_work + 1;
  t.queued_live <- t.queued_live + 1;
  ev

let schedule t ?daemon ?label ~delay action =
  if not (Float.is_finite delay) then
    invalid_arg (Printf.sprintf "Engine.schedule: delay %g is not finite" delay);
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ?daemon ?label (t.clock +. delay) action

let cancel t ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    if not ev.daemon then t.live_work <- t.live_work - 1;
    t.queued_live <- t.queued_live - 1
  end

let set_strategy t s = t.strategy <- s

let restash t =
  match t.stash with
  | [] -> ()
  | entries ->
      List.iter (fun (k, ev) -> Heap.push t.queue k ev) entries;
      t.stash <- []

(* Pop every non-cancelled event scheduled for the earliest queued
   instant into the stash (ascending seq). Tombstones encountered on the
   way are discarded — their live counters were adjusted at cancel time. *)
let gather t =
  restash t;
  let rec skip_tombstones () =
    match Heap.peek t.queue with
    | Some (_, ev) when ev.cancelled ->
        ignore (Heap.pop t.queue);
        skip_tombstones ()
    | other -> other
  in
  match skip_tombstones () with
  | None -> [||]
  | Some (k0, _) ->
      let at = k0.at in
      let rec collect acc =
        match Heap.peek t.queue with
        | Some (k, ev) when k.at = at ->
            ignore (Heap.pop t.queue);
            if ev.cancelled then collect acc else collect ((k, ev) :: acc)
        | _ -> List.rev acc
      in
      let entries = collect [] in
      t.stash <- entries;
      Array.of_list
        (List.map
           (fun ((k : key), ev) ->
             { c_seq = k.seq; c_at = k.at; c_daemon = ev.daemon;
               c_label = ev.label })
           entries)

let enabled t =
  let cands = gather t in
  restash t;
  cands

let queued t =
  let live =
    List.filter (fun (_, ev) -> not ev.cancelled)
      (t.stash @ Heap.to_list t.queue)
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare_key a b) live in
  Array.of_list
    (List.map
       (fun ((k : key), ev) ->
         { c_seq = k.seq; c_at = k.at; c_daemon = ev.daemon;
           c_label = ev.label })
       sorted)

let fire_event t (k : key) ev =
  (* [run ~until] may already have advanced the clock past a stale
     daemon event's timestamp; never move time backwards. *)
  t.clock <- Float.max t.clock k.at;
  if not ev.cancelled then begin
    if not ev.daemon then t.live_work <- t.live_work - 1;
    t.queued_live <- t.queued_live - 1;
    t.fired <- t.fired + 1;
    ev.action ();
    true
  end
  else false

(* Fire the stashed event with the given seq; everything else goes back
   on the heap first so handler-scheduled events interleave correctly. *)
let fire_stashed t seq =
  let chosen, rest = List.partition (fun ((k : key), _) -> k.seq = seq) t.stash in
  t.stash <- rest;
  restash t;
  match chosen with
  | [ (k, ev) ] -> fire_event t k ev
  | _ -> invalid_arg "Engine: strategy chose an event that is not enabled"

let step t =
  match t.strategy with
  | None -> (
      restash t;
      match Heap.pop t.queue with
      | None -> false
      | Some (key, ev) ->
          ignore (fire_event t key ev);
          true)
  | Some strat ->
      (* The strategy's side effects (e.g. a crash injected at the choice
         point) may cancel the event it then picks; skip and re-choose. *)
      let rec go () =
        let cands = gather t in
        let n = Array.length cands in
        if n = 0 then false
        else begin
          let i = strat cands in
          if i < 0 || i >= n then
            invalid_arg "Engine.step: strategy returned an out-of-range index";
          if fire_stashed t cands.(i).c_seq then true else go ()
        end
      in
      go ()

(* Peek past cancelled tombstones so the [until] horizon is checked
   against the next event that will actually fire. *)
let rec peek_live t =
  match Heap.peek t.queue with
  | Some (_, ev) when ev.cancelled ->
      ignore (Heap.pop t.queue);
      peek_live t
  | other -> other

let run ?until ?(max_events = 50_000_000) t =
  let budget = ref max_events in
  let continue = ref true in
  while !continue && !budget > 0 do
    if t.live_work = 0 then continue := false
    else begin
      restash t;
      match peek_live t with
      | None -> continue := false
      | Some (key, _) -> (
          match until with
          | Some horizon when key.at > horizon -> continue := false
          | _ ->
              ignore (step t);
              decr budget)
    end
  done;
  if !budget = 0 then failwith "Engine.run: event budget exhausted";
  (* A horizon stop leaves [now] at the requested end time, so callers
     measuring elapsed virtual time see the full interval they asked for. *)
  match until with
  | Some horizon when t.clock < horizon -> t.clock <- horizon
  | _ -> ()

let pending t = Heap.length t.queue + List.length t.stash

let live_pending t = t.queued_live

let live_work t = t.live_work

let events_fired t = t.fired
