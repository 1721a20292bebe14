module Prng = Optimist_util.Prng
module Trace = Optimist_obs.Trace

type time = float

type label = { l_kind : string; l_pid : int; l_src : int; l_info : string }

(* The label of an event whose scheduling site gives none. *)
let anon = { l_kind = ""; l_pid = -1; l_src = -1; l_info = "" }

(* An event carries its own position in the queue order, [(at, seq)], so
   the queue compares fields and allocates nothing beyond the event. *)
type event = {
  at : time;
  seq : int;
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
  (* A binary min-heap on [(at, seq)] in [heap.(0 .. size - 1)]; the slots
     past [size] hold [filler]. *)
  mutable heap : event array;
  mutable size : int;
  (* Events popped off the heap while gathering the enabled set of the
     current instant but not yet fired; ascending seq order. Always
     pushed back before anything else looks at the heap. *)
  mutable stash : event list;
  mutable strategy : strategy option;
  rng : Prng.t;
  mutable tracer : Trace.t;
}

(* Fills the heap's unused slots. It is allocated once, so growing the
   heap never copies a young event into a major-heap array (which would
   force a minor collection) and a popped event is not kept alive. *)
let filler =
  {
    at = 0.0;
    seq = -1;
    action = (fun () -> ());
    daemon = true;
    label = anon;
    cancelled = true;
  }

let before (a : event) (b : event) =
  a.at < b.at || (a.at = b.at && a.seq < b.seq)

(* Move the hole at [i] up until [ev] fits. Top level, like [down], so
   that neither allocates a closure. *)
let rec up h ev i =
  if i = 0 then h.(0) <- ev
  else begin
    let parent = (i - 1) / 2 in
    let p = h.(parent) in
    if before ev p then begin
      h.(i) <- p;
      up h ev parent
    end
    else h.(i) <- ev
  end

let push t ev =
  if t.size = Array.length t.heap then begin
    let grown = Array.make (Int.max 16 (2 * t.size)) filler in
    Array.blit t.heap 0 grown 0 t.size;
    t.heap <- grown
  end;
  up t.heap ev t.size;
  t.size <- t.size + 1

(* Move the hole at [i] down until [ev] fits, in a heap of [n] events. *)
let rec down h n ev i =
  let l = (2 * i) + 1 in
  if l >= n then h.(i) <- ev
  else begin
    let c = if l + 1 < n && before h.(l + 1) h.(l) then l + 1 else l in
    let child = h.(c) in
    if before child ev then begin
      h.(i) <- child;
      down h n ev c
    end
    else h.(i) <- ev
  end

(* The earliest event, removed. The heap must not be empty. *)
let pop t =
  let h = t.heap in
  let top = h.(0) in
  let n = t.size - 1 in
  t.size <- n;
  let last = h.(n) in
  h.(n) <- filler;
  if n > 0 then down h n last 0;
  top

let create ?(seed = 1L) () =
  {
    clock = 0.0;
    seq = 0;
    fired = 0;
    live_work = 0;
    queued_live = 0;
    heap = [||];
    size = 0;
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
  let ev = { at; seq = t.seq; action; daemon; label; cancelled = false } in
  push t ev;
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
      List.iter (push t) entries;
      t.stash <- []

(* Discard cancelled tombstones from the top of the heap; their live
   counters were adjusted at cancel time. *)
let rec drop_tombstones t =
  if t.size > 0 && t.heap.(0).cancelled then begin
    ignore (pop t);
    drop_tombstones t
  end

let candidate (ev : event) =
  { c_seq = ev.seq; c_at = ev.at; c_daemon = ev.daemon; c_label = ev.label }

(* Pop every non-cancelled event scheduled for the earliest queued
   instant into the stash (ascending seq). *)
let gather t =
  restash t;
  drop_tombstones t;
  if t.size = 0 then [||]
  else begin
    let at = t.heap.(0).at in
    let rec collect acc =
      if t.size > 0 && t.heap.(0).at = at then begin
        let ev = pop t in
        collect (if ev.cancelled then acc else ev :: acc)
      end
      else List.rev acc
    in
    let entries = collect [] in
    t.stash <- entries;
    Array.of_list (List.map candidate entries)
  end

let enabled t =
  let cands = gather t in
  restash t;
  cands

let queued t =
  let live =
    List.filter
      (fun ev -> not ev.cancelled)
      (t.stash @ Array.to_list (Array.sub t.heap 0 t.size))
  in
  let order (a : event) (b : event) =
    let c = Float.compare a.at b.at in
    if c <> 0 then c else Int.compare a.seq b.seq
  in
  Array.of_list (List.map candidate (List.sort order live))

let fire_event t ev =
  (* [run ~until] may already have advanced the clock past a stale
     daemon event's timestamp; never move time backwards. *)
  t.clock <- Float.max t.clock ev.at;
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
  let chosen, rest = List.partition (fun (ev : event) -> ev.seq = seq) t.stash in
  t.stash <- rest;
  restash t;
  match chosen with
  | [ ev ] -> fire_event t ev
  | _ -> invalid_arg "Engine: strategy chose an event that is not enabled"

let step t =
  match t.strategy with
  | None ->
      restash t;
      if t.size = 0 then false
      else begin
        ignore (fire_event t (pop t));
        true
      end
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

let run ?until ?(max_events = 50_000_000) t =
  let budget = ref max_events in
  let continue = ref true in
  restash t;
  while !continue && !budget > 0 do
    if t.live_work = 0 then continue := false
    else
      match (t.strategy, until) with
      | None, None ->
          (* The common case: pop and fire in one step. A tombstone is
             dropped without touching the clock or the budget. *)
          if t.size = 0 then continue := false
          else begin
            let ev = pop t in
            if not ev.cancelled then begin
              ignore (fire_event t ev);
              decr budget
            end
          end
      | _ ->
          (* Check the horizon against the next event that will actually
             fire, past any tombstones. *)
          restash t;
          drop_tombstones t;
          if t.size = 0 then continue := false
          else begin
            match until with
            | Some horizon when t.heap.(0).at > horizon -> continue := false
            | _ ->
                ignore (step t);
                decr budget
          end
  done;
  if !budget = 0 then failwith "Engine.run: event budget exhausted";
  (* A horizon stop leaves [now] at the requested end time, so callers
     measuring elapsed virtual time see the full interval they asked for. *)
  match until with
  | Some horizon when t.clock < horizon -> t.clock <- horizon
  | _ -> ()

let pending t = t.size + List.length t.stash

let live_pending t = t.queued_live

let live_work t = t.live_work

let events_fired t = t.fired
