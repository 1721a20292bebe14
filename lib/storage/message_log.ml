module Counters = Optimist_util.Stats.Counters

type 'entry t = {
  mutable stable : 'entry array;
  (* Number of live entries in [stable]; the array over-allocates. *)
  mutable stable_len : int;
  mutable volatile : 'entry list; (* newest first *)
  mutable volatile_len : int;
  mutable floor : int; (* first readable index, raised by GC *)
  counters : Counters.t;
  appends : Counters.counter; (* resolved once: every delivery appends *)
}

let of_stable entries =
  let counters = Counters.create () in
  {
    stable = Array.copy entries;
    stable_len = Array.length entries;
    volatile = [];
    volatile_len = 0;
    floor = 0;
    counters;
    appends = Counters.counter counters "appends";
  }

let create () = of_stable [||]

let append t entry =
  Counters.bump t.appends;
  t.volatile <- entry :: t.volatile;
  t.volatile_len <- t.volatile_len + 1

let ensure_capacity t extra =
  let needed = t.stable_len + extra in
  if Array.length t.stable < needed then begin
    let capacity = max 16 (max needed (2 * Array.length t.stable)) in
    (* Entries below stable_len are the only ones ever read. *)
    let seed = if t.stable_len > 0 then t.stable.(0) else List.hd t.volatile in
    let data = Array.make capacity seed in
    Array.blit t.stable 0 data 0 t.stable_len;
    t.stable <- data
  end

let flush t =
  Counters.incr t.counters "flushes";
  if t.volatile_len > 0 then begin
    Counters.incr ~by:t.volatile_len t.counters "flushed_entries";
    ensure_capacity t t.volatile_len;
    let entries = List.rev t.volatile in
    List.iter
      (fun e ->
        t.stable.(t.stable_len) <- e;
        t.stable_len <- t.stable_len + 1)
      entries;
    t.volatile <- [];
    t.volatile_len <- 0
  end

let crash t =
  Counters.incr t.counters "crashes";
  Counters.incr ~by:t.volatile_len t.counters "lost_entries";
  t.volatile <- [];
  t.volatile_len <- 0

let stable_length t = t.stable_len

let total_length t = t.stable_len + t.volatile_len

let get t i =
  if i < t.floor || i >= total_length t then
    invalid_arg (Printf.sprintf "Message_log.get: index %d out of range" i);
  if i < t.stable_len then t.stable.(i)
  else
    (* Volatile list is newest-first. *)
    List.nth t.volatile (total_length t - 1 - i)

let iter_range t ~from ~until f =
  for i = from to until - 1 do
    f (get t i)
  done

let truncate t k =
  if k < t.floor then invalid_arg "Message_log.truncate: below GC floor";
  if k < t.stable_len then begin
    t.stable_len <- k;
    t.volatile <- [];
    t.volatile_len <- 0
  end
  else begin
    let keep_volatile = k - t.stable_len in
    if keep_volatile < t.volatile_len then begin
      (* Keep the oldest [keep_volatile] volatile entries. *)
      let entries = List.rev t.volatile in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      t.volatile <- List.rev (take keep_volatile entries);
      t.volatile_len <- keep_volatile
    end
  end

let gc_prefix t k =
  if k > t.floor then t.floor <- min k t.stable_len

let gc_floor t = t.floor

let counters t = t.counters
