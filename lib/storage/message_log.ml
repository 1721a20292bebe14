module Counters = Optimist_util.Stats.Counters

(* One array holds the whole log: [floor, stable) is the stable prefix,
   [stable, total) the volatile suffix. A flush moves the [stable] mark; a
   crash or a truncation clears the slots it cuts, and a GC the slots
   below the new floor, so the log never keeps a discarded entry alive.
   [keys] holds the key of every entry in [0, total) that has one, GC'd
   entries included: it changes only where the entries do. *)
type 'entry t = {
  mutable slots : 'entry array;
  mutable stable : int;
  mutable total : int;
  mutable floor : int; (* first readable index, raised by GC *)
  key : 'entry -> int; (* negative: the entry has no key *)
  keys : Int_multiset.t;
  counters : Counters.t;
  appends : Counters.counter; (* resolved once: every delivery appends *)
}

(* What a slot outside [floor, total) holds. It is an immediate, so no
   entry stays reachable through it, and an array made from it is never
   a flat float array (entries are only ever stored one by one, never
   blitted from the caller's array); [get] never returns it. *)
let hole () : 'entry = Obj.magic 0

let no_key _ = -1

let add_key t e =
  let k = t.key e in
  if k >= 0 then Int_multiset.add t.keys k

let of_stable ?(key = no_key) entries =
  let counters = Counters.create () in
  let len = Array.length entries in
  let t =
    {
      slots = Array.make len (hole ());
      stable = len;
      total = len;
      floor = 0;
      key;
      (* Sized so the live run doubles the log before the table grows. *)
      keys = Int_multiset.create ~capacity:(2 * len) ();
      counters;
      appends = Counters.counter counters "appends";
    }
  in
  Array.iteri
    (fun i e ->
      t.slots.(i) <- e;
      add_key t e)
    entries;
  t

let create ?key () = of_stable ?key [||]

let append t entry =
  Counters.bump t.appends;
  if t.total = Array.length t.slots then begin
    let slots = Array.make (max 16 (2 * t.total)) (hole ()) in
    Array.blit t.slots t.floor slots t.floor (t.total - t.floor);
    t.slots <- slots
  end;
  t.slots.(t.total) <- entry;
  t.total <- t.total + 1;
  add_key t entry

let flush t =
  Counters.incr t.counters "flushes";
  if t.total > t.stable then begin
    Counters.incr ~by:(t.total - t.stable) t.counters "flushed_entries";
    t.stable <- t.total
  end

(* Drop entries [k, total): their keys leave the filter. *)
let cut t k =
  for i = k to t.total - 1 do
    let k = t.key t.slots.(i) in
    if k >= 0 then Int_multiset.remove t.keys k;
    t.slots.(i) <- hole ()
  done;
  t.total <- k;
  if t.stable > k then t.stable <- k

let crash t =
  Counters.incr t.counters "crashes";
  Counters.incr ~by:(t.total - t.stable) t.counters "lost_entries";
  cut t t.stable

let stable_length t = t.stable

let total_length t = t.total

let get t i =
  if i < t.floor || i >= t.total then
    invalid_arg (Printf.sprintf "Message_log.get: index %d out of range" i);
  t.slots.(i)

let iter_range t ~from ~until f =
  for i = from to until - 1 do
    f (get t i)
  done

let range t ~from ~until =
  if from < t.floor || until > t.total then
    invalid_arg "Message_log.range: out of range";
  let rec back i acc = if i < from then acc else back (i - 1) (t.slots.(i) :: acc) in
  back (until - 1) []

let truncate t k =
  if k < t.floor then invalid_arg "Message_log.truncate: below GC floor";
  if k < t.total then cut t k

let gc_prefix t k =
  let k = min k t.stable in
  if k > t.floor then begin
    Array.fill t.slots t.floor (k - t.floor) (hole ());
    t.floor <- k
  end

let gc_floor t = t.floor

let mem_key t k = Int_multiset.mem t.keys k

let counters t = t.counters
