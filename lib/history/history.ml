module Ftvc = Optimist_clock.Ftvc

type kind = Token | Message

type record = { kind : kind; ver : int; ts : int }

(* One int array per peer process, holding its records as pairs
   [(ver, ts * 2 + token bit)] in increasing version order. The paper
   stores "a record for every known version of all processes"; versions
   are few (O(f)) and a lookup almost always asks for the newest one, so a
   scan from the high end finds it in a step or two, with no hashing. A
   record is updated in place, so noting a newer timestamp allocates
   nothing; a version not seen before goes into a new array one pair
   longer. Versions arrive from peers, so they are compared, never used as
   indices or sizes.

   Every comparison below is on ints the signatures name: an unannotated
   one can compile to the polymorphic compare, which costs a C call per
   record. *)
type t = { me : int; peers : int array array }

let token_bit = 1

let word ~(ts : int) ~(token : bool) =
  (ts lsl 1) lor if token then token_bit else 0

let is_token (w : int) = w land token_bit <> 0

let ts_of (w : int) = w asr 1

let create ~n ~me =
  if n <= 0 || me < 0 || me >= n then invalid_arg "History.create";
  let peers =
    Array.init n (fun j ->
        [| 0; word ~ts:(if j = me then 1 else 0) ~token:false |])
  in
  { me; peers }

(* The peer arrays hold ints only, so this is a deep copy. *)
let copy t = { t with peers = Array.map Array.copy t.peers }

let n t = Array.length t.peers

let me t = t.me

(* Index of the last record of [recs]'s records [0..i] whose version is
   at most [ver], or -1. Top level, so the hot paths below allocate
   neither a closure nor an option. *)
let rec last_at_most (recs : int array) (ver : int) (i : int) : int =
  if i < 0 || recs.(2 * i) <= ver then i else last_at_most recs ver (i - 1)

(* Index of the record for [ver] in [recs], or -1. *)
let index (recs : int array) (ver : int) : int =
  let i = last_at_most recs ver ((Array.length recs / 2) - 1) in
  if i >= 0 && recs.(2 * i) = ver then i else -1

let record_at (recs : int array) i =
  let w = recs.((2 * i) + 1) in
  { kind = (if is_token w then Token else Message); ver = recs.(2 * i); ts = ts_of w }

let find t ~pid ~ver =
  let recs = t.peers.(pid) in
  let i = index recs ver in
  if i < 0 then None else Some (record_at recs i)

(* Install [(ver, w)]: in place if the version is known, otherwise in a
   new array one pair longer, keeping the version order. *)
let set t ~pid ~(ver : int) (w : int) =
  let recs = t.peers.(pid) in
  let len = Array.length recs in
  let i = last_at_most recs ver ((len / 2) - 1) in
  if i >= 0 && recs.(2 * i) = ver then recs.((2 * i) + 1) <- w
  else begin
    let at = 2 * (i + 1) in
    let grown = Array.make (len + 2) 0 in
    Array.blit recs 0 grown 0 at;
    grown.(at) <- ver;
    grown.(at + 1) <- w;
    Array.blit recs at grown (at + 2) (len - at);
    t.peers.(pid) <- grown
  end

let note_message_entry t ~pid (e : Ftvc.entry) =
  let recs = t.peers.(pid) in
  let i = index recs e.ver in
  if i < 0 then set t ~pid ~ver:e.ver (word ~ts:e.ts ~token:false)
  else
    let w = recs.((2 * i) + 1) in
    (* Token records are authoritative; the message either passed the
       obsolete test (its ts is within the surviving prefix) or was
       discarded before reaching here. Either way it adds nothing. *)
    if (not (is_token w)) && ts_of w < e.ts then
      recs.((2 * i) + 1) <- word ~ts:e.ts ~token:false

let note_clock t ~sender_clock =
  for pid = 0 to Array.length sender_clock - 1 do
    note_message_entry t ~pid sender_clock.(pid)
  done

let note_token t ~pid ~ver ~ts = set t ~pid ~ver (word ~ts ~token:true)

let has_token t ~pid ~ver =
  let recs = t.peers.(pid) in
  let i = index recs ver in
  i >= 0 && is_token recs.((2 * i) + 1)

let rec tokens_from t ~pid ~(ver : int) (l : int) =
  l >= ver || (has_token t ~pid ~ver:l && tokens_from t ~pid ~ver (l + 1))

let tokens_complete_below t ~pid ~ver = tokens_from t ~pid ~ver 0

(* Lemma 4 at one clock entry: a token record for its version with a
   smaller timestamp. *)
let obsolete_entry t j (e : Ftvc.entry) =
  let recs = t.peers.(j) in
  let i = index recs e.ver in
  i >= 0
  &&
  let w = recs.((2 * i) + 1) in
  is_token w && ts_of w < e.ts

let rec obsolete_from t (clock : Ftvc.entry array) j =
  j < Array.length clock
  && (obsolete_entry t j clock.(j) || obsolete_from t clock (j + 1))

let message_obsolete t ~clock = obsolete_from t clock 0

(* Section 6.1 over the clock entries from [j] on. *)
let rec deliverable_from t (clock : Ftvc.entry array) j =
  j >= Array.length clock
  || tokens_complete_below t ~pid:j ~ver:clock.(j).Ftvc.ver
     && deliverable_from t clock (j + 1)

let deliverable t ~clock = deliverable_from t clock 0

type verdict = Deliver | Obsolete | Hold

(* Both tests in one walk of the clock. Obsolete wins over hold, so the
   walk goes on after an undeliverable entry; [held] records one was
   seen, and once it is set the deliverability test is skipped. *)
let rec verdict_from t (clock : Ftvc.entry array) hold held j =
  if j >= Array.length clock then if held then Hold else Deliver
  else
    let e = clock.(j) in
    if obsolete_entry t j e then Obsolete
    else
      verdict_from t clock hold
        (held || (hold && not (tokens_complete_below t ~pid:j ~ver:e.ver)))
        (j + 1)

let classify t ~clock ~hold = verdict_from t clock hold false 0

let orphaned_by_token t ~pid ~ver ~(ts : int) =
  let recs = t.peers.(pid) in
  let i = index recs ver in
  i >= 0
  &&
  let w = recs.((2 * i) + 1) in
  (not (is_token w)) && ts < ts_of w

let survives_token t ~pid ~ver ~ts = not (orphaned_by_token t ~pid ~ver ~ts)

let max_known_version t ~pid =
  let recs = t.peers.(pid) in
  Int.max 0 recs.(Array.length recs - 2)

let record_count t =
  Array.fold_left (fun acc recs -> acc + (Array.length recs / 2)) 0 t.peers

let records t ~pid =
  let recs = t.peers.(pid) in
  List.init (Array.length recs / 2) (record_at recs)

(* Record for record: the same versions with the same words. Top level,
   so a comparison allocates no closure. *)
let rec same_from (x : int array) (y : int array) (i : int) =
  i >= Array.length x || (x.(i) = y.(i) && same_from x y (i + 1))

let rec peers_from (a : int array array) (b : int array array) (j : int) =
  j >= Array.length a
  || Array.length a.(j) = Array.length b.(j)
     && same_from a.(j) b.(j) 0
     && peers_from a b (j + 1)

let equal a b =
  a.me = b.me
  && Array.length a.peers = Array.length b.peers
  && peers_from a.peers b.peers 0

let pp ppf t =
  let pp_record ppf r =
    Format.fprintf ppf "(%s,%d,%d)"
      (match r.kind with Token -> "t" | Message -> "m")
      r.ver r.ts
  in
  Array.iteri
    (fun pid _ ->
      Format.fprintf ppf "@[P%d: %a@]@\n" pid
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
           pp_record)
        (records t ~pid))
    t.peers
