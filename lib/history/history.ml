module Ftvc = Optimist_clock.Ftvc

type kind = Token | Message

type record = { kind : kind; ver : int; ts : int }

(* One array per peer process, holding its records in increasing version
   order. The paper stores "a record for every known version of all
   processes"; versions are few (O(f)) and a lookup almost always asks for
   the newest one, so a scan from the high end finds it in a step or two,
   with no hashing. A record is replaced in place; a version not seen
   before goes into a new array one longer. Versions arrive from peers, so
   they are compared, never used as indices or sizes. *)
type t = { me : int; peers : record array array }

let create ~n ~me =
  if n <= 0 || me < 0 || me >= n then invalid_arg "History.create";
  let peers =
    Array.init n (fun j ->
        [| { kind = Message; ver = 0; ts = (if j = me then 1 else 0) } |])
  in
  { me; peers }

let copy t = { t with peers = Array.map Array.copy t.peers }

let n t = Array.length t.peers

let me t = t.me

(* Index of the last record of [recs.(0..i)] whose version is at most
   [ver], or -1. Top level, so the hot paths below allocate neither a
   closure nor an option. *)
let rec last_at_most recs ver i =
  if i < 0 || recs.(i).ver <= ver then i else last_at_most recs ver (i - 1)

(* Index of the record for [ver] in [recs], or -1. *)
let index recs ver =
  let i = last_at_most recs ver (Array.length recs - 1) in
  if i >= 0 && recs.(i).ver = ver then i else -1

let find t ~pid ~ver =
  let recs = t.peers.(pid) in
  let i = index recs ver in
  if i < 0 then None else Some recs.(i)

(* Install [r] for its version: in place if the version is known,
   otherwise in a new array one longer, keeping the version order. *)
let set t ~pid r =
  let recs = t.peers.(pid) in
  let len = Array.length recs in
  let i = last_at_most recs r.ver (len - 1) in
  if i >= 0 && recs.(i).ver = r.ver then recs.(i) <- r
  else begin
    let grown = Array.make (len + 1) r in
    Array.blit recs 0 grown 0 (i + 1);
    Array.blit recs (i + 1) grown (i + 2) (len - i - 1);
    t.peers.(pid) <- grown
  end

let note_message_entry t ~pid (e : Ftvc.entry) =
  let recs = t.peers.(pid) in
  let i = index recs e.ver in
  if i < 0 then set t ~pid { kind = Message; ver = e.ver; ts = e.ts }
  else
    match recs.(i) with
    | { kind = Token; _ } ->
        (* Token records are authoritative; the message either passed the
           obsolete test (its ts is within the surviving prefix) or was
           discarded before reaching here. Either way it adds nothing. *)
        ()
    | { kind = Message; ts; _ } ->
        if ts < e.ts then recs.(i) <- { kind = Message; ver = e.ver; ts = e.ts }

let note_clock t ~sender_clock =
  for pid = 0 to Array.length sender_clock - 1 do
    note_message_entry t ~pid sender_clock.(pid)
  done

let note_token t ~pid ~ver ~ts = set t ~pid { kind = Token; ver; ts }

let has_token t ~pid ~ver =
  let recs = t.peers.(pid) in
  let i = index recs ver in
  i >= 0 && match recs.(i) with { kind = Token; _ } -> true | _ -> false

let rec tokens_from t ~pid ~ver l =
  l >= ver || (has_token t ~pid ~ver:l && tokens_from t ~pid ~ver (l + 1))

let tokens_complete_below t ~pid ~ver = tokens_from t ~pid ~ver 0

(* Lemma 4 over the clock entries from [j] on. *)
let rec obsolete_from t (clock : Ftvc.entry array) j =
  j < Array.length clock
  &&
  let e = clock.(j) in
  let recs = t.peers.(j) in
  let i = index recs e.ver in
  (i >= 0
  && match recs.(i) with { kind = Token; ts; _ } -> ts < e.ts | _ -> false)
  || obsolete_from t clock (j + 1)

let message_obsolete t ~clock = obsolete_from t clock 0

let orphaned_by_token t ~pid ~ver ~ts =
  let recs = t.peers.(pid) in
  let i = index recs ver in
  i >= 0
  && match recs.(i) with { kind = Message; ts = ts'; _ } -> ts < ts' | _ -> false

let survives_token t ~pid ~ver ~ts = not (orphaned_by_token t ~pid ~ver ~ts)

let max_known_version t ~pid =
  let recs = t.peers.(pid) in
  max 0 recs.(Array.length recs - 1).ver

let record_count t =
  Array.fold_left (fun acc recs -> acc + Array.length recs) 0 t.peers

let records t ~pid = Array.to_list t.peers.(pid)

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
