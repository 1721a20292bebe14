(* Tests of the history mechanism (paper Section 5, Figure 3): record
   maintenance, the Lemma 3 orphan test and the Lemma 4 obsolete test. *)

module History = Optimist_history.History
module Ftvc = Optimist_clock.Ftvc

let entry ver ts = { Ftvc.ver; ts }

let test_init () =
  (* Figure 3: (mes,0,0) for every process, (mes,0,1) for the owner. *)
  let h = History.create ~n:3 ~me:1 in
  (match History.find h ~pid:0 ~ver:0 with
  | Some { History.kind = History.Message; ts = 0; _ } -> ()
  | _ -> Alcotest.fail "peer init record");
  (match History.find h ~pid:1 ~ver:0 with
  | Some { History.kind = History.Message; ts = 1; _ } -> ()
  | _ -> Alcotest.fail "own init record");
  Alcotest.(check int) "n records" 3 (History.record_count h)

let test_message_records_keep_max () =
  let h = History.create ~n:2 ~me:0 in
  History.note_message_entry h ~pid:1 (entry 0 5);
  History.note_message_entry h ~pid:1 (entry 0 3);
  (match History.find h ~pid:1 ~ver:0 with
  | Some { History.ts = 5; kind = History.Message; _ } -> ()
  | _ -> Alcotest.fail "max kept");
  History.note_message_entry h ~pid:1 (entry 0 9);
  (match History.find h ~pid:1 ~ver:0 with
  | Some { History.ts = 9; _ } -> ()
  | _ -> Alcotest.fail "raised to 9")

let test_one_record_per_version () =
  let h = History.create ~n:2 ~me:0 in
  History.note_message_entry h ~pid:1 (entry 1 2);
  History.note_message_entry h ~pid:1 (entry 1 7);
  History.note_message_entry h ~pid:1 (entry 2 1);
  Alcotest.(check int) "records for P1"
    3 (* version 0 init + versions 1 and 2 *)
    (List.length (History.records h ~pid:1))

let test_token_is_authoritative () =
  (* The prose rule of Section 5: once a token record exists for a version,
     message records never replace it. *)
  let h = History.create ~n:2 ~me:0 in
  History.note_token h ~pid:1 ~ver:0 ~ts:4;
  History.note_message_entry h ~pid:1 (entry 0 3);
  (match History.find h ~pid:1 ~ver:0 with
  | Some { History.kind = History.Token; ts = 4; _ } -> ()
  | _ -> Alcotest.fail "token must survive message updates");
  Alcotest.(check bool) "has_token" true (History.has_token h ~pid:1 ~ver:0)

let test_token_replaces_message () =
  let h = History.create ~n:2 ~me:0 in
  History.note_message_entry h ~pid:1 (entry 0 9);
  History.note_token h ~pid:1 ~ver:0 ~ts:4;
  (match History.find h ~pid:1 ~ver:0 with
  | Some { History.kind = History.Token; ts = 4; _ } -> ()
  | _ -> Alcotest.fail "token replaces message record")

(* --- Lemma 4: obsolete-message test --- *)

let test_obsolete_detection () =
  let h = History.create ~n:3 ~me:0 in
  History.note_token h ~pid:1 ~ver:0 ~ts:3;
  (* Message depending on P1's state (0,4): past the restoration point. *)
  Alcotest.(check bool) "obsolete" true
    (History.message_obsolete h ~clock:[| entry 0 0; entry 0 4; entry 0 0 |]);
  (* (0,3) is the restored state itself: still valid. *)
  Alcotest.(check bool) "boundary survives" false
    (History.message_obsolete h ~clock:[| entry 0 0; entry 0 3; entry 0 0 |]);
  (* A later incarnation is not matched by the version-0 token. *)
  Alcotest.(check bool) "new incarnation ok" false
    (History.message_obsolete h ~clock:[| entry 0 0; entry 1 1; entry 0 0 |])

let test_obsolete_needs_token () =
  let h = History.create ~n:2 ~me:0 in
  History.note_message_entry h ~pid:1 (entry 0 2);
  (* No token: no message can be declared obsolete. *)
  Alcotest.(check bool) "no token, not obsolete" false
    (History.message_obsolete h ~clock:[| entry 0 0; entry 0 99 |])

(* --- Lemma 3: orphan test --- *)

let test_orphan_detection () =
  let h = History.create ~n:2 ~me:0 in
  History.note_message_entry h ~pid:1 (entry 0 5);
  (* Token (0,3): we know P1's (0,5), which is lost. *)
  Alcotest.(check bool) "orphan" true
    (History.orphaned_by_token h ~pid:1 ~ver:0 ~ts:3);
  (* Token (0,5): our knowledge is exactly the restored state. *)
  Alcotest.(check bool) "boundary not orphan" false
    (History.orphaned_by_token h ~pid:1 ~ver:0 ~ts:5);
  Alcotest.(check bool) "survives_token is the negation" true
    (History.survives_token h ~pid:1 ~ver:0 ~ts:5)

let test_orphan_needs_message_record () =
  let h = History.create ~n:2 ~me:0 in
  History.note_token h ~pid:1 ~ver:1 ~ts:9;
  (* A token record for the version does not make us orphan. *)
  Alcotest.(check bool) "token record is not a dependency" false
    (History.orphaned_by_token h ~pid:1 ~ver:1 ~ts:2)

(* --- deliverability (Section 6.1) --- *)

let test_tokens_complete_below () =
  let h = History.create ~n:2 ~me:0 in
  Alcotest.(check bool) "version 0 needs nothing" true
    (History.tokens_complete_below h ~pid:1 ~ver:0);
  Alcotest.(check bool) "version 2 needs tokens 0,1" false
    (History.tokens_complete_below h ~pid:1 ~ver:2);
  History.note_token h ~pid:1 ~ver:0 ~ts:3;
  Alcotest.(check bool) "still missing token 1" false
    (History.tokens_complete_below h ~pid:1 ~ver:2);
  History.note_token h ~pid:1 ~ver:1 ~ts:7;
  Alcotest.(check bool) "complete" true
    (History.tokens_complete_below h ~pid:1 ~ver:2)

let test_note_clock_all_components () =
  let h = History.create ~n:3 ~me:0 in
  History.note_clock h ~sender_clock:[| entry 0 4; entry 1 2; entry 0 7 |];
  (match History.find h ~pid:1 ~ver:1 with
  | Some { History.ts = 2; _ } -> ()
  | _ -> Alcotest.fail "P1 component noted");
  (match History.find h ~pid:2 ~ver:0 with
  | Some { History.ts = 7; _ } -> ()
  | _ -> Alcotest.fail "P2 component noted")

let test_max_known_version () =
  let h = History.create ~n:2 ~me:0 in
  Alcotest.(check int) "initial" 0 (History.max_known_version h ~pid:1);
  History.note_message_entry h ~pid:1 (entry 3 1);
  Alcotest.(check int) "after message" 3 (History.max_known_version h ~pid:1)

(* --- property: record count is bounded by distinct versions (the
   Section 6.9(3) O(n·f) memory claim) --- *)

let prop_record_count_bounded =
  QCheck.Test.make ~name:"record count bounded by distinct (pid,ver)" ~count:300
    QCheck.(list_of_size Gen.(0 -- 60) (triple (int_bound 2) (int_bound 3) (int_bound 30)))
    (fun ops ->
      let n = 4 in
      let h = History.create ~n ~me:0 in
      let seen = Hashtbl.create 16 in
      for pid = 0 to n - 1 do
        Hashtbl.replace seen (pid, 0) ()
      done;
      List.iter
        (fun (pid, ver, ts) ->
          let pid = pid + 1 in
          Hashtbl.replace seen (pid, ver) ();
          if ts mod 2 = 0 then History.note_message_entry h ~pid (entry ver ts)
          else History.note_token h ~pid ~ver ~ts)
        ops;
      History.record_count h <= Hashtbl.length seen)

(* --- property: message timestamps never decrease a record, and a token
   freezes it --- *)

let prop_token_freezes =
  QCheck.Test.make ~name:"token record survives any later message" ~count:300
    QCheck.(pair (int_bound 50) (list_of_size Gen.(0 -- 30) (int_bound 100)))
    (fun (token_ts, msg_ts) ->
      let h = History.create ~n:2 ~me:0 in
      History.note_token h ~pid:1 ~ver:2 ~ts:token_ts;
      List.iter (fun ts -> History.note_message_entry h ~pid:1 (entry 2 ts)) msg_ts;
      match History.find h ~pid:1 ~ver:2 with
      | Some { History.kind = History.Token; ts; _ } -> ts = token_ts
      | _ -> false)

(* --- property: History answers every query as a hash table per peer
   does --- *)

(* The reference model: one hash table per peer, keyed by version. *)
module Model = struct
  type t = (int, History.record) Hashtbl.t array

  let create ~n ~me : t =
    Array.init n (fun j ->
        let tbl = Hashtbl.create 4 in
        Hashtbl.replace tbl 0
          { History.kind = History.Message; ver = 0; ts = (if j = me then 1 else 0) };
        tbl)

  let copy (t : t) : t = Array.map Hashtbl.copy t

  let find (t : t) ~pid ~ver = Hashtbl.find_opt t.(pid) ver

  let note_message_entry t ~pid (e : Ftvc.entry) =
    match find t ~pid ~ver:e.ver with
    | Some { History.kind = History.Token; _ } -> ()
    | Some { History.kind = History.Message; ts; _ } when ts >= e.ts -> ()
    | Some _ | None ->
        Hashtbl.replace t.(pid) e.ver
          { History.kind = History.Message; ver = e.ver; ts = e.ts }

  let note_token (t : t) ~pid ~ver ~ts =
    Hashtbl.replace t.(pid) ver { History.kind = History.Token; ver; ts }

  let has_token t ~pid ~ver =
    match find t ~pid ~ver with
    | Some { History.kind = History.Token; _ } -> true
    | _ -> false

  let tokens_complete_below t ~pid ~ver =
    List.for_all (fun l -> has_token t ~pid ~ver:l) (List.init ver Fun.id)

  let message_obsolete t ~(clock : Ftvc.entry array) =
    Array.exists Fun.id
      (Array.mapi
         (fun j (e : Ftvc.entry) ->
           match find t ~pid:j ~ver:e.ver with
           | Some { History.kind = History.Token; ts; _ } -> ts < e.ts
           | _ -> false)
         clock)

  let orphaned_by_token t ~pid ~ver ~ts =
    match find t ~pid ~ver with
    | Some { History.kind = History.Message; ts = ts'; _ } -> ts < ts'
    | _ -> false

  let max_known_version (t : t) ~pid =
    Hashtbl.fold (fun ver _ acc -> max ver acc) t.(pid) 0

  let record_count (t : t) =
    Array.fold_left (fun acc tbl -> acc + Hashtbl.length tbl) 0 t

  let records (t : t) ~pid =
    Hashtbl.fold (fun _ r acc -> r :: acc) t.(pid) []
    |> List.sort (fun (a : History.record) b -> compare a.ver b.ver)
end

type op =
  | Note_clock of Ftvc.entry array  (** a received message's whole clock *)
  | Note_entry of int * Ftvc.entry
  | Note_token of int * int * int  (** pid, version, timestamp *)
  | Ask_obsolete of Ftvc.entry array  (** a Lemma 4 query *)
  | Ask_orphan of int * int * int  (** a Lemma 3 query *)

let max_ver = 4

let op_gen n =
  let open QCheck.Gen in
  let pid = int_bound (n - 1) and ver = int_bound max_ver and ts = int_bound 12 in
  let clock = array_repeat n (map2 entry ver ts) in
  frequency
    [
      (3, map (fun c -> Note_clock c) clock);
      (2, map3 (fun p v t -> Note_entry (p, entry v t)) pid ver ts);
      (2, map3 (fun p v t -> Note_token (p, v, t)) pid ver ts);
      (2, map (fun c -> Ask_obsolete c) clock);
      (2, map3 (fun p v t -> Ask_orphan (p, v, t)) pid ver ts);
    ]

let pp_op = function
  | Note_clock c -> Format.asprintf "clock %a" Ftvc.pp (Ftvc.of_entries ~me:0 c)
  | Note_entry (p, e) -> Printf.sprintf "entry P%d (%d,%d)" p e.ver e.ts
  | Note_token (p, v, t) -> Printf.sprintf "token P%d (%d,%d)" p v t
  | Ask_obsolete c ->
      Format.asprintf "obsolete? %a" Ftvc.pp (Ftvc.of_entries ~me:0 c)
  | Ask_orphan (p, v, t) -> Printf.sprintf "orphan? P%d (%d,%d)" p v t

(* Applies [op] to both; a query must get the same answer from both. *)
let step h m op =
  match op with
  | Note_clock c ->
      History.note_clock h ~sender_clock:c;
      Array.iteri (fun pid e -> Model.note_message_entry m ~pid e) c;
      true
  | Note_entry (pid, e) ->
      History.note_message_entry h ~pid e;
      Model.note_message_entry m ~pid e;
      true
  | Note_token (pid, ver, ts) ->
      History.note_token h ~pid ~ver ~ts;
      Model.note_token m ~pid ~ver ~ts;
      true
  | Ask_obsolete clock ->
      (* The receive path's one-walk verdict, against Lemma 4 and
         Section 6.1 taken one after the other. *)
      let obsolete = Model.message_obsolete m ~clock in
      let deliverable =
        Array.for_all Fun.id
          (Array.mapi
             (fun pid (e : Ftvc.entry) ->
               Model.tokens_complete_below m ~pid ~ver:e.ver)
             clock)
      in
      History.message_obsolete h ~clock = obsolete
      && History.deliverable h ~clock = deliverable
      && List.for_all
           (fun hold ->
             History.classify h ~clock ~hold
             =
             if obsolete then History.Obsolete
             else if hold && not deliverable then History.Hold
             else History.Deliver)
           [ true; false ]
  | Ask_orphan (pid, ver, ts) ->
      History.orphaned_by_token h ~pid ~ver ~ts
      = Model.orphaned_by_token m ~pid ~ver ~ts
      && History.survives_token h ~pid ~ver ~ts
         = not (Model.orphaned_by_token m ~pid ~ver ~ts)

(* Every per-record query, over every pid and every version up to one
   past the generated ones. *)
let agree h m =
  let n = History.n h in
  History.record_count h = Model.record_count m
  && List.for_all
       (fun pid ->
         History.records h ~pid = Model.records m ~pid
         && History.max_known_version h ~pid = Model.max_known_version m ~pid
         && List.for_all
              (fun ver ->
                History.find h ~pid ~ver = Model.find m ~pid ~ver
                && History.has_token h ~pid ~ver = Model.has_token m ~pid ~ver
                && History.tokens_complete_below h ~pid ~ver
                   = Model.tokens_complete_below m ~pid ~ver)
              (List.init (max_ver + 2) Fun.id))
       (List.init n Fun.id)

(* Three op sequences: the first builds a history, then a copy is taken;
   the second goes to the original and the third to the copy. Both must
   keep matching their own model, so neither write reaches the other. *)
let prop_matches_model =
  let gen =
    let open QCheck.Gen in
    int_range 1 4 >>= fun n ->
    int_bound (n - 1) >>= fun me ->
    let ops = list_size (0 -- 25) (op_gen n) in
    map3 (fun a b c -> (n, me, a, b, c)) ops ops ops
  in
  let print (n, me, a, b, c) =
    let ops l = String.concat "; " (List.map pp_op l) in
    Printf.sprintf "n=%d me=%d\nbuild: %s\noriginal: %s\ncopy: %s" n me
      (ops a) (ops b) (ops c)
  in
  QCheck.Test.make ~name:"history arrays match the hash-table model"
    ~count:500 (QCheck.make ~print gen) (fun (n, me, build, orig, cpy) ->
      let h = History.create ~n ~me and m = Model.create ~n ~me in
      let run h m ops = List.for_all (step h m) ops && agree h m in
      run h m build
      &&
      let hc = History.copy h and mc = Model.copy m in
      run h m orig && run hc mc cpy && agree h m)

let show h ~pid =
  List.map
    (fun (r : History.record) ->
      Printf.sprintf "%s%d:%d"
        (match r.kind with History.Token -> "t" | History.Message -> "m")
        r.ver r.ts)
    (History.records h ~pid)

let test_copy_isolated () =
  (* Updates in place and insertions of new versions, in each direction:
     a copy that shared a peer's array would see the other's writes. *)
  let h = History.create ~n:2 ~me:0 in
  History.note_message_entry h ~pid:1 (entry 0 5);
  History.note_message_entry h ~pid:1 (entry 2 3);
  let c = History.copy h in
  History.note_message_entry h ~pid:1 (entry 0 9);
  History.note_token h ~pid:1 ~ver:1 ~ts:4;
  Alcotest.(check (list string))
    "original's writes stay out of the copy"
    [ "m0:5"; "m2:3" ]
    (show c ~pid:1);
  History.note_token c ~pid:1 ~ver:2 ~ts:1;
  History.note_message_entry c ~pid:0 (entry 0 7);
  History.note_message_entry c ~pid:1 (entry 3 1);
  Alcotest.(check (list string))
    "copy's writes stay out of the original"
    [ "m0:9"; "t1:4"; "m2:3" ]
    (show h ~pid:1);
  Alcotest.(check bool) "original's own record" true
    (History.find h ~pid:0 ~ver:0
    = Some { History.kind = History.Message; ver = 0; ts = 1 })

let suite =
  [
    Alcotest.test_case "figure 3 initialisation" `Quick test_init;
    Alcotest.test_case "message records keep max" `Quick
      test_message_records_keep_max;
    Alcotest.test_case "one record per version" `Quick test_one_record_per_version;
    Alcotest.test_case "token is authoritative" `Quick test_token_is_authoritative;
    Alcotest.test_case "token replaces message" `Quick test_token_replaces_message;
    Alcotest.test_case "lemma 4: obsolete detection" `Quick test_obsolete_detection;
    Alcotest.test_case "obsolete needs a token" `Quick test_obsolete_needs_token;
    Alcotest.test_case "lemma 3: orphan detection" `Quick test_orphan_detection;
    Alcotest.test_case "orphan needs a message record" `Quick
      test_orphan_needs_message_record;
    Alcotest.test_case "deliverability condition" `Quick test_tokens_complete_below;
    Alcotest.test_case "copies are isolated" `Quick test_copy_isolated;
    Alcotest.test_case "note_clock covers all components" `Quick
      test_note_clock_all_components;
    Alcotest.test_case "max known version" `Quick test_max_known_version;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_record_count_bounded; prop_token_freezes; prop_matches_model ]
