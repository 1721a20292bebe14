(* Tests of the Fault-Tolerant Vector Clock (paper Section 4, Figure 2),
   including the clock fragment of Figure 1 and property tests backing
   Lemma 1 and Theorem 1. *)

module Ftvc = Optimist_clock.Ftvc
module Vclock = Optimist_clock.Vclock
module Prng = Optimist_util.Prng

let entry ver ts = { Ftvc.ver; ts }

let check_entries msg clock expected =
  Alcotest.(check (list (pair int int)))
    msg expected
    (Array.to_list (Ftvc.entries clock)
    |> List.map (fun e -> (e.Ftvc.ver, e.Ftvc.ts)))

(* --- Figure 2 transition rules --- *)

let test_init () =
  let c = Ftvc.create ~n:3 ~me:1 in
  check_entries "initial clock" c [ (0, 0); (0, 1); (0, 0) ];
  Alcotest.(check int) "me" 1 (Ftvc.me c)

let test_send_rule () =
  let c = Ftvc.create ~n:3 ~me:0 in
  let c = Ftvc.sent c in
  check_entries "after send" c [ (0, 2); (0, 0); (0, 0) ]

let test_receive_rule () =
  (* Figure 1: P1 receives from P0's first state s00 = [(0,1)(0,0)(0,0)];
     s11 = [(0,1)(0,2)(0,0)]. *)
  let p1 = Ftvc.create ~n:3 ~me:1 in
  let s00 = Ftvc.create ~n:3 ~me:0 in
  let s11 = Ftvc.deliver p1 ~received:s00 in
  check_entries "s11" s11 [ (0, 1); (0, 2); (0, 0) ]

let test_restart_rule () =
  (* Figure 1: P1 fails, restores s11, restarts as r10 = [(0,1)(1,0)(0,0)]. *)
  let s11 =
    Ftvc.deliver (Ftvc.create ~n:3 ~me:1) ~received:(Ftvc.create ~n:3 ~me:0)
  in
  let r10 = Ftvc.restart s11 in
  check_entries "r10" r10 [ (0, 1); (1, 0); (0, 0) ]

let test_rollback_rule () =
  let c = Ftvc.create ~n:3 ~me:2 in
  let c = Ftvc.rolled_back c in
  check_entries "rollback ticks own ts" c [ (0, 0); (0, 0); (0, 2) ]

let test_version_priority_in_merge () =
  (* An entry with a higher version dominates even with a lower ts. *)
  let c = Ftvc.create ~n:2 ~me:0 in
  let received = [| entry 0 0; entry 1 2 |] in
  let c = Ftvc.deliver_entries c ~received in
  check_entries "version wins" c [ (0, 2); (1, 2) ];
  let received' = [| entry 0 0; entry 0 99 |] in
  let c = Ftvc.deliver_entries c ~received:received' in
  (* (1,2) must survive against (0,99). *)
  check_entries "stale version ignored" c [ (0, 3); (1, 2) ]

let test_internal_event () =
  let c = Ftvc.create ~n:2 ~me:0 in
  let c = Ftvc.internal c in
  check_entries "internal tick" c [ (0, 2); (0, 0) ]

let test_with_own () =
  let c = Ftvc.create ~n:3 ~me:1 in
  let c = Ftvc.with_own c (entry 4 7) in
  check_entries "own replaced" c [ (0, 0); (4, 7); (0, 0) ]

(* --- rollback across a restart (the paper's unspecified case) --- *)

let test_rolled_back_from_same_incarnation () =
  let restored = Ftvc.create ~n:2 ~me:0 in
  let orphaned = Ftvc.sent (Ftvc.sent restored) in
  let c = Ftvc.rolled_back_from ~restored ~orphaned in
  (* Paper rule: restored ts + 1. *)
  check_entries "paper-exact" c [ (0, 2); (0, 0) ]

let test_rolled_back_from_crossing () =
  let restored = Ftvc.create ~n:2 ~me:0 in
  (* orphaned is in incarnation 2 at ts 5 *)
  let orphaned = Ftvc.with_own restored (entry 2 5) in
  let c = Ftvc.rolled_back_from ~restored ~orphaned in
  (* Safe rule: keep incarnation 2, skip past every used timestamp. *)
  check_entries "crossing keeps incarnation" c [ (2, 6); (0, 0) ]

(* --- orders --- *)

let test_entry_order () =
  Alcotest.(check bool) "version major" true
    (Ftvc.entry_compare (entry 0 99) (entry 1 0) < 0);
  Alcotest.(check bool) "ts minor" true
    (Ftvc.entry_compare (entry 1 3) (entry 1 4) < 0);
  Alcotest.(check bool) "equal" true (Ftvc.entry_compare (entry 2 2) (entry 2 2) = 0);
  Alcotest.(check bool) "max picks higher version" true
    (Ftvc.entry_max (entry 0 99) (entry 1 0) = entry 1 0)

let test_clock_order_figure1 () =
  (* Figure 1 discussion: r20.c < s22.c even though r20 does not
     happen-before s22 — FTVC comparisons are only meaningful for useful
     states. We reproduce the shape: a rolled-back clock is dominated by
     the orphan it replaced. *)
  let p2 = Ftvc.create ~n:3 ~me:2 in
  let orphan = Ftvc.deliver_entries p2 ~received:[| entry 0 3; entry 0 3; entry 0 0 |] in
  let r20 = Ftvc.rolled_back p2 in
  Alcotest.(check bool) "r20 < orphan clock" true (Ftvc.lt r20 orphan)

(* --- property tests --- *)

let entry_gen = QCheck.Gen.(map2 (fun v t -> entry v t) (0 -- 3) (0 -- 20))

let clock_gen n me =
  QCheck.Gen.(
    array_repeat n entry_gen >|= fun v ->
    Ftvc.with_own (Ftvc.create ~n ~me) v.(me) |> fun base ->
    (* overwrite all components deterministically *)
    Array.fold_left
      (fun (i, c) e ->
        let c =
          if i = me then c
          else Ftvc.deliver_entries c ~received:(Array.mapi (fun j x ->
            if j = i then e else if j = me then { Ftvc.ver = 0; ts = 0 } else x)
            (Array.make n { Ftvc.ver = 0; ts = 0 }))
        in
        (i + 1, c))
      (0, base) v
    |> snd)

let arb_clock n me =
  QCheck.make ~print:(fun c -> Format.asprintf "%a" Ftvc.pp c) (clock_gen n me)

let prop_leq_partial_order =
  QCheck.Test.make ~name:"ftvc leq is a partial order" ~count:500
    QCheck.(triple (arb_clock 3 0) (arb_clock 3 0) (arb_clock 3 0))
    (fun (a, b, c) ->
      Ftvc.leq a a
      && ((not (Ftvc.leq a b && Ftvc.leq b a)) || Ftvc.equal a b)
      && ((not (Ftvc.leq a b && Ftvc.leq b c)) || Ftvc.leq a c))

let prop_deliver_dominates =
  QCheck.Test.make ~name:"deliver dominates both clocks" ~count:500
    QCheck.(pair (arb_clock 3 0) (arb_clock 3 1))
    (fun (a, b) ->
      let m = Ftvc.deliver a ~received:b in
      (* entrywise dominance over non-own components, strict growth of own *)
      let ok = ref (Ftvc.entry_compare (Ftvc.own m) (Ftvc.own a) > 0) in
      for i = 0 to 2 do
        if i <> 0 then
          ok :=
            !ok
            && Ftvc.entry_leq (Ftvc.get a i) (Ftvc.get m i)
            && Ftvc.entry_leq (Ftvc.get b i) (Ftvc.get m i)
      done;
      !ok)

(* Lemma 1(1): the own version number equals the number of failures. *)
let prop_lemma1_own_version =
  QCheck.Test.make ~name:"lemma 1: own version counts failures" ~count:300
    QCheck.(list_of_size Gen.(0 -- 30) (int_bound 2))
    (fun ops ->
      let c = ref (Ftvc.create ~n:2 ~me:0) in
      let failures = ref 0 in
      List.iter
        (fun op ->
          match op with
          | 0 -> c := Ftvc.sent !c
          | 1 -> c := Ftvc.rolled_back !c
          | _ ->
              incr failures;
              c := Ftvc.restart !c)
        ops;
      (Ftvc.own !c).Ftvc.ver = !failures)

(* Failure-free FTVC behaves exactly like a Mattern vector clock: simulate
   a random failure-free computation with both clocks side by side and
   compare every causality verdict. *)
let prop_failure_free_equals_mattern =
  QCheck.Test.make ~name:"failure-free FTVC = Mattern VC" ~count:100
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (seed, _) ->
      let n = 4 in
      let rng = Prng.create (Int64.of_int (seed + 1)) in
      let f = Array.init n (fun me -> ref (Ftvc.create ~n ~me)) in
      let v = Array.init n (fun me -> ref (Vclock.create ~n ~me)) in
      let fsnap = ref [] and vsnap = ref [] in
      for _ = 1 to 40 do
        let src = Prng.int rng n in
        let dst = (src + 1 + Prng.int rng (n - 1)) mod n in
        (* message carries the senders' clocks; sender ticks *)
        let fc = !(f.(src)) and vc = !(v.(src)) in
        f.(src) := Ftvc.sent fc;
        v.(src) := Vclock.tick vc ~me:src;
        f.(dst) := Ftvc.deliver !(f.(dst)) ~received:fc;
        v.(dst) := Vclock.merge !(v.(dst)) ~me:dst vc;
        fsnap := !(f.(dst)) :: !fsnap;
        vsnap := !(v.(dst)) :: !vsnap
      done;
      let fa = Array.of_list !fsnap and va = Array.of_list !vsnap in
      let ok = ref true in
      for i = 0 to Array.length fa - 1 do
        for j = 0 to Array.length fa - 1 do
          if Ftvc.lt fa.(i) fa.(j) <> Vclock.lt va.(i) va.(j) then ok := false
        done
      done;
      !ok)

(* The merge and the send as they were written before the per-message
   cuts, kept as the model: a closure per entry through [entry_max], and
   a send that copies the clock for the piggyback and again to bump it. *)
module Model = struct
  let bump me v =
    let v = Array.copy v in
    v.(me) <- { (v.(me)) with Ftvc.ts = v.(me).Ftvc.ts + 1 };
    v

  let deliver me v received =
    bump me (Array.mapi (fun i e -> Ftvc.entry_max e received.(i)) v)

  (* (piggyback, next clock) *)
  let send me v = (Array.copy v, bump me v)
end

type op = Send | Deliver of Ftvc.entry array | Redeliver of int | Restart | Rollback

let pp_op ppf = function
  | Send -> Format.fprintf ppf "send"
  | Deliver r ->
      Format.fprintf ppf "deliver %a" Ftvc.pp (Ftvc.of_entries ~me:0 r)
  | Redeliver k -> Format.fprintf ppf "redeliver sent #%d" k
  | Restart -> Format.fprintf ppf "restart"
  | Rollback -> Format.fprintf ppf "rollback"

let arb_run =
  let gen =
    QCheck.Gen.(
      1 -- 5 >>= fun n ->
      0 -- (n - 1) >>= fun me ->
      array_repeat n entry_gen >>= fun init ->
      let op =
        frequency
          [
            (3, return Send);
            (3, array_repeat n entry_gen >|= fun r -> Deliver r);
            (2, small_nat >|= fun k -> Redeliver k);
            (1, return Restart);
            (1, return Rollback);
          ]
      in
      list_size (0 -- 30) op >|= fun ops -> (me, init, ops))
  in
  QCheck.make gen ~print:(fun (me, init, ops) ->
      Format.asprintf "me=%d init=%a@ ops=[%a]" me Ftvc.pp
        (Ftvc.of_entries ~me init)
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_op)
        ops)

(* Every step of the one-copy send and the loop merge agrees with the
   model, and no array a send shipped or a delivery read ever changes
   afterwards, including a shipped clock delivered back to its sender. *)
let prop_matches_model =
  QCheck.Test.make ~name:"one-copy send and loop merge match the model"
    ~count:500 arb_run (fun (me, init, ops) ->
      let c = ref (Ftvc.of_entries ~me init) and m = ref (Array.copy init) in
      let shipped = ref [] and read = ref [] in
      let ok = ref true in
      let check () = ok := !ok && Ftvc.entries !c = !m in
      let deliver r =
        read := (r, Array.copy r) :: !read;
        c := Ftvc.deliver_entries !c ~received:r;
        m := Model.deliver me !m r
      in
      List.iter
        (fun op ->
          (match op with
          | Send ->
              let wire = Ftvc.piggyback !c in
              c := Ftvc.sent !c;
              let wire', next = Model.send me !m in
              m := next;
              ok := !ok && wire = wire';
              shipped := (wire, wire') :: !shipped
          | Deliver r -> deliver r
          | Redeliver k -> (
              match List.nth_opt !shipped k with
              | Some (wire, _) -> deliver wire
              | None -> ())
          | Restart ->
              c := Ftvc.restart !c;
              m := Ftvc.entries !c
          | Rollback ->
              c := Ftvc.rolled_back !c;
              m := Ftvc.entries !c);
          check ())
        ops;
      !ok && List.for_all (fun (a, b) -> a = b) (!shipped @ !read))

let test_size_words () =
  Alcotest.(check int) "2 words per process" 10
    (Ftvc.size_words (Ftvc.create ~n:5 ~me:0))

let suite =
  [
    Alcotest.test_case "initialisation" `Quick test_init;
    Alcotest.test_case "send rule" `Quick test_send_rule;
    Alcotest.test_case "receive rule (figure 1: s11)" `Quick test_receive_rule;
    Alcotest.test_case "restart rule (figure 1: r10)" `Quick test_restart_rule;
    Alcotest.test_case "rollback rule" `Quick test_rollback_rule;
    Alcotest.test_case "version priority in merge" `Quick
      test_version_priority_in_merge;
    Alcotest.test_case "internal event" `Quick test_internal_event;
    Alcotest.test_case "with_own" `Quick test_with_own;
    Alcotest.test_case "rolled_back_from: same incarnation" `Quick
      test_rolled_back_from_same_incarnation;
    Alcotest.test_case "rolled_back_from: crossing a restart" `Quick
      test_rolled_back_from_crossing;
    Alcotest.test_case "entry order" `Quick test_entry_order;
    Alcotest.test_case "figure 1: r20 < s22 despite no causality" `Quick
      test_clock_order_figure1;
    Alcotest.test_case "size in words" `Quick test_size_words;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_leq_partial_order;
        prop_deliver_dominates;
        prop_lemma1_own_version;
        prop_failure_free_equals_mattern;
        prop_matches_model;
      ]
