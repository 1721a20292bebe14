(* Tests of the storage substrate: volatile/stable message log and the
   checkpoint store. *)

module Message_log = Optimist_storage.Message_log
module Checkpoint_store = Optimist_storage.Checkpoint_store

(* --- Message_log --- *)

let test_append_flush_crash () =
  let log = Message_log.create () in
  Message_log.append log "a";
  Message_log.append log "b";
  Alcotest.(check int) "volatile only" 0 (Message_log.stable_length log);
  Alcotest.(check int) "total" 2 (Message_log.total_length log);
  Message_log.flush log;
  Message_log.append log "c";
  Alcotest.(check int) "stable after flush" 2 (Message_log.stable_length log);
  Message_log.crash log;
  Alcotest.(check int) "crash wipes volatile" 2 (Message_log.total_length log);
  Alcotest.(check string) "stable survives" "b" (Message_log.get log 1)

let test_get_spans_stable_and_volatile () =
  let log = Message_log.create () in
  Message_log.append log "a";
  Message_log.flush log;
  Message_log.append log "b";
  Message_log.append log "c";
  Alcotest.(check string) "stable" "a" (Message_log.get log 0);
  Alcotest.(check string) "volatile 1" "b" (Message_log.get log 1);
  Alcotest.(check string) "volatile 2" "c" (Message_log.get log 2)

let test_get_out_of_range () =
  let log = Message_log.create () in
  Message_log.append log "a";
  let raised = try ignore (Message_log.get log 1); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "oob raises" true raised

let test_truncate_stable () =
  let log = Message_log.create () in
  List.iter (Message_log.append log) [ "a"; "b"; "c"; "d" ];
  Message_log.flush log;
  Message_log.truncate log 2;
  Alcotest.(check int) "stable truncated" 2 (Message_log.stable_length log);
  Alcotest.(check int) "total truncated" 2 (Message_log.total_length log)

let test_truncate_volatile () =
  let log = Message_log.create () in
  Message_log.append log "a";
  Message_log.flush log;
  List.iter (Message_log.append log) [ "b"; "c"; "d" ];
  Message_log.truncate log 2;
  Alcotest.(check int) "total" 2 (Message_log.total_length log);
  Alcotest.(check string) "kept volatile prefix" "b" (Message_log.get log 1);
  Message_log.flush log;
  Alcotest.(check int) "flush after truncate" 2 (Message_log.stable_length log)

let test_iter_range () =
  let log = Message_log.create () in
  List.iter (Message_log.append log) [ "a"; "b"; "c"; "d" ];
  let acc = ref [] in
  Message_log.iter_range log ~from:1 ~until:3 (fun e -> acc := e :: !acc);
  Alcotest.(check (list string)) "range" [ "b"; "c" ] (List.rev !acc)

let test_gc_prefix () =
  let log = Message_log.create () in
  List.iter (Message_log.append log) [ "a"; "b"; "c" ];
  Message_log.flush log;
  Message_log.gc_prefix log 2;
  Alcotest.(check int) "floor" 2 (Message_log.gc_floor log);
  Alcotest.(check string) "still readable" "c" (Message_log.get log 2);
  let raised = try ignore (Message_log.get log 1); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "reclaimed raises" true raised

let test_flush_counters () =
  let log = Message_log.create () in
  Message_log.append log "a";
  Message_log.append log "b";
  Message_log.flush log;
  Message_log.append log "c";
  Message_log.crash log;
  let get = Optimist_util.Stats.Counters.get (Message_log.counters log) in
  Alcotest.(check int) "appends" 3 (get "appends");
  Alcotest.(check int) "flushed entries" 2 (get "flushed_entries");
  Alcotest.(check int) "lost entries" 1 (get "lost_entries")

(* [gc_prefix] lets go of the entries below the floor: once collected,
   nothing of them is left, their keys still answer, and reading them is
   an error. *)
let test_gc_prefix_frees () =
  let log = Message_log.create ~key:fst () in
  let w = Weak.create 4 in
  for uid = 0 to 3 do
    let e = (uid, Bytes.make 64 'x') in
    Weak.set w uid (Some e);
    Message_log.append log e
  done;
  Message_log.flush log;
  Message_log.gc_prefix log 2;
  Gc.full_major ();
  Alcotest.(check (list bool)) "only the entries above the floor live"
    [ false; false; true; true ]
    (List.init 4 (Weak.check w));
  Alcotest.(check (list bool)) "every key still answers" [ true; true; true; true ]
    (List.init 4 (Message_log.mem_key log));
  let raised =
    try ignore (Message_log.get log 1); false with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "below the floor unreadable" true raised

(* The duplicate filter a keyed log keeps, against a reference log: under
   random deliveries, re-deliveries of a logged uid (a mutant that skips
   the filter logs them), flushes, crashes, rollback truncations and GC,
   [mem_key] answers for exactly the uids of [0, total) plus those GC'd,
   and the entries read back are the reference's. *)
type op = Deliver | Duplicate of int | Flush | Crash | Truncate of int | Gc of int

let pp_op = function
  | Deliver -> "deliver"
  | Duplicate i -> Printf.sprintf "dup %d" i
  | Flush -> "flush"
  | Crash -> "crash"
  | Truncate i -> Printf.sprintf "truncate %d" i
  | Gc i -> Printf.sprintf "gc %d" i

let prop_filter_matches_log =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 300)
        (frequency
           [
             (6, return Deliver);
             (2, map (fun i -> Duplicate i) nat);
             (2, return Flush);
             (1, return Crash);
             (1, map (fun i -> Truncate i) nat);
             (1, map (fun i -> Gc i) nat);
           ]))
  in
  QCheck.Test.make ~name:"log-kept duplicate filter matches a reference set"
    ~count:300
    (QCheck.make ~print:(QCheck.Print.list pp_op) gen)
    (fun ops ->
      (* The reference: the log as a list of uids (oldest first), the
         stable mark and the floor, and the uids GC'd. *)
      let log = Message_log.create ~key:Fun.id () in
      let entries = ref [||] and stable = ref 0 and floor = ref 0 in
      let gcd = ref [] and next = ref 0 in
      let keep k =
        entries := Array.sub !entries 0 k;
        stable := min !stable k
      in
      let agree () =
        let total = Array.length !entries in
        Message_log.total_length log = total
        && Message_log.stable_length log = !stable
        && Message_log.gc_floor log = !floor
        && List.for_all
             (fun i -> Message_log.get log i = !entries.(i))
             (List.init (total - !floor) (fun i -> !floor + i))
        && List.for_all
             (fun uid ->
               Message_log.mem_key log uid
               = (Array.mem uid !entries || List.mem uid !gcd))
             (List.init (!next + 1) Fun.id)
      in
      List.for_all
        (fun op ->
          let total = Array.length !entries in
          (match op with
          | Deliver ->
              incr next;
              Message_log.append log !next;
              entries := Array.append !entries [| !next |]
          | Duplicate i ->
              if total > 0 then begin
                let uid = !entries.(i mod total) in
                Message_log.append log uid;
                entries := Array.append !entries [| uid |]
              end
          | Flush ->
              Message_log.flush log;
              stable := total
          | Crash ->
              Message_log.crash log;
              keep !stable
          | Truncate i ->
              let k = !floor + (i mod (total - !floor + 1)) in
              Message_log.truncate log k;
              keep k
          | Gc i ->
              let k = i mod (total + 1) in
              Message_log.gc_prefix log k;
              let k = min k !stable in
              if k > !floor then begin
                gcd := Array.to_list (Array.sub !entries !floor (k - !floor)) @ !gcd;
                floor := k
              end);
          agree ())
        ops)

(* --- Checkpoint_store --- *)

let test_checkpoint_latest () =
  let s = Checkpoint_store.create () in
  Checkpoint_store.record s ~position:0 "cp0";
  Checkpoint_store.record s ~position:5 "cp5";
  (match Checkpoint_store.latest s with
  | Some ("cp5", 5) -> ()
  | _ -> Alcotest.fail "latest should be cp5");
  Alcotest.(check (list int)) "positions" [ 0; 5 ] (Checkpoint_store.positions s)

let test_checkpoint_monotonic_positions () =
  let s = Checkpoint_store.create () in
  Checkpoint_store.record s ~position:5 "cp5";
  let raised =
    try Checkpoint_store.record s ~position:3 "cp3"; false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "decreasing rejected" true raised

let test_latest_satisfying () =
  let s = Checkpoint_store.create () in
  Checkpoint_store.record s ~position:0 1;
  Checkpoint_store.record s ~position:3 2;
  Checkpoint_store.record s ~position:7 3;
  (match Checkpoint_store.latest_satisfying s (fun v _ -> v <= 2) with
  | Some (2, 3) -> ()
  | _ -> Alcotest.fail "should pick the newest satisfying checkpoint");
  Alcotest.(check bool) "none satisfying" true
    (Checkpoint_store.latest_satisfying s (fun v _ -> v > 10) = None)

let test_discard_after () =
  let s = Checkpoint_store.create () in
  Checkpoint_store.record s ~position:0 "a";
  Checkpoint_store.record s ~position:4 "b";
  Checkpoint_store.record s ~position:9 "c";
  Checkpoint_store.discard_after s ~position:4;
  Alcotest.(check (list int)) "positions" [ 0; 4 ] (Checkpoint_store.positions s)

let test_gc_before () =
  let s = Checkpoint_store.create () in
  Checkpoint_store.record s ~position:0 "a";
  Checkpoint_store.record s ~position:4 "b";
  Checkpoint_store.record s ~position:9 "c";
  let reclaimed = Checkpoint_store.gc_before s ~position:8 in
  (* The newest checkpoint at or below 8 (position 4) must be kept as the
     rollback anchor; only position 0 is reclaimable. *)
  Alcotest.(check int) "one reclaimed" 1 reclaimed;
  Alcotest.(check (list int)) "anchor kept" [ 4; 9 ] (Checkpoint_store.positions s)

let test_gc_before_nothing_old () =
  let s = Checkpoint_store.create () in
  Checkpoint_store.record s ~position:5 "a";
  let reclaimed = Checkpoint_store.gc_before s ~position:2 in
  Alcotest.(check int) "nothing reclaimed" 0 reclaimed;
  Alcotest.(check int) "count" 1 (Checkpoint_store.count s)

let suite =
  [
    Alcotest.test_case "append/flush/crash" `Quick test_append_flush_crash;
    Alcotest.test_case "get spans stable+volatile" `Quick
      test_get_spans_stable_and_volatile;
    Alcotest.test_case "get out of range" `Quick test_get_out_of_range;
    Alcotest.test_case "truncate stable" `Quick test_truncate_stable;
    Alcotest.test_case "truncate volatile" `Quick test_truncate_volatile;
    Alcotest.test_case "iter range" `Quick test_iter_range;
    Alcotest.test_case "gc prefix" `Quick test_gc_prefix;
    Alcotest.test_case "gc prefix frees the entries below the floor" `Quick
      test_gc_prefix_frees;
    QCheck_alcotest.to_alcotest prop_filter_matches_log;
    Alcotest.test_case "log counters" `Quick test_flush_counters;
    Alcotest.test_case "checkpoint latest" `Quick test_checkpoint_latest;
    Alcotest.test_case "checkpoint monotonic positions" `Quick
      test_checkpoint_monotonic_positions;
    Alcotest.test_case "latest satisfying" `Quick test_latest_satisfying;
    Alcotest.test_case "discard after" `Quick test_discard_after;
    Alcotest.test_case "gc before keeps anchor" `Quick test_gc_before;
    Alcotest.test_case "gc with nothing old" `Quick test_gc_before_nothing_old;
  ]
