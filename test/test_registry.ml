(* Tests of the protocol registry: one name table (canonical names and
   aliases resolve, nothing collides), the live subset and its order,
   each protocol's sanitizer rules and channel assumption, and the CLI's
   one-line refusal to run a simulation-only protocol live. *)

module Registry = Optimist_protocols.Registry
module Worker = Optimist_live.Worker
module Check = Optimist_check.Check
module P = Optimist_protocols

let test_names_resolve () =
  let names =
    List.concat_map
      (fun (e : Registry.entry) -> e.name :: e.aliases)
      Registry.entries
  in
  Alcotest.(check int) "names and aliases are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (e : Registry.entry) ->
      Alcotest.(check string) "canonical name" e.name (Registry.name e.id);
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "%s resolves to %s" s e.name)
            true
            (Registry.of_string s = Some e.id))
        (e.name :: e.aliases))
    Registry.entries;
  Alcotest.(check bool) "unknown name" true (Registry.of_string "dg2" = None)

let test_live_protocols () =
  Alcotest.(check bool) "Worker.all_protocols: the six, in order" true
    (Worker.all_protocols = Worker.[ Dg; Pessimist; Sender; Sy; Cpo; Koo ]);
  Alcotest.(check (list string)) "their names"
    [
      "damani-garg";
      "pessimistic";
      "sender-based";
      "strom-yemini";
      "checkpoint-only";
      "coordinated";
    ]
    (List.map Registry.name Worker.all_protocols)

let test_rules_and_ordering () =
  let expected =
    Registry.
      [
        (Dg, Check.all_ids);
        (Dg_nohold, Check.all_ids);
        (Pessimist, P.Pessimistic.check_rules);
        (Sender, P.Sender_based.check_rules);
        (Sy, P.Strom_yemini.check_rules);
        (Pk, P.Peterson_kearns.check_rules);
        (Cpo, P.Checkpoint_only.check_rules);
        (Koo, P.Coordinated.check_rules);
      ]
  in
  Alcotest.(check bool) "one row per protocol, in order" true
    (List.map fst expected = Registry.all);
  List.iter
    (fun (id, rules) ->
      Alcotest.(check (list string)) (Registry.name id) rules
        (Registry.check_rules id))
    expected;
  Alcotest.(check (list string)) "damani-garg live: the offline battery"
    Check.offline_ids
    (Worker.live_check_rules Worker.Dg);
  List.iter
    (fun id ->
      if id <> Worker.Dg then
        Alcotest.(check (list string))
          (Registry.name id ^ " live: its declared rules")
          (Registry.check_rules id) (Worker.live_check_rules id))
    Worker.all_protocols;
  Alcotest.(check bool) "FIFO: strom-yemini and peterson-kearns" true
    (List.filter Registry.fifo Registry.all = Registry.[ Sy; Pk ])

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_live_refuses_sim_only () =
  let recsim =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "recsim.exe"))
  in
  let out =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "optreg-%d" (Unix.getpid ()))
  in
  let err = Filename.temp_file "recsim" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s live run --protocol peterson-kearns --out %s 2> %s"
         (Filename.quote recsim) (Filename.quote out) (Filename.quote err))
  in
  let lines = read_lines err in
  Sys.remove err;
  Alcotest.(check bool) "exits non-zero" true (code <> 0);
  Alcotest.(check bool) "nothing was run" false (Sys.file_exists out);
  match lines with
  | [ line ] ->
      List.iter
        (fun id ->
          Alcotest.(check bool)
            ("the error names " ^ Registry.name id)
            true
            (contains line (Registry.name id)))
        Registry.live_protocols
  | _ -> Alcotest.failf "expected a one-line error, got %d lines" (List.length lines)

let suite =
  [
    Alcotest.test_case "names and aliases resolve, no collisions" `Quick
      test_names_resolve;
    Alcotest.test_case "live protocols: the six, in order" `Quick
      test_live_protocols;
    Alcotest.test_case "check rules and FIFO flags per protocol" `Quick
      test_rules_and_ordering;
    Alcotest.test_case "live run refuses a sim-only protocol in one line"
      `Quick test_live_refuses_sim_only;
  ]
