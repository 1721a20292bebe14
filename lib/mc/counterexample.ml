module Json = Optimist_obs.Json
module Trace = Optimist_obs.Trace
module Registry = Optimist_protocols.Registry

(* A counterexample is a (configuration, decision sequence) pair —
   everything needed to re-run the violating schedule on a fresh
   instance. The JSON form is the checker's exchange format: [recsim mc]
   writes it, [recsim mc replay] turns it back into a standard JSONL
   trace that the offline linter and trace tooling accept. *)

type t = {
  cx_cfg : Model.cfg;
  cx_decisions : Dpor.decision list;
  cx_violations : string list;
}

let decision_to_json = function
  | Dpor.Fire { kind; pid; src; info; nth } ->
      Json.Obj
        [
          ("t", Json.String "fire");
          ("kind", Json.String kind);
          ("pid", Json.Int pid);
          ("src", Json.Int src);
          ("info", Json.String info);
          ("nth", Json.Int nth);
        ]
  | Dpor.Crash pid ->
      Json.Obj [ ("t", Json.String "crash"); ("pid", Json.Int pid) ]

let to_json cx =
  let protocol, mutation =
    Registry.protocol_and_mutation cx.cx_cfg.Model.protocol
  in
  Json.Obj
    [
      ("version", Json.Int 1);
      ("kind", Json.String "mc-counterexample");
      ("protocol", Json.String protocol);
      ("mutation", Json.String mutation);
      ("procs", Json.Int cx.cx_cfg.Model.n);
      ("msgs", Json.Int cx.cx_cfg.Model.msgs);
      ("hops", Json.Int cx.cx_cfg.Model.hops);
      ("crashes", Json.Int cx.cx_cfg.Model.crashes);
      ("decisions", Json.List (List.map decision_to_json cx.cx_decisions));
      ( "violations",
        Json.List (List.map (fun v -> Json.String v) cx.cx_violations) );
    ]

let to_string cx = Json.to_string (to_json cx)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name conv j =
  match Option.bind (Json.mem name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "counterexample: missing or bad %S" name)

let decision_of_json j =
  let* t = field "t" Json.string_value j in
  match t with
  | "crash" ->
      let* pid = field "pid" Json.to_int j in
      Ok (Dpor.Crash pid)
  | "fire" ->
      let* kind = field "kind" Json.string_value j in
      let* pid = field "pid" Json.to_int j in
      let* src = field "src" Json.to_int j in
      let* info = field "info" Json.string_value j in
      let* nth = field "nth" Json.to_int j in
      Ok (Dpor.Fire { kind; pid; src; info; nth })
  | other -> Error (Printf.sprintf "counterexample: unknown decision %S" other)

let rec decisions_of_json = function
  | [] -> Ok []
  | j :: rest ->
      let* d = decision_of_json j in
      let* ds = decisions_of_json rest in
      Ok (d :: ds)

(* The entry [Registry.protocol_and_mutation] names by this pair. *)
let variant protocol mutation =
  let name =
    Option.fold ~none:protocol ~some:Registry.name (Registry.of_string protocol)
  in
  List.find_opt
    (fun id -> Registry.protocol_and_mutation id = (name, mutation))
    (Registry.all @ Registry.mutants)
  |> Option.to_result
       ~none:
         (Printf.sprintf "counterexample: no protocol %S with mutation %S"
            protocol mutation)

let of_json j =
  let* protocol_name = field "protocol" Json.string_value j in
  let* mutation = field "mutation" Json.string_value j in
  let* protocol = variant protocol_name mutation in
  let* n = field "procs" Json.to_int j in
  let* msgs = field "msgs" Json.to_int j in
  let* hops = field "hops" Json.to_int j in
  let* crashes = field "crashes" Json.to_int j in
  let cfg = { Model.protocol; n; msgs; hops; crashes } in
  let* () = Model.validate cfg in
  let* decision_js = field "decisions" Json.list_value j in
  let* decisions = decisions_of_json decision_js in
  let violations =
    match Json.mem "violations" j with
    | Some (Json.List l) -> List.filter_map Json.string_value l
    | _ -> []
  in
  Ok { cx_cfg = cfg; cx_decisions = decisions; cx_violations = violations }

let of_string s =
  let* j = Json.of_string s in
  of_json j

(* Re-run the counterexample's schedule, streaming the execution as a
   standard JSONL trace through [write]. Returns the violations the
   re-execution reports (empty means the counterexample went stale). *)
let replay ~write cx =
  let sink = Trace.jsonl_sink write in
  let build () = Model.build ~sink cx.cx_cfg in
  let r =
    Strategy.execute ~build ~crashes:cx.cx_cfg.Model.crashes
      ~prefix:cx.cx_decisions
      ~depth:(List.length cx.cx_decisions)
      ()
  in
  r.Strategy.x_violations
