module Ftvc = Optimist_clock.Ftvc
module Types = Optimist_core.Types
module Prng = Optimist_util.Prng

type status = Live | Lost | Discarded

type node = {
  id : int;
  pid : int;
  clock : Ftvc.t;
  kind : Types.state_kind option; (* None for the root states *)
  parent : int option;
  msg_parent : int option; (* send state, for delivery nodes *)
  mutable children : int list; (* forward edges: local successors + deliveries *)
  mutable status : status;
}

type t = {
  n : int;
  mutable nodes : node array;
  mutable len : int;
  current : int array; (* current live state of each process *)
  send_state : (int, int) Hashtbl.t; (* message uid -> send node *)
  rollback_count : int array;
  mutable failure_count : int;
  mutable delivered_count : int;
  mutable obsolete_discards : int;
  mutable held_count : int;
}

let node t id = t.nodes.(id)

let push t n =
  if t.len = Array.length t.nodes then begin
    let next = max 64 (2 * t.len) in
    let data = Array.make next n in
    Array.blit t.nodes 0 data 0 t.len;
    t.nodes <- data
  end;
  t.nodes.(t.len) <- n;
  t.len <- t.len + 1

let add_node t ~pid ~clock ~kind ~parent ~msg_parent =
  let id = t.len in
  let n =
    { id; pid; clock; kind; parent; msg_parent; children = []; status = Live }
  in
  push t n;
  (match parent with
  | Some p -> (node t p).children <- id :: (node t p).children
  | None -> ());
  (match msg_parent with
  | Some p -> (node t p).children <- id :: (node t p).children
  | None -> ());
  id

let create ~n =
  let t =
    {
      n;
      nodes = [||];
      len = 0;
      current = Array.make n 0;
      send_state = Hashtbl.create 256;
      rollback_count = Array.make n 0;
      failure_count = 0;
      delivered_count = 0;
      obsolete_discards = 0;
      held_count = 0;
    }
  in
  for pid = 0 to n - 1 do
    let clock = Ftvc.create ~n ~me:pid in
    t.current.(pid) <- add_node t ~pid ~clock ~kind:None ~parent:None ~msg_parent:None
  done;
  t

let on_state_created t ~pid ~clock ~kind =
  let msg_parent =
    match (kind : Types.state_kind) with
    | Types.K_deliver uid -> (
        match Hashtbl.find_opt t.send_state uid with
        | Some s -> Some s
        | None -> failwith "Oracle: delivery of an unknown message")
    | _ -> None
  in
  let parent = Some t.current.(pid) in
  t.current.(pid) <- add_node t ~pid ~clock ~kind:(Some kind) ~parent ~msg_parent

let on_message_sent t ~src ~uid = Hashtbl.replace t.send_state uid t.current.(src)

(* Rewind process [pid] to the state whose clock equals [clock], marking
   everything walked over as lost (after a failure) or discarded (after a
   rollback). Live-path clocks are unique, so the match is unambiguous. *)
let on_restored t ~pid ~clock ~failure =
  if not failure then t.rollback_count.(pid) <- t.rollback_count.(pid) + 1;
  let mark = if failure then Lost else Discarded in
  let rec walk id =
    let n = node t id in
    if Ftvc.equal n.clock clock then id
    else begin
      n.status <- mark;
      match n.parent with
      | Some p -> walk p
      | None -> failwith "Oracle: restored state not found on the live path"
    end
  in
  t.current.(pid) <- walk t.current.(pid)

let tracer t : Types.tracer =
  {
    Types.state_created = (fun ~pid ~clock ~kind -> on_state_created t ~pid ~clock ~kind);
    message_sent = (fun ~src ~uid -> on_message_sent t ~src ~uid);
    failed = (fun ~pid:_ -> t.failure_count <- t.failure_count + 1);
    restored = (fun ~pid ~clock ~failure -> on_restored t ~pid ~clock ~failure);
    delivered = (fun ~pid:_ ~uid:_ -> t.delivered_count <- t.delivered_count + 1);
    discarded_obsolete =
      (fun ~pid:_ ~uid:_ -> t.obsolete_discards <- t.obsolete_discards + 1);
    held = (fun ~pid:_ ~uid:_ -> t.held_count <- t.held_count + 1);
  }

let status_counts t =
  let live = ref 0 and lost = ref 0 and discarded = ref 0 in
  for i = 0 to t.len - 1 do
    match (node t i).status with
    | Live -> incr live
    | Lost -> incr lost
    | Discarded -> incr discarded
  done;
  (!live, !lost, !discarded)

let failures t = t.failure_count

let rollbacks_of t pid = t.rollback_count.(pid)

(* Forward reachability from every lost state: the set of orphans (plus the
   lost states themselves, which we filter per use). *)
let reachable_from_lost t =
  let reached = Array.make t.len false in
  let rec visit id =
    if not reached.(id) then begin
      reached.(id) <- true;
      List.iter visit (node t id).children
    end
  in
  for i = 0 to t.len - 1 do
    if (node t i).status = Lost then List.iter visit (node t i).children
  done;
  reached

(* Live states reachable from a lost state: must be empty at quiescence
   (Theorem 2). *)
let orphan_live_nodes t =
  let reached = reachable_from_lost t in
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if reached.(i) && (node t i).status = Live then acc := i :: !acc
  done;
  !acc

(* Discarded states reachable from no lost state: each is a needless
   rollback, contradicting "recover maximum recoverable state". *)
let unjustified_discards t =
  let reached = reachable_from_lost t in
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if (not reached.(i)) && (node t i).status = Discarded then acc := i :: !acc
  done;
  !acc

type violation = { check : string; detail : string }

let pp_node ppf n =
  Format.fprintf ppf "state #%d of P%d clock %a" n.id n.pid Ftvc.pp n.clock

let check t =
  let violations = ref [] in
  let add check detail = violations := { check; detail } :: !violations in
  List.iter
    (fun id ->
      add "no-live-orphan"
        (Format.asprintf "live state depends on a lost state: %a" pp_node
           (node t id)))
    (orphan_live_nodes t);
  List.iter
    (fun id ->
      add "no-needless-rollback"
        (Format.asprintf "discarded state was not an orphan: %a" pp_node
           (node t id)))
    (unjustified_discards t);
  for i = 0 to t.len - 1 do
    let n = node t i in
    if n.status = Live then
      match n.msg_parent with
      | Some s when (node t s).status <> Live ->
          add "live-delivery-live-sender"
            (Format.asprintf "%a delivered a message sent by dead %a" pp_node
               n pp_node (node t s))
      | _ -> ()
  done;
  Array.iteri
    (fun pid count ->
      if count > t.failure_count then
        add "bounded-rollbacks"
          (Printf.sprintf "P%d rolled back %d times for %d failures" pid count
             t.failure_count))
    t.rollback_count;
  List.rev !violations

(* s happens-before u: backward search from u through local and message
   parents. Edges always point from a lower id to a higher one, so the
   search is bounded. *)
let happens_before t s u =
  s <> u
  &&
  let seen = Hashtbl.create 64 in
  let rec visit id =
    id = s
    || (id > s && not (Hashtbl.mem seen id))
       &&
       (Hashtbl.add seen id ();
        let n = node t id in
        let from_parent = match n.parent with Some p -> visit p | None -> false in
        from_parent
        || match n.msg_parent with Some p -> visit p | None -> false)
  in
  visit u

let check_theorem1 t ~sample ~seed =
  let live =
    Array.of_list
      (List.filter_map
         (fun i -> if (node t i).status = Live then Some i else None)
         (List.init t.len (fun i -> i)))
  in
  let reached = reachable_from_lost t in
  let useful = Array.to_list live |> List.filter (fun i -> not reached.(i)) in
  let useful = Array.of_list useful in
  let violations = ref [] in
  let verify i j =
    if i <> j then begin
      let a = node t i and b = node t j in
      let hb = happens_before t i j in
      let clt = Ftvc.lt a.clock b.clock in
      if hb <> clt then
        violations :=
          {
            check = "theorem1";
            detail =
              Format.asprintf "%a %s %a but clock comparison says %b" pp_node a
                (if hb then "happens-before" else "does-not-happen-before")
                pp_node b clt;
          }
          :: !violations
    end
  in
  let m = Array.length useful in
  if m * m <= 4 * sample then
    Array.iter (fun i -> Array.iter (fun j -> verify i j) useful) useful
  else begin
    let rng = Prng.create seed in
    for _ = 1 to sample do
      let i = useful.(Prng.int rng m) and j = useful.(Prng.int rng m) in
      verify i j
    done
  end;
  List.rev !violations

let pp_stats ppf t =
  let live, lost, discarded = status_counts t in
  Format.fprintf ppf
    "states=%d live=%d lost=%d discarded=%d failures=%d delivered=%d \
     obsolete_discarded=%d held=%d"
    t.len live lost discarded t.failure_count t.delivered_count
    t.obsolete_discards t.held_count

type node_view = {
  v_id : int;
  v_pid : int;
  v_clock : Ftvc.t;
  v_kind : Types.state_kind option;
  v_status : status;
  v_msg_parent : int option;
}

let iter_nodes t f =
  for i = 0 to t.len - 1 do
    let n = node t i in
    f
      {
        v_id = n.id;
        v_pid = n.pid;
        v_clock = n.clock;
        v_kind = n.kind;
        v_status = n.status;
        v_msg_parent = n.msg_parent;
      }
  done
