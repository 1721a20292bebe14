(* The one table of recovery protocols. Every harness — the experiment
   runner, the model checker, the live worker, the soak and cluster
   drivers and the CLI — decides "which protocol is this" here and
   nowhere else: one enum, one name table, each protocol's sanitizer
   rules, its channel assumption, and its simulated and live
   implementations. *)

module Protocol = Optimist_core.Protocol
module Process = Optimist_core.Process
module Types = Optimist_core.Types
module Metrics = Optimist_obs.Metrics
module Check = Optimist_check.Check

(* The enum has a module of its own so the live worker can re-export
   it whole. *)
module Ids = struct
  type id =
    | Dg  (** Damani-Garg, the paper's protocol ([lib/core]) *)
    | Dg_nohold  (** ablation: deliverability hold disabled *)
    | Pessimist  (** pessimistic receiver logging *)
    | Sender  (** sender-based logging, Johnson-Zwaenepoel *)
    | Sy  (** Strom-Yemini optimistic recovery *)
    | Pk  (** Peterson-Kearns synchronous vector-time recovery *)
    | Cpo  (** uncoordinated checkpointing, no log (domino) *)
    | Koo  (** coordinated checkpointing, Koo-Toueg *)
end

include Ids

type entry = {
  id : id;
  name : string;  (** canonical: printed by every table, trace and summary *)
  aliases : string list;  (** also accepted on input *)
  fifo : bool;  (** assumes FIFO channels *)
  ground_truth : bool;
      (** reports to the oracle through {!Protocol.SIM}'s [tracer] *)
  sim : (module Protocol.SIM);
  live : (module Protocol.S) option;  (** [None]: simulation only *)
}

(* --- Damani-Garg's live implementation ---

   The baselines write their stable state to a {!Protocol.store} and
   reload it themselves ({!Protocol.Live}). The paper's process keeps its
   own stable hooks and restore image, which the live benchmark also
   builds, so its live face maps the store onto them here, with the live
   runtime's timer settings (seconds, not the simulator's virtual
   units). *)

module Dg_live = struct
  include Process

  type 'm wire = 'm Types.wire

  let config =
    {
      Types.default_config with
      checkpoint_interval = 1.0;
      flush_interval = 0.25;
      restart_delay = 0.3;
      retransmit_lost = true;
    }

  let create_rt ~rt ~net ~app ~id ~n ~gen ~(store : Protocol.store) ~next_uid
      () =
    let stable =
      {
        log_appended = store.append_log;
        log_truncated = store.truncate_log;
        checkpoint_recorded = store.append_checkpoint;
        checkpoints_discarded_after = store.discard_checkpoints_after;
        tokens_logged = store.write_tokens;
      }
    in
    (* {!Protocol.S}'s rule: a store with no checkpoint restarts from the
       initial state, as gen 0 does. *)
    let restore =
      match if gen = 0 then [] else store.load_checkpoints () with
      | [] -> None
      | im_checkpoints ->
          Some
            {
              im_log = store.load_log ();
              im_checkpoints;
              im_tokens = store.load_tokens ();
            }
    in
    let p =
      Process.create_rt ~rt ~net ~app ~id ~n ~config ~stable ?restore ~next_uid
        ()
    in
    store.write_gen gen;
    p

  let incarnation p = Some (version p)

  let recovery_profile p =
    let m = metrics p in
    (Metrics.Scope.get m "replayed", Metrics.Scope.get m "log_truncated")

  let finish = flush_now
end

(* --- Damani-Garg's simulated implementation ---

   The sim twin of [Dg_live]: [Process] on the engine, whose counters
   also carry the Section 6.9(3) history footprint. *)

module Dg_sim = struct
  include Dg_live

  type config = Types.config

  let create ~engine ~net ~app ~id ~n ?config ?tracer ?metrics ~next_uid () =
    Process.create ~engine ~net ~app ~id ~n ?config ?tracer ?metrics ~next_uid
      ()

  let counters p = ("history_records", history_record_count p) :: counters p
  let check_rules = Check.all_ids
end

(* --- the table --- *)

(* The Damani-Garg variants report ground truth; the baselines none. *)
let dg ?live id name aliases sim =
  { id; name; aliases; fifo = false; ground_truth = true; sim; live }

let baseline ?(fifo = false) ?live id name aliases sim =
  { id; name; aliases; fifo; ground_truth = false; sim; live }

let entries =
  [
    dg Dg "damani-garg" [ "dg" ] (module Dg_sim) ~live:(module Dg_live);
    (* the Section 6.1 deliverability hold off, whatever config it gets *)
    dg Dg_nohold "damani-garg-nohold" []
      (Protocol.with_config
         (module Dg_sim)
         { Types.default_config with hold_undeliverable = false });
    baseline Pessimist "pessimistic" [ "pessimist" ]
      (module Pessimistic)
      ~live:(module Protocol.Live (Pessimistic));
    baseline Sender "sender-based" [ "sender"; "sb" ]
      (module Sender_based)
      ~live:(module Protocol.Live (Sender_based));
    baseline Sy "strom-yemini" [ "sy" ]
      (module Strom_yemini)
      ~fifo:true
      ~live:(module Protocol.Live (Strom_yemini));
    baseline Pk "peterson-kearns" [] (module Peterson_kearns) ~fifo:true;
    baseline Cpo "checkpoint-only" [ "cpo" ]
      (module Checkpoint_only)
      ~live:(module Protocol.Live (Checkpoint_only));
    baseline Koo "coordinated" [ "koo-toueg"; "koo" ]
      (module Coordinated)
      ~live:(module Protocol.Live (Coordinated));
  ]

let entry id = List.find (fun e -> e.id = id) entries
let all = List.map (fun e -> e.id) entries
let name id = (entry id).name

let check_rules id =
  let module M = (val (entry id).sim) in
  M.check_rules

let fifo id = (entry id).fifo

let of_string s =
  List.find_map
    (fun e -> if e.name = s || List.mem s e.aliases then Some e.id else None)
    entries

(* Whether the oracle can audit a run: [Ok ()], or a one-line error
   naming the protocols it can. *)
let ground_truth id =
  if (entry id).ground_truth then Ok ()
  else
    let names = List.filter (fun e -> e.ground_truth) entries in
    Error
      (Printf.sprintf
         "%s reports no ground truth to the oracle (oracle protocols: %s)"
         (name id)
         (String.concat " | " (List.map (fun e -> e.name) names)))

let live_protocols =
  List.filter_map (fun e -> Option.map (fun _ -> e.id) e.live) entries

(* The live protocols' names, for help texts and errors. *)
let live_names = String.concat " | " (List.map name live_protocols)

(* The live implementation, or a one-line error naming the live
   protocols. *)
let live id =
  Option.to_result (entry id).live
    ~none:
      (Printf.sprintf "%s has no live implementation (live protocols: %s)"
         (name id) live_names)

(* A merged live trace has no ground-truth oracle beside it, so the
   online-only rules cannot run over it. *)
let live_check_rules id =
  List.filter (fun r -> List.mem r Check.offline_ids) (check_rules id)
