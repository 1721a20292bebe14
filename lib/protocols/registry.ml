(* The one table of recovery protocols and their variants. Every
   harness — the experiment runner, the model checker, the live worker,
   the soak and cluster drivers and the CLI — decides "which protocol is
   this" here and nowhere else: one enum, one name table, each entry's
   sanitizer rules, its channel assumption, and its simulated and live
   implementations. A variant is its base's module with one edit. *)

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
    | Skip_piggyback  (** mutants, see [entries] *)
    | Skip_dedup
    | Eager_rollback
    | Ack_before_fsync
end

include Ids

(* A deliberately broken variant the model checker must catch. *)
type mutant = {
  rule : string;  (** the offline-checkable rule it must trip *)
  doc : string;
  dup : bool;  (** explored under a duplicating network *)
}

type entry = {
  id : id;
  name : string;  (** canonical: printed by every table, trace and summary *)
  aliases : string list;  (** also accepted on input *)
  base : id;  (** the protocol a variant varies; its own id otherwise *)
  mutant : mutant option;
  fifo : bool;  (** assumes FIFO channels *)
  ground_truth : bool;
      (** reports to the oracle through {!Protocol.SIM}'s [tracer] *)
  sim : (module Protocol.SIM);
  mc : (module Protocol.SIM);  (** [sim] at the model checker's periods *)
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

(* --- timer settings ---

   The model checker runs Damani-Garg and the pessimistic logger at
   short periods relative to its 1.0 delivery latency, so timer events
   race with deliveries inside small exploration depths; the other
   protocols run at their defaults there too. *)

let dg_mc_config =
  {
    Types.default_config with
    flush_interval = 3.0;
    checkpoint_interval = 11.0;
    restart_delay = 5.0;
  }

let pessimistic_mc_config =
  {
    Pessimistic.sync_write_latency = 0.5;
    checkpoint_interval = 4.0;
    restart_delay = 5.0;
    ack_before_fsync = false;
  }

(* [M] with one config edit, as the [sim] and [mc] faces. *)
let faces (type c) (module M : Protocol.SIM with type config = c) ~sim ~mc
    edit =
  let face c = Protocol.with_config (module M) (edit c) in
  (face sim, face mc)

let dg_faces = faces (module Dg_sim) ~sim:Types.default_config ~mc:dg_mc_config

let pessimistic_faces =
  faces (module Pessimistic) ~sim:Pessimistic.default_config
    ~mc:pessimistic_mc_config

(* --- the table --- *)

let protocol ?(fifo = false) ?(ground_truth = false) ?live id name aliases
    (sim, mc) =
  { id; name; aliases; base = id; mutant = None; fifo; ground_truth; sim; mc;
    live }

let at_defaults (sim : (module Protocol.SIM)) = (sim, sim)

(* A sim-only variant of [base]: its channel, its oracle, new faces. *)
let variant ?mutant (base : entry) id name (sim, mc) =
  { base with id; name; aliases = []; base = base.id; mutant; sim; mc;
    live = None }

let mutant ?(dup = false) base id name ~rule ~doc =
  variant ~mutant:{ rule; doc; dup } base id name

let dg =
  protocol Dg "damani-garg" [ "dg" ] ~ground_truth:true
    (dg_faces Fun.id) ~live:(module Dg_live)

let pessimistic =
  protocol Pessimist "pessimistic" [ "pessimist" ]
    (pessimistic_faces Fun.id)
    ~live:(module Protocol.Live (Pessimistic))

let entries =
  [
    dg;
    (* the Section 6.1 deliverability hold off *)
    variant dg Dg_nohold "damani-garg-nohold"
      (dg_faces (fun c -> { c with hold_undeliverable = false }));
    pessimistic;
    protocol Sender "sender-based" [ "sender"; "sb" ]
      (at_defaults (module Sender_based))
      ~live:(module Protocol.Live (Sender_based));
    protocol Sy "strom-yemini" [ "sy" ]
      (at_defaults (module Strom_yemini))
      ~fifo:true
      ~live:(module Protocol.Live (Strom_yemini));
    protocol Pk "peterson-kearns" [] (at_defaults (module Peterson_kearns))
      ~fifo:true;
    protocol Cpo "checkpoint-only" [ "cpo" ]
      (at_defaults (module Checkpoint_only))
      ~live:(module Protocol.Live (Checkpoint_only));
    protocol Koo "coordinated" [ "koo-toueg"; "koo" ]
      (at_defaults (module Coordinated))
      ~live:(module Protocol.Live (Coordinated));
    (* The mutants: each disables one mechanism, and its rule is
       offline-checkable, so a replayed counterexample also fails
       [recsim check --strict]. *)
    mutant dg Skip_piggyback "skip-piggyback" ~rule:"OPT004"
      ~doc:"process 0 sends a zeroed FTVC on the 0->1 edge"
      (dg_faces (fun c -> { c with mutation = M_drop_piggyback }));
    mutant dg Skip_dedup "skip-dedup" ~rule:"OPT003" ~dup:true
      ~doc:
        "duplicate-uid suppression disabled (explored under a duplicating \
         network)"
      (dg_faces (fun c -> { c with mutation = M_skip_dedup }));
    mutant dg Eager_rollback "eager-rollback" ~rule:"OPT011"
      ~doc:"rolls back on every token, detected orphan or not"
      (dg_faces (fun c -> { c with mutation = M_eager_rollback }));
    mutant pessimistic Ack_before_fsync "ack-before-fsync" ~rule:"OPT013"
      ~doc:"pessimistic logger delivers before the entry is stable"
      (pessimistic_faces (fun c -> { c with ack_before_fsync = true }));
  ]

let entry id = List.find (fun e -> e.id = id) entries
let ids p = List.filter_map (fun e -> if p e then Some e.id else None) entries

(* The protocols, and the mutants [recsim list] does not print. *)
let all = ids (fun e -> e.mutant = None)
let mutants = ids (fun e -> e.mutant <> None)
let name id = (entry id).name
let base id = (entry id).base

(* How the model checker labels a run: a mutant as its base protocol
   and its own name (the mutation), any other entry by its name alone. *)
let protocol_and_mutation id =
  let e = entry id in
  if e.mutant = None then (e.name, "") else (name e.base, e.name)

let check_rules id =
  let module M = (val (entry id).sim) in
  M.check_rules

let fifo id = (entry id).fifo

let of_string s =
  List.find_map
    (fun e -> if e.name = s || List.mem s e.aliases then Some e.id else None)
    entries

(* Whether the oracle can audit a run: [Ok ()], or a one-line error
   naming the protocols (not the mutants) it can. *)
let ground_truth id =
  if (entry id).ground_truth then Ok ()
  else
    let names = List.filter (fun id -> (entry id).ground_truth) all in
    Error
      (Printf.sprintf
         "%s reports no ground truth to the oracle (oracle protocols: %s)"
         (name id)
         (String.concat " | " (List.map name names)))

let live_protocols = ids (fun e -> e.live <> None)

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
