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

(* How the simulator runs a protocol: the Damani-Garg variants through
   [Optimist_core.System] (oracle, partitions, network statistics), the
   baselines through their sim surface. *)
type sim = System of { hold : bool } | Sim of (module Protocol.SIM)

type entry = {
  id : id;
  name : string;  (** canonical: printed by every table, trace and summary *)
  aliases : string list;  (** also accepted on input *)
  check_rules : string list;  (** sanitizer rules its traces satisfy *)
  fifo : bool;  (** assumes FIFO channels *)
  sim : sim;
  live : (module Protocol.S) option;  (** [None]: simulation only *)
}

(* --- live implementations ---

   Each maps its protocol's stable hooks and restore image onto the
   store record, with the live runtime's timer settings (seconds, not
   the simulator's virtual units). *)

let image ~gen load = if gen > 0 then Some (load ()) else None
let counter name m = Metrics.Scope.get m name

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
    let restore =
      image ~gen (fun () ->
          {
            im_log = store.load_log ();
            im_checkpoints = store.load_checkpoints ();
            im_tokens = store.load_tokens ();
          })
    in
    let p =
      Process.create_rt ~rt ~net ~app ~id ~n ~config ~stable ?restore ~next_uid
        ()
    in
    store.write_gen gen;
    p

  let incarnation p = Some (version p)

  let recovery_profile p =
    (counter "replayed" (metrics p), counter "log_truncated" (metrics p))

  let finish = flush_now
end

module Pessimistic_live = struct
  include Pessimistic

  let config =
    {
      default_config with
      sync_write_latency = 0.002;
      checkpoint_interval = 1.0;
      restart_delay = 0.3;
    }

  let create_rt ~rt ~net ~app ~id ~n ~gen ~(store : Protocol.store) ~next_uid
      () =
    let stable =
      {
        log_appended = store.append_log;
        checkpoint_recorded = store.append_checkpoint;
        epoch_recorded = store.write_gen;
      }
    in
    let restore =
      image ~gen (fun () ->
          {
            im_log = store.load_log ();
            im_checkpoints = store.load_checkpoints ();
            im_epoch = store.load_gen ();
          })
    in
    Pessimistic.create_rt ~rt ~net ~app ~id ~n ~config ~stable ?restore
      ~next_uid ()

  let incarnation _ = None

  (* Recovery is local: surviving state is never rolled back. *)
  let recovery_profile p = (counter "replayed" (metrics p), 0)
  let finish _ = ()
end

module Sender_live = struct
  include Sender_based

  let config = { checkpoint_interval = 1.0; restart_delay = 0.3 }

  let create_rt ~rt ~net ~app ~id ~n ~gen ~(store : Protocol.store) ~next_uid
      () =
    let stable =
      {
        checkpoint_recorded = store.append_checkpoint;
        epoch_recorded = store.write_gen;
      }
    in
    let restore =
      image ~gen (fun () ->
          {
            im_checkpoints = store.load_checkpoints ();
            im_epoch = store.load_gen ();
          })
    in
    Sender_based.create_rt ~rt ~net ~app ~id ~n ~config ~stable ?restore
      ~next_uid ()

  let incarnation _ = None

  (* Retransmissions arrive asynchronously after the broadcast, so
     [replayed] counts only what was in by the time recover returned;
     peers never roll back. *)
  let recovery_profile p = (counter "replayed" (metrics p), 0)
  let finish _ = ()
end

module Sy_live = struct
  include Strom_yemini

  let config =
    { checkpoint_interval = 1.0; flush_interval = 0.25; restart_delay = 0.3 }

  let create_rt ~rt ~net ~app ~id ~n ~gen ~(store : Protocol.store) ~next_uid
      () =
    (* The announcement table is small and rewritten whole on every
       change (a single-blob slot, like D-G's token log). *)
    let announcements : announcement list ref = ref (store.load_tokens ()) in
    let stable =
      {
        log_flushed = store.append_log;
        log_truncated = (fun stable -> store.truncate_log ~stable);
        checkpoint_recorded = store.append_checkpoint;
        checkpoints_discarded_after = store.discard_checkpoints_after;
        announcement_recorded =
          (fun a ->
            announcements := a :: !announcements;
            store.write_tokens !announcements);
      }
    in
    let restore =
      image ~gen (fun () ->
          {
            im_log = store.load_log ();
            im_checkpoints = store.load_checkpoints ();
            im_announcements = !announcements;
          })
    in
    let p =
      Strom_yemini.create_rt ~rt ~net ~app ~id ~n ~config ~stable ?restore
        ~next_uid ()
    in
    store.write_gen gen;
    p

  let incarnation p = Some (incarnation p)

  let recovery_profile p =
    (counter "replayed" (metrics p), counter "log_truncated" (metrics p))

  let finish _ = ()
end

module Cpo_live = struct
  include Checkpoint_only

  let config = { checkpoint_interval = 1.0; restart_delay = 0.3 }

  let create_rt ~rt ~net ~app ~id ~n ~gen ~(store : Protocol.store) ~next_uid
      () =
    let stable =
      {
        checkpoint_recorded = store.append_checkpoint;
        checkpoints_discarded_after = store.discard_checkpoints_after;
        aux_recorded = (fun aux -> store.write_tokens [ aux ]);
      }
    in
    let restore =
      image ~gen (fun () ->
          let aux =
            match store.load_tokens () with
            | a :: _ -> a
            | [] ->
                {
                  ax_epoch = 0;
                  ax_floor = Array.make n max_int;
                  ax_peer_epoch = Array.make n 0;
                }
          in
          { im_checkpoints = store.load_checkpoints (); im_aux = aux })
    in
    let p =
      Checkpoint_only.create_rt ~rt ~net ~app ~id ~n ~config ~stable ?restore
        ~next_uid ()
    in
    store.write_gen gen;
    p

  let incarnation _ = None

  (* No log, so nothing replays; the cost is the work forfeited. *)
  let recovery_profile p = (0, counter "lost_states" (metrics p))
  let finish _ = ()
end

module Koo_live = struct
  include Coordinated

  let config = { checkpoint_interval = 1.0; restart_delay = 0.3 }

  let create_rt ~rt ~net ~app ~id ~n ~gen ~(store : Protocol.store) ~next_uid
      () =
    let stable =
      {
        snapshot_committed =
          (fun sn -> store.append_checkpoint ~position:sn.sn_round sn);
        aux_recorded = (fun aux -> store.write_tokens [ aux ]);
      }
    in
    let restore =
      image ~gen (fun () ->
          let committed =
            match store.load_checkpoints () with
            | (sn, _) :: _ -> sn
            | [] -> { sn_state = app.Types.init id; sn_round = 0 }
          in
          let aux =
            match store.load_tokens () with
            | a :: _ -> a
            | [] -> { ax_epoch = 0; ax_peer_epoch = Array.make n 0; ax_round = 0 }
          in
          { im_committed = committed; im_aux = aux })
    in
    let p =
      Coordinated.create_rt ~rt ~net ~app ~id ~n ~config ~stable ?restore
        ~next_uid ()
    in
    store.write_gen gen;
    p

  let incarnation _ = None
  let recovery_profile p = (0, counter "lost_states" (metrics p))
  let finish _ = ()
end

(* --- the table --- *)

(* The Damani-Garg variants carry every sanitizer rule; each baseline
   declares its own subset. *)
let dg ?live id name aliases ~hold =
  let sim = System { hold } in
  { id; name; aliases; check_rules = Check.all_ids; fifo = false; sim; live }

let baseline ?(fifo = false) ?live id name aliases (module M : Protocol.SIM) =
  let sim = Sim (module M) in
  { id; name; aliases; check_rules = M.check_rules; fifo; sim; live }

let entries =
  [
    dg Dg "damani-garg" [ "dg" ] ~hold:true ~live:(module Dg_live);
    dg Dg_nohold "damani-garg-nohold" [] ~hold:false;
    baseline Pessimist "pessimistic" [ "pessimist" ]
      (module Pessimistic)
      ~live:(module Pessimistic_live);
    baseline Sender "sender-based" [ "sender"; "sb" ]
      (module Sender_based)
      ~live:(module Sender_live);
    baseline Sy "strom-yemini" [ "sy" ]
      (module Strom_yemini)
      ~fifo:true ~live:(module Sy_live);
    baseline Pk "peterson-kearns" [] (module Peterson_kearns) ~fifo:true;
    baseline Cpo "checkpoint-only" [ "cpo" ]
      (module Checkpoint_only)
      ~live:(module Cpo_live);
    baseline Koo "coordinated" [ "koo-toueg"; "koo" ]
      (module Coordinated)
      ~live:(module Koo_live);
  ]

let entry id = List.find (fun e -> e.id = id) entries
let all = List.map (fun e -> e.id) entries
let name id = (entry id).name
let check_rules id = (entry id).check_rules
let fifo id = (entry id).fifo

let of_string s =
  List.find_map
    (fun e -> if e.name = s || List.mem s e.aliases then Some e.id else None)
    entries

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
