(* One recovery protocol as the harnesses see it.

   Every protocol — the paper's ({!Process}) and the Table 1 baselines
   in [lib/protocols] — has a simulated face ({!SIM}: the discrete-event
   engine and the simulated network) and may have a live one ({!S}: the
   Transport seam over an on-disk store). [Optimist_protocols.Registry]
   holds both per protocol, so the runner, the model checker and the
   live worker drive any protocol without naming it. *)

module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Metrics = Optimist_obs.Metrics

(* Stable storage as a protocol sees it, whatever the medium. The fields
   are polymorphic because the live store marshals: a store belongs to
   one protocol, which reads back the types it wrote. *)
type store = {
  append_log : 'e. 'e list -> unit;  (** newly stable entries, oldest first *)
  truncate_log : stable:int -> unit;
  append_checkpoint : 'c. position:int -> 'c -> unit;
  discard_checkpoints_after : position:int -> unit;
  write_tokens : 'tk. 'tk list -> unit;  (** replaces the whole list *)
  write_gen : int -> unit;
  load_log : 'e. unit -> 'e array;
  load_checkpoints : 'c. unit -> ('c * int) list;  (** newest first *)
  load_tokens : 'tk. unit -> 'tk list;
  load_gen : unit -> int;
}

(* The store of a process whose crashes are simulated: writes go nowhere,
   and a gen 0 process never reads. *)
let null_store =
  {
    append_log = (fun _ -> ());
    truncate_log = (fun ~stable:_ -> ());
    append_checkpoint = (fun ~position:_ _ -> ());
    discard_checkpoints_after = (fun ~position:_ -> ());
    write_tokens = (fun _ -> ());
    write_gen = (fun _ -> ());
    load_log = (fun () -> [||]);
    load_checkpoints = (fun () -> []);
    load_tokens = (fun () -> []);
    load_gen = (fun () -> 0);
  }

(* What the live worker asks of a running process, besides its state. *)
module type RUNNING = sig
  type ('s, 'm) t

  val recover : ('s, 'm) t -> unit
  val metrics : ('s, 'm) t -> Metrics.Scope.t
  val counters : ('s, 'm) t -> (string * int) list

  val incarnation : ('s, 'm) t -> int option
  (** The protocol's own incarnation number; [None] for protocols that
      keep none, whose live incarnation is the worker's generation. *)

  val recovery_profile : ('s, 'm) t -> int * int
  (** [(replayed, depth)] after {!recover}: messages replayed from the
      log, and the surviving work the recovery discarded. *)

  val finish : ('s, 'm) t -> unit
  (** Called once when the run ends (flushes what is still volatile). *)
end

(* The live face. [create_rt] builds incarnation [gen] of a process over
   [store], writing every stable transition to it. Gen 0 starts from the
   initial state; gen > 0 reloads what the store holds, and [recover]
   then runs the protocol's restart.

   One rule for every protocol: a gen > 0 incarnation whose store holds no
   checkpoint (killed before the first one reached disk) starts from the
   initial state exactly as gen 0 would, initial checkpoint included, and
   then runs [recover]. *)
module type S = sig
  type 'm wire

  include RUNNING

  val create_rt :
    rt:Transport.runtime ->
    net:'m wire Transport.t ->
    app:('s, 'm) Types.app ->
    id:int ->
    n:int ->
    gen:int ->
    store:store ->
    next_uid:(unit -> int) ->
    unit ->
    ('s, 'm) t

  val inject : ('s, 'm) t -> 'm -> unit
  val state : ('s, 'm) t -> 's
end

(* The simulated face, which one builder ([Optimist_runner.Runner.build])
   drives for every protocol. The baselines export it as they are;
   Damani-Garg's {!Process} through [Registry.Dg_sim]. *)
module type SIM = sig
  type ('s, 'm) t
  type 'm wire
  type config

  val create :
    engine:Engine.t ->
    net:'m wire Network.t ->
    app:('s, 'm) Types.app ->
    id:int ->
    n:int ->
    ?config:config ->
    ?tracer:Types.tracer ->
    ?metrics:Metrics.Scope.t ->
    next_uid:(unit -> int) ->
    unit ->
    ('s, 'm) t
  (** [tracer] receives the ground truth the oracle audits. Only
      Damani-Garg reports it ([Registry]'s [ground_truth]); the
      baselines ignore it. *)

  val inject : ('s, 'm) t -> 'm -> unit
  val fail : ('s, 'm) t -> unit
  val alive : ('s, 'm) t -> bool
  val state : ('s, 'm) t -> 's
  val counters : ('s, 'm) t -> (string * int) list
  val incarnation : ('s, 'm) t -> int option

  val check_rules : string list
  (** The sanitizer rules the protocol's traces satisfy. *)
end

(* [M] with every process built at [config], whatever [create] is
   given. *)
let with_config (type c) (module M : SIM with type config = c) (config : c)
    : (module SIM) =
  (module struct
    include M

    let create ~engine ~net ~app ~id ~n ?config:_ ?tracer ?metrics ~next_uid
        () =
      M.create ~engine ~net ~app ~id ~n ~config ?tracer ?metrics ~next_uid ()
  end)

(* A baseline carries both faces in one module: [create] is [create_rt]
   on the engine with {!null_store} at gen 0. *)
module type BASELINE = sig
  include SIM
  include RUNNING with type ('s, 'm) t := ('s, 'm) t

  val live_config : config
  (** Timer settings for the live runtime: seconds, not the simulator's
      virtual units. *)

  val create_rt :
    rt:Transport.runtime ->
    net:'m wire Transport.t ->
    app:('s, 'm) Types.app ->
    id:int ->
    n:int ->
    ?config:config ->
    ?metrics:Metrics.Scope.t ->
    gen:int ->
    store:store ->
    next_uid:(unit -> int) ->
    unit ->
    ('s, 'm) t
end

(* A baseline's live face: its own constructor at its live settings. *)
module Live (B : BASELINE) : S = struct
  include B

  let create_rt ~rt ~net ~app ~id ~n ~gen ~store ~next_uid () =
    B.create_rt ~rt ~net ~app ~id ~n ~config:B.live_config ~gen ~store
      ~next_uid ()
end
