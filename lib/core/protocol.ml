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

(* The live face. [create_rt] maps the protocol's stable hooks onto
   [store] and, for [gen > 0], rebuilds the process from the image the
   store holds; [recover] then runs the protocol's restart. *)
module type S = sig
  type ('s, 'm) t
  type 'm wire

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

  val recover : ('s, 'm) t -> unit
  val inject : ('s, 'm) t -> 'm -> unit
  val state : ('s, 'm) t -> 's
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

(* The simulated face: exactly the surface every baseline module
   already exports. *)
module type SIM = sig
  type ('s, 'm) t
  type 'm wire
  type config

  val make_net : Engine.t -> Network.config -> 'm wire Network.t

  val create :
    engine:Engine.t ->
    net:'m wire Network.t ->
    app:('s, 'm) Types.app ->
    id:int ->
    n:int ->
    ?config:config ->
    ?metrics:Metrics.Scope.t ->
    next_uid:(unit -> int) ->
    unit ->
    ('s, 'm) t

  val inject : ('s, 'm) t -> 'm -> unit
  val fail : ('s, 'm) t -> unit
  val alive : ('s, 'm) t -> bool
  val state : ('s, 'm) t -> 's

  val check_rules : string list
  (** The sanitizer rules the protocol's traces satisfy. *)
end
