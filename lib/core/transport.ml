module Engine = Optimist_sim.Engine
module Network = Optimist_net.Network
module Trace = Optimist_obs.Trace

type lane = Data | Control

type 'a t = {
  send : lane:lane -> src:int -> dst:int -> 'a -> unit;
  broadcast : lane:lane -> src:int -> 'a -> unit;
  set_handler : int -> ('a -> unit) -> unit;
  set_down : int -> unit;
  set_up : drop_held_data:bool -> int -> unit;
}

type runtime = {
  now : unit -> float;
  schedule :
    ?label:Engine.label -> daemon:bool -> delay:float -> (unit -> unit) -> unit;
  tracer : unit -> Trace.t;
}

(* [Some Network.Data] and [Some Network.Control] are constants, so
   passing a lane's traffic to the optional argument allocates nothing. *)
let net_lane = function
  | Data -> Some Network.Data
  | Control -> Some Network.Control

let of_network net =
  {
    send =
      (fun ~lane ~src ~dst payload ->
        Network.send net ?traffic:(net_lane lane) ~src ~dst payload);
    broadcast =
      (fun ~lane ~src payload ->
        Network.broadcast net ?traffic:(net_lane lane) ~src payload);
    set_handler =
      (fun id f -> Network.set_handler net id (fun env -> f env.Network.payload));
    set_down = (fun id -> Network.set_down net id);
    set_up =
      (fun ~drop_held_data id -> Network.set_up net ~drop_held_data id);
  }

let of_engine engine =
  {
    now = (fun () -> Engine.now engine);
    schedule =
      (fun ?label ~daemon ~delay action ->
        ignore (Engine.schedule engine ~daemon ?label ~delay action));
    tracer = (fun () -> Engine.tracer engine);
  }
