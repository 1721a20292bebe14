module Json = Optimist_obs.Json
module Registry = Optimist_protocols.Registry
module Traffic = Optimist_workload.Traffic

type telemetry = Off | Ring | Full

let telemetry_name = function Off -> "off" | Ring -> "ring" | Full -> "full"

type t = {
  protocol : Registry.id;
  n : int;
  seed : int64;
  duration : float;
  settle : float;
  rate : float;
  hops : int;
  pattern : Traffic.pattern;
  kills : (float * int) list;
  net_faults : Link.faults;
  restart_delay : float;
  telemetry : telemetry;
}

let default =
  {
    protocol = Registry.Dg;
    n = 4;
    seed = 1L;
    duration = 3.0;
    settle = 2.0;
    rate = 8.0;
    hops = 3;
    pattern = Traffic.Uniform;
    kills = [];
    net_faults = Link.no_faults;
    restart_delay = 0.3;
    telemetry = Full;
  }

let validate p =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  let rate_ok r = Float.is_finite r && r >= 0.0 && r < 1.0 in
  let pid_ok pid = pid >= 0 && pid < p.n in
  match
    Result.iter_error (fail "%s") (Registry.live p.protocol);
    if p.n < 2 then fail "n must be at least 2 (got %d)" p.n;
    if p.duration <= 0.0 then fail "duration must be positive";
    if p.settle < 0.0 then fail "settle must be non-negative";
    if p.rate <= 0.0 then fail "rate must be positive";
    if p.restart_delay <= 0.0 then fail "restart delay must be positive";
    List.iter
      (fun (at, pid) ->
        if not (pid_ok pid) then
          fail "fault pid %d out of range [0, %d)" pid p.n;
        if at <= 0.0 || at >= p.duration then
          fail "fault time %g outside the injection window (0, %g)" at
            p.duration)
      p.kills;
    if not (rate_ok p.net_faults.drop_rate) then
      fail "drop rate must be in [0, 1) (got %g)" p.net_faults.drop_rate;
    if not (rate_ok p.net_faults.dup_rate) then
      fail "dup rate must be in [0, 1) (got %g)" p.net_faults.dup_rate;
    List.iter
      (fun (pt : Link.partition) ->
        if pt.pt_start < 0.0 || pt.pt_stop <= pt.pt_start then
          fail "partition window [%g, %g) is empty or negative" pt.pt_start
            pt.pt_stop;
        if pt.pt_island = [] then fail "partition island must not be empty";
        List.iter
          (fun pid ->
            if not (pid_ok pid) then
              fail "partition pid %d out of range [0, %d)" pid p.n)
          pt.pt_island)
      p.net_faults.partitions
  with
  | () -> Ok ()
  | exception Invalid_argument msg -> Error msg

let json_fields p =
  [
    ("protocol", Json.String (Registry.name p.protocol));
    ("telemetry", Json.String (telemetry_name p.telemetry));
    ("n", Json.Int p.n);
    ("seed", Json.String (Int64.to_string p.seed));
    ("duration", Json.Float p.duration);
    ("settle", Json.Float p.settle);
    ("rate", Json.Float p.rate);
    ("hops", Json.Int p.hops);
    ( "faults",
      Json.List
        (List.map
           (fun (at, pid) ->
             Json.Obj [ ("at", Json.Float at); ("pid", Json.Int pid) ])
           p.kills) );
    ("drop_rate", Json.Float p.net_faults.drop_rate);
    ("dup_rate", Json.Float p.net_faults.dup_rate);
    ( "partitions",
      Json.List
        (List.map
           (fun (pt : Link.partition) ->
             Json.Obj
               [
                 ("start", Json.Float pt.pt_start);
                 ("stop", Json.Float pt.pt_stop);
                 ("island", Json.List (List.map (fun i -> Json.Int i) pt.pt_island));
               ])
           p.net_faults.partitions) );
  ]
