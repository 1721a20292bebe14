module Stats = Optimist_util.Stats

type labels = { protocol : string; process : int }

module S = struct
  type t = {
    labels : labels;
    counters : Stats.Counters.t;
    gauges : (string, float ref) Hashtbl.t;
    summaries : (string, Stats.Summary.t) Hashtbl.t;
    histograms : (string, Stats.Histogram.t) Hashtbl.t;
  }

  let make labels =
    {
      labels;
      counters = Stats.Counters.create ();
      gauges = Hashtbl.create 4;
      summaries = Hashtbl.create 4;
      histograms = Hashtbl.create 4;
    }

  let labels t = t.labels

  let incr ?by t name = Stats.Counters.incr ?by t.counters name

  let get t name = Stats.Counters.get t.counters name

  let counters t = Stats.Counters.to_list t.counters

  type counter = Stats.Counters.counter

  let counter t name = Stats.Counters.counter t.counters name

  let bump = Stats.Counters.bump

  let sorted_bindings tbl read =
    Hashtbl.fold (fun k v acc -> (k, read v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let set_gauge t name v =
    match Hashtbl.find_opt t.gauges name with
    | Some r -> r := v
    | None -> Hashtbl.add t.gauges name (ref v)

  let gauge t name =
    match Hashtbl.find_opt t.gauges name with Some r -> !r | None -> 0.0

  let gauges t = sorted_bindings t.gauges ( ! )

  let observe t name v =
    let s =
      match Hashtbl.find_opt t.summaries name with
      | Some s -> s
      | None ->
          let s = Stats.Summary.create () in
          Hashtbl.add t.summaries name s;
          s
    in
    Stats.Summary.add s v

  let summary t name = Hashtbl.find_opt t.summaries name

  let observe_hist ?buckets t name v =
    let h =
      match Hashtbl.find_opt t.histograms name with
      | Some h -> h
      | None ->
          let h = Stats.Histogram.create ?buckets () in
          Hashtbl.add t.histograms name h;
          h
    in
    Stats.Histogram.add h v

  let histogram t name = Hashtbl.find_opt t.histograms name

  (* One flat, name-sorted list of floats: the payload of a
     [Trace.Snapshot] record. Summaries and histograms are flattened to
     a few derived values so the snapshot stays shallow. *)
  let snapshot t =
    let counters = List.map (fun (k, v) -> (k, float_of_int v)) (counters t) in
    let summaries =
      sorted_bindings t.summaries Fun.id
      |> List.concat_map (fun (k, s) ->
             [
               (k ^ ".count", float_of_int (Stats.Summary.count s));
               (k ^ ".mean", Stats.Summary.mean s);
               (k ^ ".max", Stats.Summary.max s);
             ])
    in
    let histograms =
      sorted_bindings t.histograms Fun.id
      |> List.concat_map (fun (k, h) ->
             [
               (k ^ ".count", float_of_int (Stats.Histogram.count h));
               (k ^ ".p50", Stats.Histogram.quantile h 0.5);
               (k ^ ".p95", Stats.Histogram.quantile h 0.95);
             ])
    in
    counters @ gauges t @ summaries @ histograms
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let pp ppf t =
    Format.fprintf ppf "@[<v>%s/p%d:" t.labels.protocol t.labels.process;
    List.iter
      (fun (k, v) -> Format.fprintf ppf "@,  %-24s %d" k v)
      (counters t);
    List.iter
      (fun (k, v) -> Format.fprintf ppf "@,  %-24s %g" k v)
      (gauges t);
    sorted_bindings t.summaries Fun.id
    |> List.iter (fun (k, s) ->
           Format.fprintf ppf "@,  %-24s %a" k Stats.Summary.pp s);
    Format.fprintf ppf "@]"
end

type registry = { mutable scopes_rev : S.t list }

let registry () = { scopes_rev = [] }

let scope_create ?registry ~protocol ~process () =
  let s = S.make { protocol; process } in
  (match registry with
  | Some r -> r.scopes_rev <- s :: r.scopes_rev
  | None -> ());
  s

let scopes r =
  List.rev_map (fun s -> (S.labels s, s)) r.scopes_rev

let selected ?protocol r =
  List.rev r.scopes_rev
  |> List.filter (fun (s : S.t) ->
         match protocol with
         | None -> true
         | Some p -> (S.labels s).protocol = p)

let total ?protocol r name =
  List.fold_left
    (fun acc s -> acc + S.get s name)
    0
    (selected ?protocol r)

type agg = { count : int; total : float; mean : float; min : float; max : float }

let aggregate ?protocol r name =
  let zero = { count = 0; total = 0.0; mean = 0.0; min = 0.0; max = 0.0 } in
  let merge acc s =
    match S.summary s name with
    | None -> acc
    | Some summ when Stats.Summary.count summ = 0 -> acc
    | Some summ ->
        let c = Stats.Summary.count summ in
        let t = Stats.Summary.total summ in
        let mn = Stats.Summary.min summ and mx = Stats.Summary.max summ in
        if acc.count = 0 then
          { count = c; total = t; mean = t /. float_of_int c; min = mn; max = mx }
        else
          let count = acc.count + c in
          let total = acc.total +. t in
          {
            count;
            total;
            mean = total /. float_of_int count;
            min = Float.min acc.min mn;
            max = Float.max acc.max mx;
          }
  in
  List.fold_left merge zero (selected ?protocol r)

let pp ppf r =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i (_, s) ->
      if i > 0 then Format.fprintf ppf "@,";
      S.pp ppf s)
    (scopes r);
  Format.fprintf ppf "@]"

module Scope = struct
  include S

  let create = scope_create
end
