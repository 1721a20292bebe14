module Summary = struct
  type t = {
    mutable count : int;
    mutable total : float;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    { count = 0; total = 0.0; mean = 0.0; m2 = 0.0; min = 0.0; max = 0.0 }

  (* Welford's online algorithm keeps the variance numerically stable for
     long runs. *)
  let add t x =
    t.count <- t.count + 1;
    t.total <- t.total +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if t.count = 1 then begin
      t.min <- x;
      t.max <- x
    end
    else begin
      if x < t.min then t.min <- x;
      if x > t.max then t.max <- x
    end

  let count t = t.count
  let total t = t.total
  let mean t = if t.count = 0 then 0.0 else t.mean
  let variance t = if t.count < 2 then 0.0 else t.m2 /. float_of_int t.count
  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max

  let pp ppf t =
    if t.count = 0 then Format.fprintf ppf "n=0"
    else
      Format.fprintf ppf "n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f" t.count
        (mean t) (stddev t) t.min t.max
end

module Histogram = struct
  type t = {
    bounds : float array;
    counts : int array; (* length = Array.length bounds + 1, last = overflow *)
    mutable count : int;
    mutable sum : float;
  }

  (* Half-decade steps computed as exact powers so that round values like
     10.0 or 1000.0 compare equal to their bucket's upper bound instead of
     drifting past it through repeated multiplication. *)
  let default_buckets =
    let rec loop acc k =
      let x = 10.0 ** (float_of_int k /. 2.0) in
      if x > 1.0e6 then List.rev acc else loop (x :: acc) (k + 1)
    in
    Array.of_list (loop [] 0)

  let create ?(buckets = default_buckets) () =
    {
      bounds = buckets;
      counts = Array.make (Array.length buckets + 1) 0;
      count = 0;
      sum = 0.0;
    }

  (* An observation equal to an upper bound lands in that bucket: buckets
     are (lower, upper] intervals, matching Prometheus semantics. *)
  let add t x =
    let n = Array.length t.bounds in
    let rec find i = if i >= n || x <= t.bounds.(i) then i else find (i + 1) in
    let i = find 0 in
    t.counts.(i) <- t.counts.(i) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum +. x

  let count t = t.count
  let sum t = t.sum
  let bounds t = Array.copy t.bounds
  let counts t = Array.copy t.counts

  let merge a b =
    if a.bounds <> b.bounds then
      invalid_arg "Histogram.merge: incompatible bucket bounds";
    let t = create ~buckets:a.bounds () in
    Array.iteri (fun i c -> t.counts.(i) <- c + b.counts.(i)) a.counts;
    t.count <- a.count + b.count;
    t.sum <- a.sum +. b.sum;
    t

  let percentile t q =
    if t.count = 0 then nan
    else begin
      let target = q *. float_of_int t.count in
      let n = Array.length t.bounds in
      let rec loop i acc =
        if i > n then infinity
        else
          let acc = acc + t.counts.(i) in
          if float_of_int acc >= target then
            if i < n then t.bounds.(i) else infinity
          else loop (i + 1) acc
      in
      loop 0 0
    end

  (* Linear interpolation within the bucket containing the target rank,
     assuming observations spread uniformly over (lower, upper]. The
     overflow bucket has no upper bound, so its answer is the last finite
     bound (a lower bound on the truth) — still monotone in [q]. *)
  let quantile t q =
    if t.count = 0 then nan
    else begin
      let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
      let target = q *. float_of_int t.count in
      let n = Array.length t.bounds in
      let rec loop i seen =
        if i > n then if n = 0 then infinity else t.bounds.(n - 1)
        else
          let here = t.counts.(i) in
          if here > 0 && float_of_int (seen + here) >= target then
            if i >= n then (if n = 0 then infinity else t.bounds.(n - 1))
            else
              let lower = if i = 0 then 0.0 else t.bounds.(i - 1) in
              let upper = t.bounds.(i) in
              let into = (target -. float_of_int seen) /. float_of_int here in
              let into = if into < 0.0 then 0.0 else into in
              lower +. ((upper -. lower) *. into)
          else loop (i + 1) (seen + here)
      in
      loop 0 0
    end

  let pp ppf t =
    Format.fprintf ppf "n=%d p50<=%.1f p99<=%.1f" t.count (percentile t 0.5)
      (percentile t 0.99)
end

module Counters = struct
  type t = (string, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let cell t name =
    match Hashtbl.find_opt t name with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add t name r;
        r

  let incr ?(by = 1) t name =
    let r = cell t name in
    r := !r + by

  (* [slot] stays [None] until the first increment, so a handle alone
     never makes its name appear in [to_list]. *)
  type counter = { tbl : t; name : string; mutable slot : int ref option }

  let counter tbl name = { tbl; name; slot = None }

  let bump ?(by = 1) h =
    match h.slot with
    | Some r -> r := !r + by
    | None ->
        let r = cell h.tbl h.name in
        h.slot <- Some r;
        r := !r + by

  let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

  let to_list t =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let pp ppf t =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf "@\n")
      (fun ppf (k, v) -> Format.fprintf ppf "%-40s %d" k v)
      ppf (to_list t)
end
