(* Unit and property tests for optimist_util: PRNG, heap, stats, tables. *)

module Prng = Optimist_util.Prng
module Stats = Optimist_util.Stats
module Table = Optimist_util.Table

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create 99L and b = Prng.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_int_bounds () =
  let rng = Prng.create 7L in
  for _ = 1 to 10_000 do
    let x = Prng.int rng 17 in
    if x < 0 || x >= 17 then Alcotest.failf "out of range: %d" x
  done

let test_prng_int_in () =
  let rng = Prng.create 7L in
  for _ = 1 to 1000 do
    let x = Prng.int_in rng (-5) 5 in
    if x < -5 || x > 5 then Alcotest.failf "out of range: %d" x
  done

let test_prng_float_bounds () =
  let rng = Prng.create 3L in
  for _ = 1 to 10_000 do
    let x = Prng.float rng 2.5 in
    if x < 0.0 || x >= 2.5 then Alcotest.failf "out of range: %f" x
  done

let test_prng_split_independent () =
  let rng = Prng.create 1L in
  let a = Prng.split rng in
  let b = Prng.split rng in
  (* Different streams should diverge immediately. *)
  Alcotest.(check bool) "streams differ" true
    (Prng.next_int64 a <> Prng.next_int64 b)

let test_prng_bernoulli_extremes () =
  let rng = Prng.create 5L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Prng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always" true (Prng.bernoulli rng 1.0)
  done

let test_prng_exponential_mean () =
  let rng = Prng.create 11L in
  let s = ref 0.0 in
  let n = 100_000 in
  for _ = 1 to n do
    s := !s +. Prng.exponential rng ~mean:4.0
  done;
  let mean = !s /. float_of_int n in
  if mean < 3.8 || mean > 4.2 then Alcotest.failf "mean off: %f" mean

let test_prng_shuffle_permutation () =
  let rng = Prng.create 13L in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "is a permutation" true
    (sorted = Array.init 50 (fun i -> i))

let prop_pick_member =
  QCheck.Test.make ~name:"pick returns a member" ~count:200
    QCheck.(pair small_int (list_of_size Gen.(1 -- 20) int))
    (fun (seed, xs) ->
      (* The shrinker may shrink below the generator's minimum size. *)
      QCheck.assume (xs <> []);
      let a = Array.of_list xs in
      let rng = Prng.create (Int64.of_int seed) in
      let picked = Prng.pick rng a in
      Array.exists (fun y -> y = picked) a)

(* --- Stats --- *)

let test_summary_known () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.Summary.max s);
  Alcotest.(check (float 1e-9)) "variance" 1.25 (Stats.Summary.variance s)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  Alcotest.(check (float 0.0)) "mean of empty" 0.0 (Stats.Summary.mean s);
  Alcotest.(check (float 0.0)) "variance of empty" 0.0 (Stats.Summary.variance s);
  Alcotest.(check (float 0.0)) "min of empty" 0.0 (Stats.Summary.min s);
  Alcotest.(check (float 0.0)) "max of empty" 0.0 (Stats.Summary.max s);
  Alcotest.(check string) "pp of empty" "n=0"
    (Format.asprintf "%a" Stats.Summary.pp s)

let prop_summary_mean_bounds =
  QCheck.Test.make ~name:"mean within min..max" ~count:300
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.add s) xs;
      let m = Stats.Summary.mean s in
      m >= Stats.Summary.min s -. 1e-9 && m <= Stats.Summary.max s +. 1e-9)

let test_counters () =
  let c = Stats.Counters.create () in
  Stats.Counters.incr c "a";
  Stats.Counters.incr ~by:5 c "a";
  Stats.Counters.incr c "b";
  Alcotest.(check int) "a" 6 (Stats.Counters.get c "a");
  Alcotest.(check int) "b" 1 (Stats.Counters.get c "b");
  Alcotest.(check int) "missing" 0 (Stats.Counters.get c "zzz");
  Alcotest.(check (list (pair string int)))
    "sorted dump"
    [ ("a", 6); ("b", 1) ]
    (Stats.Counters.to_list c)

let test_histogram_percentile () =
  let h = Stats.Histogram.create ~buckets:[| 1.0; 10.0; 100.0 |] () in
  for _ = 1 to 90 do
    Stats.Histogram.add h 0.5
  done;
  for _ = 1 to 10 do
    Stats.Histogram.add h 50.0
  done;
  Alcotest.(check (float 1e-9)) "p50" 1.0 (Stats.Histogram.percentile h 0.5);
  Alcotest.(check (float 1e-9)) "p99" 100.0 (Stats.Histogram.percentile h 0.99)

let test_histogram_quantile () =
  let h = Stats.Histogram.create ~buckets:[| 1.0; 2.0; 4.0 |] () in
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Stats.Histogram.quantile h 0.5));
  for _ = 1 to 50 do
    Stats.Histogram.add h 0.5
  done;
  for _ = 1 to 50 do
    Stats.Histogram.add h 3.0
  done;
  (* The first bucket interpolates from an implicit lower edge of 0. *)
  Alcotest.(check (float 1e-9)) "p25 interpolates in (0,1]" 0.5
    (Stats.Histogram.quantile h 0.25);
  Alcotest.(check (float 1e-9)) "p75 interpolates in (2,4]" 3.0
    (Stats.Histogram.quantile h 0.75);
  Alcotest.(check (float 1e-9)) "p100 is the bucket's upper edge" 4.0
    (Stats.Histogram.quantile h 1.0);
  Alcotest.(check (float 1e-9)) "q above 1 clamps" 4.0
    (Stats.Histogram.quantile h 2.0);
  let o = Stats.Histogram.create ~buckets:[| 1.0; 2.0; 4.0 |] () in
  Stats.Histogram.add o 100.0;
  Alcotest.(check (float 1e-9)) "overflow clamps to last finite bound" 4.0
    (Stats.Histogram.quantile o 0.5)

let test_histogram_merge () =
  let mk vs =
    let h = Stats.Histogram.create ~buckets:[| 1.0; 10.0 |] () in
    List.iter (Stats.Histogram.add h) vs;
    h
  in
  let a = mk [ 0.5; 0.5; 5.0 ] and b = mk [ 5.0; 50.0 ] in
  let m = Stats.Histogram.merge a b in
  Alcotest.(check int) "merged count" 5 (Stats.Histogram.count m);
  Alcotest.(check (float 1e-9)) "merged sum" 61.0 (Stats.Histogram.sum m);
  Alcotest.(check (list int))
    "per-bucket counts add" [ 2; 2; 1 ]
    (Array.to_list (Stats.Histogram.counts m));
  Alcotest.(check int) "inputs untouched" 3 (Stats.Histogram.count a);
  let other = Stats.Histogram.create ~buckets:[| 1.0; 2.0 |] () in
  Alcotest.check_raises "mismatched bounds rejected"
    (Invalid_argument "Histogram.merge: incompatible bucket bounds")
    (fun () -> ignore (Stats.Histogram.merge a other))

let test_histogram_bucket_edges () =
  (* The default bounds are exact at integer decades, so an observation
     of exactly 10.0 (or 1000.0) lands deterministically in the bucket
     it bounds instead of spilling over through float drift. *)
  let h = Stats.Histogram.create () in
  Stats.Histogram.add h 10.0;
  Stats.Histogram.add h 1000.0;
  let bounds = Stats.Histogram.bounds h in
  let counts = Stats.Histogram.counts h in
  let idx x =
    let r = ref (-1) in
    Array.iteri (fun i b -> if b = x then r := i) bounds;
    if !r < 0 then Alcotest.failf "no exact bound %g in the default table" x;
    !r
  in
  Alcotest.(check int) "10 lands at the 10-bound bucket" 1 (counts.(idx 10.0));
  Alcotest.(check int) "1000 lands at the 1000-bound bucket" 1
    (counts.(idx 1000.0));
  Alcotest.(check (float 1e-9)) "percentile reports the edge" 10.0
    (Stats.Histogram.percentile h 0.5)

(* --- Table --- *)

let test_table_render () =
  let t =
    Table.create ~columns:[ ("name", Table.Left); ("count", Table.Right) ]
  in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "100" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  (* Right-aligned numbers line up at the right edge. *)
  let lines = String.split_on_char '\n' s in
  let data = List.filteri (fun i _ -> i >= 2) lines in
  List.iter
    (fun l ->
      if String.length l > 0 then
        Alcotest.(check bool) "right aligned" true (l.[String.length l - 1] <> ' '))
    data

let test_table_bad_row () =
  let t = Table.create ~columns:[ ("x", Table.Left) ] in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "a"; "b" ])

let qsuite = List.map QCheck_alcotest.to_alcotest
  [ prop_pick_member; prop_summary_mean_bounds ]

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng int bounds" `Quick test_prng_int_bounds;
    Alcotest.test_case "prng int_in bounds" `Quick test_prng_int_in;
    Alcotest.test_case "prng float bounds" `Quick test_prng_float_bounds;
    Alcotest.test_case "prng split independent" `Quick test_prng_split_independent;
    Alcotest.test_case "prng bernoulli extremes" `Quick test_prng_bernoulli_extremes;
    Alcotest.test_case "prng exponential mean" `Slow test_prng_exponential_mean;
    Alcotest.test_case "prng shuffle permutation" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "summary known values" `Quick test_summary_known;
    Alcotest.test_case "summary empty" `Quick test_summary_empty;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "histogram percentile" `Quick test_histogram_percentile;
    Alcotest.test_case "histogram quantile" `Quick test_histogram_quantile;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "histogram bucket edges" `Quick
      test_histogram_bucket_edges;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table bad row" `Quick test_table_bad_row;
  ]
  @ qsuite
