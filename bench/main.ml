(* Benchmark harness: regenerates every table/figure-level claim of the
   paper's evaluation (see DESIGN.md's per-experiment index) plus Bechamel
   micro-benchmarks of the core data structures.

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- table1    # one experiment
       (table1 | overhead | domino | recovery | concurrent | motivation |
        ablation | extensions | alloc | micro)

   Experiment ids refer to DESIGN.md: T1 = paper Table 1, O1-O3 = Section
   6.9 overhead analysis, P1-P3 = the Section 1/6.8 properties. *)

module Table = Optimist_util.Table
module Runner = Optimist_runner.Runner
module Schedule = Optimist_workload.Schedule
module Traffic = Optimist_workload.Traffic
module Network = Optimist_net.Network
module Ftvc = Optimist_clock.Ftvc
module History = Optimist_history.History
module Vclock = Optimist_clock.Vclock
module Registry = Optimist_protocols.Registry

let section title = Format.printf "@.=== %s ===@.@." title

let fmt_float f = Printf.sprintf "%.2f" f

(* ------------------------------------------------------------------ *)
(* T1: paper Table 1, measured                                          *)
(* ------------------------------------------------------------------ *)

(* Each protocol runs on the channels it assumes. *)
let ordering protocol =
  if Registry.fifo protocol then Network.Fifo else Network.Reorder

(* Does the restarting process resume without waiting for any peer?
   Structural property of each protocol (see the module documentation);
   the P2 experiment measures the corresponding stall. A variant answers
   as its base. *)
let asynchronous_recovery id =
  match Registry.base id with
  | Registry.Sender | Registry.Pk | Registry.Koo -> "No"
  | _ -> "Yes"

(* How many failures the design claims to handle (the paper's Table 1
   "number of concurrent failures allowed" column). *)
let designed_concurrent id =
  match Registry.base id with
  | Registry.Pk -> "1"
  | Registry.Sender -> "n (single at a time)"
  | _ -> "n"

let table1 () =
  section "T1: Table 1 — comparison with related work (measured)";
  let n = 6 in
  let faults =
    Schedule.random_crashes ~seed:5L ~n ~failures:3 ~window:(100.0, 600.0)
  in
  let base =
    {
      Runner.default_params with
      Runner.n;
      seed = 11L;
      rate = 0.05;
      duration = 800.0;
      hops = 6;
      faults;
    }
  in
  let concurrent_faults =
    Schedule.simultaneous_crashes ~at:300.0 ~pids:[ 0; 2; 4 ]
  in
  let t =
    Table.create
      ~columns:
        [
          ("protocol", Table.Left);
          ("ordering", Table.Left);
          ("async recovery", Table.Left);
          ("rollbacks/failure", Table.Right);
          ("piggyback words/msg", Table.Right);
          ("concurrent (design)", Table.Left);
          ("3-crash run", Table.Left);
        ]
  in
  let protocols =
    Registry.[ Dg; Sy; Pk; Sender; Pessimist; Cpo; Koo ]
  in
  List.iter
    (fun protocol ->
      let with_oracle = protocol = Registry.Dg in
      let p =
        { base with Runner.protocol; ordering = ordering protocol; with_oracle }
      in
      let r = Runner.run p in
      let r0 = Runner.run { p with Runner.faults = [] } in
      let failures = max 1 (Runner.counter r "failures") in
      let rollbacks_per_failure =
        float_of_int (Runner.counter r "rollbacks") /. float_of_int failures
      in
      let piggyback =
        float_of_int (Runner.counter r0 "piggyback_words")
        /. float_of_int (max 1 (Runner.counter r0 "sent"))
      in
      ignore r0;
      (* Concurrent failures: all three crash simultaneously; the run must
         quiesce with every process restarted (and clean for D-G). *)
      let rc = Runner.run { p with Runner.faults = concurrent_faults } in
      let concurrent_ok =
        Runner.counter rc "restarts" = 3
        && rc.Runner.r_violations = []
        && Runner.counter rc "unsupported_overlap" = 0
      in
      Table.add_row t
        [
          r.Runner.r_protocol;
          (if Registry.fifo protocol then "FIFO" else "None");
          asynchronous_recovery protocol;
          fmt_float rollbacks_per_failure;
          fmt_float piggyback;
          designed_concurrent protocol;
          (if concurrent_ok then "recovered" else "degraded");
        ])
    protocols;
  (* Smith-Johnson-Tygar: same recovery behaviour class as D-G (completely
     asynchronous, minimal rollback) but a matrix clock on every message.
     The piggyback column is the measured size of the Matrix structure
     (lib/clock/matrix.ml) at this n; SJT's per-incarnation vectors add the
     f factor on top (paper: O(n^2 f) vs O(n)). *)
  let matrix_words =
    Optimist_clock.Matrix.size_words (Optimist_clock.Matrix.create ~n ~me:0)
  in
  Table.add_row t
    [
      "smith-johnson-tygar*";
      "None";
      "Yes";
      "<= n-1";
      fmt_float (float_of_int matrix_words);
      "n";
      "modelled";
    ];
  Format.printf "%s@." (Table.render t);
  Format.printf
    "rollbacks/failure sums over all peers: the Damani-Garg bound is n-1 \
     total@.";
  Format.printf "(each peer at most once per failure, paper Theorem 3).@.";
  Format.printf
    "* modelled row: SJT's recovery class matches Damani-Garg; its clock \
     is the matrix@.  structure of lib/clock/matrix.ml — %d words at n=%d \
     vs D-G's %d, before SJT's@.  per-incarnation factor f (paper Table 1: \
     O(n^2 f) vs O(n)).@."
    matrix_words n (2 * n)

(* ------------------------------------------------------------------ *)
(* O1-O3: Section 6.9 overhead analysis                                 *)
(* ------------------------------------------------------------------ *)

let overhead () =
  section "O1-O3: Section 6.9 overheads (Damani-Garg)";
  let t =
    Table.create
      ~columns:
        [
          ("n", Table.Right);
          ("failures", Table.Right);
          ("piggyback words/msg", Table.Right);
          ("control msgs (tokens)", Table.Right);
          ("history records", Table.Right);
          ("bound n^2*(f+1)", Table.Right);
        ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun failures ->
          let faults =
            Schedule.random_crashes ~seed:31L ~n ~failures
              ~window:(100.0, 600.0)
          in
          let p =
            {
              Runner.default_params with
              Runner.n;
              seed = 13L;
              rate = 0.03;
              duration = 800.0;
              hops = 5;
              faults;
            }
          in
          let r = Runner.run p in
          let piggyback =
            float_of_int (Runner.counter r "piggyback_words")
            /. float_of_int (max 1 (Runner.counter r "sent"))
          in
          let tokens =
            match List.assoc_opt "sent.control" r.Runner.r_net with
            | Some v -> v
            | None -> 0
          in
          Table.add_row t
            [
              string_of_int n;
              string_of_int (Runner.counter r "failures");
              fmt_float piggyback;
              string_of_int tokens;
              string_of_int (Runner.counter r "history_records");
              string_of_int (n * n * (failures + 1));
            ])
        [ 0; 2; 4 ])
    [ 2; 4; 8; 16; 32 ];
  Format.printf "%s@." (Table.render t);
  Format.printf
    "expected shapes: piggyback = 2n words/msg independent of f (O1);@.";
  Format.printf
    "control msgs = failures*(n-1) tokens plus resends, sent only on \
     failure (O2);@.";
  Format.printf
    "history records <= one per (process, known incarnation) pair at each \
     process,@.";
  Format.printf "i.e. O(n f) per process and O(n^2 f) system-wide (O3).@."

(* ------------------------------------------------------------------ *)
(* P1: minimal rollback vs the domino effect                            *)
(* ------------------------------------------------------------------ *)

let domino () =
  section "P1: rollbacks per failure — minimal rollback vs domino";
  let n = 6 in
  let t =
    Table.create
      ~columns:
        [
          ("failures", Table.Right);
          ("protocol", Table.Left);
          ("rollbacks", Table.Right);
          ("rollbacks/failure", Table.Right);
          ("states lost forever", Table.Right);
        ]
  in
  List.iter
    (fun failures ->
      let faults =
        Schedule.random_crashes ~seed:101L ~n ~failures ~window:(100.0, 700.0)
      in
      List.iter
        (fun protocol ->
          let p =
            {
              Runner.default_params with
              Runner.n;
              seed = 3L;
              rate = 0.08;
              duration = 900.0;
              hops = 8;
              faults;
              protocol;
              ordering = ordering protocol;
            }
          in
          let r = Runner.run p in
          let fl = max 1 (Runner.counter r "failures") in
          Table.add_row t
            [
              string_of_int failures;
              r.Runner.r_protocol;
              string_of_int (Runner.counter r "rollbacks");
              fmt_float
                (float_of_int (Runner.counter r "rollbacks") /. float_of_int fl);
              string_of_int (Runner.counter r "lost_states");
            ])
        Registry.[ Dg; Sy; Cpo ];
      Table.add_separator t)
    [ 1; 2; 4; 6 ];
  Format.printf "%s@." (Table.render t);
  Format.printf
    "expected shape: Damani-Garg rolls each process back at most once per \
     failure@.";
  Format.printf
    "(<= n-1 total, Theorem 3); checkpoint-only cascades (domino) and \
     loses work.@."

(* ------------------------------------------------------------------ *)
(* P2: asynchronous recovery — blocking attributable to a failure       *)
(* ------------------------------------------------------------------ *)

let recovery () =
  section "P2: recovery disruption (one failure at t=300)";
  let n = 6 in
  let faults = [ Schedule.Crash { at = 300.0; pid = 1 } ] in
  let t =
    Table.create
      ~columns:
        [
          ("protocol", Table.Left);
          ("recovery blocking (time)", Table.Right);
          ("control msgs", Table.Right);
          ("retransmissions", Table.Right);
          ("replayed entries", Table.Right);
          ("rollbacks", Table.Right);
        ]
  in
  List.iter
    (fun protocol ->
      let p =
        {
          Runner.default_params with
          Runner.n;
          seed = 19L;
          rate = 0.05;
          duration = 700.0;
          hops = 6;
          faults;
          protocol;
          ordering = ordering protocol;
        }
      in
      let r = Runner.run p in
      let r0 = Runner.run { p with Runner.faults = [] } in
      let blocking =
        float_of_int
          (Runner.counter r "blocked_time_x1000"
          - Runner.counter r0 "blocked_time_x1000")
        /. 1000.0
      in
      Table.add_row t
        [
          r.Runner.r_protocol;
          fmt_float (Float.max 0.0 blocking);
          string_of_int (Runner.counter r "control_messages");
          string_of_int (Runner.counter r "retransmitted");
          string_of_int (Runner.counter r "replayed");
          string_of_int (Runner.counter r "rollbacks");
        ])
    Registry.[ Dg; Sy; Pk; Sender; Pessimist ];
  Format.printf "%s@." (Table.render t);
  Format.printf
    "expected shape: the optimistic asynchronous protocols (D-G, S-Y) block \
     nobody;@.";
  Format.printf
    "Peterson-Kearns stalls for its ack round; sender-based stalls for \
     retransmissions.@."

(* ------------------------------------------------------------------ *)
(* P3: concurrent failures and partitions, oracle-audited               *)
(* ------------------------------------------------------------------ *)

let concurrent () =
  section "P3: concurrent failures + partition, Damani-Garg, oracle-audited";
  let n = 6 in
  let t =
    Table.create
      ~columns:
        [
          ("scenario", Table.Left);
          ("restarts", Table.Right);
          ("rollbacks", Table.Right);
          ("obsolete discarded", Table.Right);
          ("held msgs", Table.Right);
          ("oracle", Table.Left);
        ]
  in
  let scenarios =
    [
      ( "2 simultaneous crashes",
        Schedule.simultaneous_crashes ~at:300.0 ~pids:[ 0; 3 ] );
      ( "3 simultaneous crashes",
        Schedule.simultaneous_crashes ~at:300.0 ~pids:[ 0; 2; 4 ] );
      ( "crash during recovery",
        [
          Schedule.Crash { at = 300.0; pid = 1 };
          Schedule.Crash { at = 305.0; pid = 2 };
        ] );
      ( "same process twice",
        [
          Schedule.Crash { at = 250.0; pid = 1 };
          Schedule.Crash { at = 400.0; pid = 1 };
        ] );
      ( "partitioned recovery",
        [
          Schedule.Partition
            { at = 280.0; groups = [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ] };
          Schedule.Crash { at = 300.0; pid = 1 };
          Schedule.Heal { at = 500.0 };
        ] );
    ]
  in
  List.iter
    (fun (label, faults) ->
      let p =
        {
          Runner.default_params with
          Runner.n;
          seed = 23L;
          rate = 0.05;
          duration = 800.0;
          hops = 6;
          faults;
          with_oracle = true;
        }
      in
      let r = Runner.run p in
      Table.add_row t
        [
          label;
          string_of_int (Runner.counter r "restarts");
          string_of_int (Runner.counter r "rollbacks");
          string_of_int (Runner.counter r "discarded_obsolete");
          string_of_int (Runner.counter r "held");
          (if r.Runner.r_violations = [] then "consistent" else "VIOLATED");
        ])
    scenarios;
  Format.printf "%s@." (Table.render t)

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out                  *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation: deliverability hold (Section 6.1) on/off";
  let n = 6 in
  let faults =
    Schedule.random_crashes ~seed:7L ~n ~failures:4 ~window:(100.0, 600.0)
  in
  let t =
    Table.create
      ~columns:
        [
          ("variant", Table.Left);
          ("held msgs", Table.Right);
          ("obsolete discarded", Table.Right);
          ("rollbacks", Table.Right);
          ("oracle", Table.Left);
        ]
  in
  List.iter
    (fun protocol ->
      let p =
        {
          Runner.default_params with
          Runner.n;
          seed = 29L;
          rate = 0.08;
          duration = 800.0;
          hops = 8;
          faults;
          protocol;
          with_oracle = true;
        }
      in
      let r = Runner.run p in
      Table.add_row t
        [
          r.Runner.r_protocol;
          string_of_int (Runner.counter r "held");
          string_of_int (Runner.counter r "discarded_obsolete");
          string_of_int (Runner.counter r "rollbacks");
          (if r.Runner.r_violations = [] then "consistent" else "VIOLATED");
        ])
    Registry.[ Dg; Dg_nohold ];
  Format.printf "%s@." (Table.render t);
  Format.printf
    "expected shape: without the hold, an undetected orphan that merges a \
     newer@.";
  Format.printf
    "incarnation's entry launders the dead incarnation out of its \
     piggybacked clock;@.";
  Format.printf
    "downstream orphans then become undetectable — the oracle reports \
     violations.@.";
  Format.printf
    "The Section 6.1 hold is load-bearing for Theorem 2, not just an \
     optimisation.@.";

  section
    "Ablation: checkpoint interval sweep (failure-free overhead vs lost work)";
  let t =
    Table.create
      ~columns:
        [
          ("checkpoint interval", Table.Right);
          ("checkpoints", Table.Right);
          ("replayed on recovery", Table.Right);
          ("log truncated", Table.Right);
        ]
  in
  List.iter
    (fun interval ->
      let faults = [ Schedule.Crash { at = 411.0; pid = 1 } ] in
      let config =
        {
          Optimist_core.Types.default_config with
          Optimist_core.Types.checkpoint_interval = interval;
        }
      in
      let app = Traffic.app ~n:4 Traffic.Uniform in
      let sys = Optimist_core.System.create ~seed:37L ~config ~n:4 ~app () in
      let schedule =
        Schedule.make
          ~injections:
            (Schedule.poisson_injections ~seed:41L ~n:4 ~rate:0.08
               ~duration:700.0 ~hops:6)
          ~faults
      in
      Schedule.apply schedule
        ~inject:(fun ~at ~pid msg ->
          Optimist_core.System.inject_at sys ~at ~pid msg)
        ~crash:(fun ~at ~pid -> Optimist_core.System.fail_at sys ~at ~pid)
        ~partition:(fun ~at:_ ~groups:_ -> ())
        ~heal:(fun ~at:_ -> ());
      Optimist_core.System.run sys;
      Table.add_row t
        [
          fmt_float interval;
          string_of_int (Optimist_core.System.total sys "checkpoints");
          string_of_int (Optimist_core.System.total sys "replayed");
          string_of_int (Optimist_core.System.total sys "log_truncated");
        ])
    [ 25.0; 100.0; 400.0; 1600.0 ];
  Format.printf "%s@." (Table.render t);
  Format.printf
    "expected shape: longer intervals = fewer checkpoints but more replay \
     at recovery.@."

(* ------------------------------------------------------------------ *)
(* M1: the paper's motivating claim (Section 1) — pessimism's per-      *)
(* message cost vs optimism's per-failure cost, and where they cross    *)
(* ------------------------------------------------------------------ *)

let motivation () =
  section
    "M1: Section 1 motivation — pessimistic vs optimistic total overhead";
  let n = 6 in
  let t =
    Table.create
      ~columns:
        [
          ("failures", Table.Right);
          ("pessimistic: blocked", Table.Right);
          ("pessimistic: replayed", Table.Right);
          ("pessimistic total cost", Table.Right);
          ("damani-garg: redone work", Table.Right);
          ("damani-garg total cost", Table.Right);
          ("winner", Table.Left);
        ]
  in
  (* Cost model: every synchronous stable write stalls the application for
     its latency (accumulated in blocked_time); every replayed or
     discarded delivery is application work done twice, charged at the
     same 0.5-unit rate. *)
  let work_unit = 0.5 in
  List.iter
    (fun failures ->
      let faults =
        if failures = 0 then []
        else
          Schedule.random_crashes ~seed:71L ~n ~failures
            ~window:(50.0, 950.0)
      in
      let base =
        {
          Runner.default_params with
          Runner.n;
          seed = 67L;
          rate = 0.08;
          duration = 1000.0;
          hops = 6;
          faults;
        }
      in
      let pess = Runner.run { base with Runner.protocol = Registry.Pessimist } in
      let dg = Runner.run { base with Runner.protocol = Registry.Dg } in
      let pess_blocked =
        float_of_int (Runner.counter pess "blocked_time_x1000") /. 1000.0
      in
      let pess_replayed = float_of_int (Runner.counter pess "replayed") in
      let pess_cost = pess_blocked +. (work_unit *. pess_replayed) in
      let dg_redone =
        float_of_int (Runner.counter dg "replayed" + Runner.counter dg "log_truncated")
      in
      let dg_cost = work_unit *. dg_redone in
      Table.add_row t
        [
          string_of_int failures;
          fmt_float pess_blocked;
          fmt_float pess_replayed;
          fmt_float pess_cost;
          fmt_float dg_redone;
          fmt_float dg_cost;
          (if dg_cost < pess_cost then "optimistic" else "pessimistic");
        ])
    [ 0; 1; 2; 4; 8; 16; 32; 64 ];
  Format.printf "%s@." (Table.render t);
  Format.printf
    "expected shape: pessimism pays a constant per-delivery tax regardless \
     of failures;@.";
  Format.printf
    "optimism pays per failure. With rare failures and high message \
     activity the@.";
  Format.printf
    "optimistic protocol wins by an order of magnitude — the paper's \
     Section 1 premise —@.";
  Format.printf "and only extreme failure rates reverse the verdict.@.";

  section
    "M2: Section 1 motivation — coordinated checkpointing's synchronization \
     cost vs n";
  let t =
    Table.create
      ~columns:
        [
          ("n", Table.Right);
          ("blocked time (failure-free)", Table.Right);
          ("control msgs", Table.Right);
          ("d-g blocked time", Table.Right);
          ("d-g control msgs", Table.Right);
        ]
  in
  List.iter
    (fun n ->
      let p =
        {
          Runner.default_params with
          Runner.n;
          seed = 73L;
          rate = 0.03;
          duration = 800.0;
          hops = 5;
        }
      in
      let coord = Runner.run { p with Runner.protocol = Registry.Koo } in
      let dg = Runner.run { p with Runner.protocol = Registry.Dg } in
      Table.add_row t
        [
          string_of_int n;
          fmt_float
            (float_of_int (Runner.counter coord "blocked_time_x1000") /. 1000.0);
          string_of_int (Runner.counter coord "control_messages");
          fmt_float
            (float_of_int (Runner.counter dg "blocked_time_x1000") /. 1000.0);
          string_of_int (Runner.counter dg "control_messages");
        ])
    [ 2; 4; 8; 16; 32 ];
  Format.printf "%s@." (Table.render t);
  Format.printf
    "expected shape: the blocking rounds and their 3(n-1) control messages \
     grow with n@.";
  Format.printf
    "(\"for large systems, the cost of this synchronization is \
     prohibitive\"), while@.";
  Format.printf
    "Damani-Garg checkpoints independently: zero blocking, zero control \
     traffic.@."

(* ------------------------------------------------------------------ *)
(* Extensions: output commit (Section 6.5 / [10]) and GC (remark 2)     *)
(* ------------------------------------------------------------------ *)

let extensions () =
  section
    "Extensions: output commit — flush interval vs output latency ([10])";
  let n = 4 in
  let t =
    Table.create
      ~columns:
        [
          ("flush interval", Table.Right);
          ("outputs produced", Table.Right);
          ("committed at quiescence", Table.Right);
          ("still pending", Table.Right);
          ("mean commit lag", Table.Right);
          ("gossip msgs", Table.Right);
          ("commit requests", Table.Right);
        ]
  in
  (* Traffic whose chains end in an output: reuse the ring app from the
     output-commit tests. *)
  let app : (int, int * int) Optimist_core.Types.app =
    {
      Optimist_core.Types.init = (fun _ -> 0);
      on_message =
        (fun ~me ~src:_ state (key, hops) ->
          let sends =
            if hops > 0 then [ ((me + 1) mod n, (key, hops - 1)) ]
            else [ (Optimist_core.Types.output_dst, (key, 0)) ]
          in
          (state + 1, sends));
    }
  in
  List.iter
    (fun flush_interval ->
      let produced = ref [] and committed = ref [] in
      let config =
        {
          Optimist_core.Types.default_config with
          Optimist_core.Types.commit_outputs = true;
          flush_interval;
          checkpoint_interval = 300.0;
        }
      in
      let sys = ref None in
      let on_output ~pid:_ ~seq:_ (key, _) =
        match !sys with
        | Some s ->
            committed := (key, Optimist_sim.Engine.now (Optimist_core.System.engine s)) :: !committed
        | None -> ()
      in
      let s =
        Optimist_core.System.create ~seed:55L ~config ~on_output ~n ~app ()
      in
      sys := Some s;
      let count = ref 0 in
      List.iter
        (fun i ->
          incr count;
          let key = !count in
          produced := (key, i.Schedule.at) :: !produced;
          Optimist_core.System.inject_at s ~at:i.Schedule.at ~pid:i.Schedule.pid
            (key, 2))
        (Schedule.poisson_injections ~seed:66L ~n ~rate:0.05 ~duration:600.0
           ~hops:0);
      Optimist_core.System.fail_at s ~at:300.0 ~pid:1;
      Optimist_core.System.run s;
      let committed_n = List.length !committed in
      let lags =
        List.filter_map
          (fun (key, tc) ->
            Option.map (fun (_, tp) -> tc -. tp) (List.find_opt (fun (k, _) -> k = key) !produced))
          !committed
      in
      let mean_lag =
        if lags = [] then 0.0
        else List.fold_left ( +. ) 0.0 lags /. float_of_int (List.length lags)
      in
      Table.add_row t
        [
          fmt_float flush_interval;
          string_of_int !count;
          string_of_int committed_n;
          string_of_int (Optimist_core.System.pending_outputs s);
          fmt_float mean_lag;
          string_of_int (Optimist_core.System.total s "frontier_gossip");
          string_of_int (Optimist_core.System.total s "commit_requests");
        ])
    [ 10.0; 25.0; 100.0; 400.0 ];
  Format.printf "%s@." (Table.render t);
  List.iter
    (fun line -> Format.printf "%s@." line)
    [
      "expected shape: a pending output asks exactly the processes it depends on to";
      "flush, so it commits about one request round trip after it is produced (the";
      "lag also counts the chain's two hops), at every flush interval; the interval";
      "sets only how much each timer flush batches. Timer-driven commits made the lag";
      "track the flush interval — the fast-output trade-off the paper cites as [10].";
    ];

  section "Extensions: garbage collection (Section 6.5 remark 2)";
  let t =
    Table.create
      ~columns:
        [
          ("run length", Table.Right);
          ("checkpoints before", Table.Right);
          ("log entries before", Table.Right);
          ("checkpoints reclaimed", Table.Right);
          ("log entries reclaimed", Table.Right);
        ]
  in
  List.iter
    (fun duration ->
      let config =
        {
          Optimist_core.Types.default_config with
          Optimist_core.Types.commit_outputs = true;
          flush_interval = 20.0;
          checkpoint_interval = 60.0;
        }
      in
      let app = Traffic.app ~n:4 Traffic.Uniform in
      let sys = Optimist_core.System.create ~seed:59L ~config ~n:4 ~app () in
      List.iter
        (fun i ->
          Optimist_core.System.inject_at sys ~at:i.Schedule.at ~pid:i.Schedule.pid
            (Traffic.fresh ~key:i.Schedule.key ~hops:i.Schedule.hops))
        (Schedule.poisson_injections ~seed:60L ~n:4 ~rate:0.06 ~duration ~hops:5);
      Optimist_core.System.run sys;
      Optimist_core.System.settle_outputs sys;
      let cps_before =
        Array.fold_left
          (fun acc p -> acc + Optimist_core.Process.checkpoint_count p)
          0
          (Optimist_core.System.processes sys)
      in
      let log_before =
        Array.fold_left
          (fun acc p -> acc + Optimist_core.Process.log_length p)
          0
          (Optimist_core.System.processes sys)
      in
      let cps, entries = Optimist_core.System.collect_garbage sys in
      Table.add_row t
        [
          fmt_float duration;
          string_of_int cps_before;
          string_of_int log_before;
          string_of_int cps;
          string_of_int entries;
        ])
    [ 300.0; 600.0; 1200.0; 2400.0 ];
  Format.printf "%s@." (Table.render t);
  Format.printf
    "expected shape: retained state is bounded by the stable barrier — \
     reclamation@.";
  Format.printf "grows with the run while the residue stays flat.@."

(* ------------------------------------------------------------------ *)
(* A1: host allocation per delivery                                    *)
(* ------------------------------------------------------------------ *)

(* Minor words are a deterministic function of the code and the seeded
   run, so they pin what a delivery costs the host without host noise;
   [alloc] prints them and test/golden pins its output. Promoted words
   are not printed: they depend on when minor collections fall, which
   moves with the heap layout (even the working directory's length
   shifts it). The measured window is part of what the golden pins, so
   it keeps the one [Gc.quick_stat] record it was recorded with: without
   it, sender-based at n = 64 reads 225.7 instead of 225.8. *)
let alloc_ns = [ 8; 16; 32; 64; 128 ]

let alloc_cell protocol n =
  let duration = 48_000.0 /. float_of_int n in
  let p =
    {
      Runner.default_params with
      Runner.protocol;
      n;
      seed = 1L;
      rate = 0.05;
      hops = 6;
      duration;
      ordering = ordering protocol;
      faults =
        Schedule.random_crashes ~seed:101L ~n ~failures:4
          ~window:(0.1 *. duration, 0.9 *. duration);
    }
  in
  Gc.compact ();
  let minor0 = Gc.minor_words () in
  ignore (Gc.quick_stat ());
  let r = Runner.run p in
  let minor = Gc.minor_words () -. minor0 in
  minor /. float_of_int (max 1 (Runner.counter r "delivered"))

let alloc () =
  section "A1: host allocation per delivery (minor words, seeded)";
  let t =
    Table.create
      ~columns:
        (("protocol", Table.Left)
        :: List.map (fun n -> (Printf.sprintf "n=%d" n, Table.Right)) alloc_ns)
  in
  List.iter
    (fun protocol ->
      Table.add_row t
        (Registry.name protocol
        :: List.map
             (fun n -> Printf.sprintf "%.1f" (alloc_cell protocol n))
             alloc_ns))
    Registry.all;
  Format.printf "%s@.%s@."
    "minor words per delivery (rate 0.05, hops 6, 4 crashes, window \
     48000/n, seed 1):"
    (Table.render t)

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel)                                          *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Micro-benchmarks of the core data structures (Bechamel)";
  let open Bechamel in
  let clock_bench n =
    let a = Ftvc.create ~n ~me:0 and b = Ftvc.create ~n ~me:(n - 1) in
    let b = Ftvc.sent (Ftvc.sent b) in
    Test.make
      ~name:(Printf.sprintf "ftvc/deliver n=%d" n)
      (Staged.stage (fun () -> ignore (Ftvc.deliver a ~received:b)))
  in
  let history_bench n =
    let h = History.create ~n ~me:0 in
    let clock = Array.init n (fun i -> { Ftvc.ver = i mod 3; ts = i * 5 }) in
    Test.make
      ~name:(Printf.sprintf "history/note_clock n=%d" n)
      (Staged.stage (fun () -> History.note_clock h ~sender_clock:clock))
  in
  let obsolete_bench n =
    let h = History.create ~n ~me:0 in
    for j = 1 to n - 1 do
      History.note_token h ~pid:j ~ver:0 ~ts:100
    done;
    let clock = Array.make n { Ftvc.ver = 0; ts = 50 } in
    Test.make
      ~name:(Printf.sprintf "history/obsolete-test n=%d" n)
      (Staged.stage (fun () -> ignore (History.message_obsolete h ~clock)))
  in
  let vclock_bench n =
    let a = Vclock.create ~n ~me:0 and b = Vclock.create ~n ~me:(n - 1) in
    Test.make
      ~name:(Printf.sprintf "vclock/merge n=%d" n)
      (Staged.stage (fun () -> ignore (Vclock.merge a ~me:0 b)))
  in
  let matrix_bench n =
    let module Matrix = Optimist_clock.Matrix in
    let a = Matrix.create ~n ~me:0 and b = Matrix.create ~n ~me:(n - 1) in
    let b = Matrix.set_own b (Ftvc.sent (Matrix.own b)) in
    Test.make
      ~name:(Printf.sprintf "matrix/deliver n=%d (SJT cost)" n)
      (Staged.stage (fun () -> ignore (Matrix.deliver a ~received:b)))
  in
  let end_to_end =
    Test.make ~name:"system/full run n=4 d=100"
      (Staged.stage (fun () ->
           let p =
             {
               Runner.default_params with
               Runner.n = 4;
               seed = 3L;
               rate = 0.1;
               duration = 100.0;
               hops = 4;
             }
           in
           ignore (Runner.run p)))
  in
  let tests =
    Test.make_grouped ~name:"optimist"
      [
        clock_bench 4;
        clock_bench 16;
        clock_bench 64;
        history_bench 4;
        history_bench 64;
        obsolete_bench 4;
        obsolete_bench 64;
        vclock_bench 16;
        matrix_bench 4;
        matrix_bench 16;
        matrix_bench 64;
        end_to_end;
      ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ t ] -> Format.printf "%-40s %14.1f ns/run@." name t
      | _ -> Format.printf "%-40s (no estimate)@." name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* ------------------------------------------------------------------ *)

let () =
  let experiments =
    [
      ("table1", table1);
      ("overhead", overhead);
      ("domino", domino);
      ("recovery", recovery);
      ("concurrent", concurrent);
      ("motivation", motivation);
      ("ablation", ablation);
      ("extensions", extensions);
      ("alloc", alloc);
      ("micro", micro);
    ]
  in
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] -> List.iter (fun (_, f) -> f ()) experiments
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> f ()
          | None ->
              Format.printf "unknown experiment %S; known: %s@." name
                (String.concat ", " (List.map fst experiments));
              exit 2)
        names
