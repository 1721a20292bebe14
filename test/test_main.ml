let () =
  Alcotest.run "optimist"
    [
      ("util", Test_util.suite);
      ("engine", Test_engine.suite);
      ("network", Test_network.suite);
      ("storage", Test_storage.suite);
      ("vclock", Test_vclock.suite);
      ("ftvc", Test_ftvc.suite);
      ("matrix", Test_matrix.suite);
      ("history", Test_history.suite);
      ("protocol", Test_protocol.suite);
      ("baselines", Test_baselines.suite);
      ("registry", Test_registry.suite);
      ("retransmit", Test_retransmit.suite);
      ("output-commit", Test_output_commit.suite);
      ("gc", Test_gc.suite);
      ("oracle", Test_oracle.suite);
      ("process", Test_process.suite);
      ("workload", Test_workload.suite);
      ("system", Test_system.suite);
      ("obs", Test_obs.suite);
      ("check", Test_check.suite);
      ("mc", Test_mc.suite);
      ("docs", Test_docs.suite);
      ("live", Test_live.suite);
      ("persistence", Test_persistence.suite);
      ("soak", Test_soak.suite);
      ("cluster", Test_cluster.suite);
    ]
