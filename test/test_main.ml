let () =
  Alcotest.run "tiny_quanta"
    [
      ("util", Test_util.suite);
      ("stats", Test_stats.suite);
      ("engine", Test_engine.suite);
      ("workload", Test_workload.suite);
      ("sched", Test_sched.suite);
      ("ir", Test_ir.suite);
      ("instrument", Test_instrument.suite);
      ("cache", Test_cache.suite);
      ("kv", Test_kv.suite);
      ("tpcc", Test_tpcc.suite);
      ("runtime", Test_runtime.suite);
      ("park", Test_runtime.park_suite);
      ("extensions", Test_extensions.suite);
      ("queueing", Test_queueing.suite);
      ("net", Test_net.suite);
      ("obs", Test_obs.suite);
      ("fault", Test_fault.suite);
      ("control", Test_control.suite);
      ("par", Test_par.suite);
      ("serve", Test_serve.suite);
    ]
