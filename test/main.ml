let () =
  Alcotest.run "optane_ptm_repro"
    [
      ("util", Test_util.suite);
      ("parallel", Test_parallel.suite);
      ("memsim", Test_memsim.suite);
      ("pmem", Test_pmem.suite);
      ("pstm", Test_pstm.suite);
      ("pstm2", Test_pstm2.suite);
      ("ptm-commit", Test_ptm_commit.suite);
      ("serial", Test_serial.suite);
      ("pstructs", Test_pstructs.suite);
      ("pstructs2", Test_pstructs2.suite);
      ("mod", Test_mod.suite);
      ("workloads", Test_workloads.suite);
      ("telemetry", Test_telemetry.suite);
      ("native", Test_native.suite);
      ("extensions", Test_extensions.suite);
      ("kvserve", Test_kvserve.suite);
      ("dlin", Test_dlin.suite);
      ("fams", Test_fams.suite);
      ("crashtest", Test_crashtest.suite);
      ("differential", Test_differential.suite);
      ("experiments", Test_experiments.suite);
    ]
