let () =
  Alcotest.run "untx"
    [
      ("util", Suite_util.suite);
      ("storage", Suite_storage.suite);
      ("wal", Suite_wal.suite);
      ("ablsn", Suite_ablsn.suite);
      ("msg", Suite_msg.suite);
      ("wire", Suite_wire.suite);
      ("btree", Suite_btree.suite);
      ("lock", Suite_lock.suite);
      ("dc", Suite_dc.suite);
      ("tc", Suite_tc.suite);
      ("transport", Suite_transport.suite);
      ("kernel", Suite_kernel.suite);
      ("driver", Suite_driver.suite);
      ("baseline", Suite_baseline.suite);
      ("cloud", Suite_cloud.suite);
      ("deploy", Suite_deploy.suite);
      ("extensions", Suite_extensions.suite);
      ("occ", Suite_occ.suite);
      ("recovery", Suite_recovery.suite);
      ("fault", Suite_fault.suite);
      ("chaos", Suite_chaos.suite);
      ("workload", Suite_chaos.bank_suite);
      ("cloud-recovery", Suite_cloud_recovery.suite);
      ("properties", Props.suite);
    ]
