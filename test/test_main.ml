(* Test entry point: one Alcotest run over every module's suite. *)

let () =
  Alcotest.run "sdn-buffer"
    [
      ("sim.heap", Test_heap.suite);
      ("sim.rng", Test_rng.suite);
      ("sim.stats", Test_stats.suite);
      ("sim.engine", Test_engine.suite);
      ("sim.timer_wheel", Test_engine.Queue_contract.suite);
      ("sim.link", Test_link.suite);
      ("sim.faults", Test_faults.suite);
      ("sim.cpu", Test_cpu.suite);
      ("net.addresses", Test_addr.suite);
      ("net.checksum", Test_checksum.suite);
      ("net.packet", Test_packet.suite);
      ("openflow.match", Test_of_match.suite);
      ("openflow.codec", Test_of_codec.suite);
      ("openflow.codec-fuzz", Test_of_codec_fuzz.suite);
      ("openflow.stream", Test_of_stream.suite);
      ("switch.flow_table", Test_flow_table.suite);
      ("switch.packet_buffer", Test_buffer_pool.packet_suite);
      ("switch.flow_buffer", Test_buffer_pool.flow_suite);
      ("switch.buffer_pool", Test_buffer_pool.model_suite);
      ("switch.session", Test_session.suite);
      ("switch.behaviour", Test_switch.suite);
      ("controller", Test_controller.suite);
      ("traffic", Test_traffic.suite);
      ("measure", Test_measure.suite);
      ("integration", Test_experiment.suite);
      ("extensions", Test_extensions.suite);
      ("switch.egress_queue", Test_egress_queue.suite);
      ("switch.buf_policy", Test_buf_policy.suite);
      ("chain", Test_chain.suite);
      ("harness", Test_harness.suite);
      ("properties", Test_properties.suite);
      ("failures", Test_failures.suite);
      ("lifecycle", Test_lifecycle.suite);
      ("check", Test_check.suite);
      ("parallel", Test_parallel.suite);
      ("massive", Test_massive.suite);
      ("crash", Test_crash.suite);
      ("lint", Test_lint.suite);
      ("analyze", Test_analyze.suite);
      ("model", Test_model.suite);
      ("validate", Test_validate.suite);
      ("alloc", Test_alloc.suite);
    ]
