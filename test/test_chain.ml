(* Tests for the multi-switch chain scenario and the controller's
   multi-session support. *)

open Sdn_core

let config ?(mechanism = Config.Packet_granularity) ?(buffer = 256)
    ?(n_flows = 100) () =
  {
    Config.default with
    Config.mechanism;
    buffer_capacity = buffer;
    rate_mbps = 30.0;
    workload = Config.Exp_a { n_flows };
    seed = 5;
  }

let test_single_switch_matches_paper_setup () =
  let r = Chain.run (config ()) ~n_switches:1 in
  Alcotest.(check int) "one request per flow" 100 r.Chain.pkt_ins;
  Alcotest.(check int) "all delivered" 100 r.Chain.packets_out

let test_requests_scale_with_hops () =
  let r1 = Chain.run (config ()) ~n_switches:1 in
  let r3 = Chain.run (config ()) ~n_switches:3 in
  Alcotest.(check int) "3x the requests" (3 * r1.Chain.pkt_ins) r3.Chain.pkt_ins;
  Alcotest.(check bool) "more control load" true
    (r3.Chain.ctrl_load_up_mbps > 2.0 *. r1.Chain.ctrl_load_up_mbps);
  Alcotest.(check int) "still all delivered" 100 r3.Chain.packets_out

let test_setup_delay_grows_with_hops () =
  let r1 = Chain.run (config ()) ~n_switches:1 in
  let r4 = Chain.run (config ()) ~n_switches:4 in
  Alcotest.(check bool)
    (Printf.sprintf "per-hop delay accumulates (%.2f vs %.2f ms)"
       (r1.Chain.setup_delay.Experiment.mean *. 1e3)
       (r4.Chain.setup_delay.Experiment.mean *. 1e3))
    true
    (r4.Chain.setup_delay.Experiment.mean
     > 2.0 *. r1.Chain.setup_delay.Experiment.mean);
  Alcotest.(check int) "every flow measured end-to-end" 100
    r4.Chain.setup_delay.Experiment.count

let test_buffer_beats_no_buffer_across_hops () =
  let nb = Chain.run (config ~mechanism:Config.No_buffer ~buffer:0 ()) ~n_switches:3 in
  let b = Chain.run (config ()) ~n_switches:3 in
  Alcotest.(check bool) "load reduced on every hop" true
    (b.Chain.ctrl_load_up_mbps < 0.3 *. nb.Chain.ctrl_load_up_mbps);
  Alcotest.(check bool) "setup delay no worse" true
    (b.Chain.setup_delay.Experiment.mean
     <= nb.Chain.setup_delay.Experiment.mean +. 0.5e-3)

let test_flow_granularity_in_chain () =
  let cfg =
    {
      (config ~mechanism:Config.Flow_granularity ()) with
      Config.workload = Config.Exp_b { n_flows = 10; packets_per_flow = 10; concurrent = 5 };
      rate_mbps = 80.0;
    }
  in
  let r = Chain.run cfg ~n_switches:2 in
  Alcotest.(check int) "all packets across both hops" 100 r.Chain.packets_out;
  (* Each hop buffers the flow's in-flight packets and asks once per
     install round: far fewer than one request per packet per hop. *)
  Alcotest.(check bool)
    (Printf.sprintf "request suppression holds per hop (%d)" r.Chain.pkt_ins)
    true
    (r.Chain.pkt_ins < 100)

let test_one_switch_chain_is_the_scenario () =
  let cfg = config () in
  let c = Chain.run cfg ~n_switches:1 in
  let e = Experiment.run cfg in
  Alcotest.(check int) "same requests" e.Experiment.pkt_ins c.Chain.pkt_ins;
  Alcotest.(check bool) "bit-identical setup mean" true
    (Int64.equal
       (Int64.bits_of_float e.Experiment.setup_delay.Experiment.mean)
       (Int64.bits_of_float c.Chain.setup_delay.Experiment.mean))

let test_rejects_empty_chain () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Scenario.build ~n_switches:0 (config ()));
       false
     with Invalid_argument _ -> true)

let test_chain_reproducible () =
  let a = Chain.run (config ()) ~n_switches:2 in
  let b = Chain.run (config ()) ~n_switches:2 in
  Alcotest.(check (float 0.0)) "same setup mean" a.Chain.setup_delay.Experiment.mean
    b.Chain.setup_delay.Experiment.mean;
  Alcotest.(check int) "same requests" a.Chain.pkt_ins b.Chain.pkt_ins

(* Every per-switch Config field reaches every switch of the chain,
   exactly as a single-switch scenario maps it. *)
let test_chain_switches_carry_config () =
  let cfg =
    {
      (config ~mechanism:Config.Flow_granularity ()) with
      Config.resend_multiplier = 3.0;
      resend_cap = 0.2;
      resend_jitter = 0.0;
      max_resends = 0;
      echo_interval = 0.02;
      echo_misses = 5;
      fail_mode = Config.Fail_standalone;
      overload_watermark = 0.5;
      buf_policy = Some Sdn_switch.Buf_policy.Sharing;
    }
  in
  let sc = Scenario.build ~n_switches:2 cfg in
  Array.iteri
    (fun i sw ->
      let c = Sdn_switch.Switch.config sw in
      let what field = Printf.sprintf "sw%d %s" (i + 1) field in
      Alcotest.(check int64) (what "datapath_id") (Int64.of_int (i + 1))
        c.Sdn_switch.Switch.datapath_id;
      Alcotest.(check (float 0.0)) (what "resend_multiplier") 3.0
        c.Sdn_switch.Switch.resend_multiplier;
      Alcotest.(check (float 0.0)) (what "resend_cap") 0.2
        c.Sdn_switch.Switch.resend_cap;
      Alcotest.(check (float 0.0)) (what "resend_jitter") 0.0
        c.Sdn_switch.Switch.resend_jitter;
      Alcotest.(check int) (what "max_resends") 0 c.Sdn_switch.Switch.max_resends;
      Alcotest.(check (float 0.0)) (what "echo_interval") 0.02
        c.Sdn_switch.Switch.echo_interval;
      Alcotest.(check int) (what "echo_misses") 5 c.Sdn_switch.Switch.echo_misses;
      Alcotest.(check bool) (what "fail_mode") true
        (c.Sdn_switch.Switch.fail_mode = Config.Fail_standalone);
      Alcotest.(check (float 0.0)) (what "overload_watermark") 0.5
        c.Sdn_switch.Switch.overload_watermark;
      Alcotest.(check bool) (what "buf_policy") true
        (c.Sdn_switch.Switch.buf_policy = Some Sdn_switch.Buf_policy.Sharing))
    sc.Scenario.switches

(* The chain is the scenario: the fault plan's outage and crash
   schedule and the invariant checker reach every switch of it. *)
let run_chain cfg ~n_switches =
  let sc = Scenario.build ~n_switches cfg in
  let injections = Experiment.injections_of cfg sc.Scenario.traffic_rng in
  Sdn_traffic.Pktgen.schedule sc.Scenario.engine
    ~inject:(fun ~in_port frame -> Scenario.inject sc ~in_port frame)
    injections;
  Scenario.run_until_quiet
    ~min_time:(Sdn_traffic.Pktgen.stats_of injections).Sdn_traffic.Pktgen.last
    sc;
  sc

let test_chain_honours_faults_and_checker () =
  let base =
    {
      (config ~mechanism:Config.Flow_granularity ()) with
      Config.workload =
        Config.Exp_b { n_flows = 40; packets_per_flow = 20; concurrent = 5 };
      rate_mbps = 40.0;
      check = true;
    }
  in
  let faults s = Result.get_ok (Sdn_sim.Faults.spec_of_string s) in
  List.iter
    (fun n_switches ->
      List.iter
        (fun (what, cfg) ->
          let sc = run_chain cfg ~n_switches in
          let name field = Printf.sprintf "%d switches, %s: %s" n_switches what field in
          let check = Option.get sc.Scenario.check in
          Alcotest.(check string) (name "no violations") ""
            (Sdn_check.Check.report check);
          Alcotest.(check int) (name "every packet delivered")
            (Sdn_measure.Delay.packets_in sc.Scenario.delay)
            sc.Scenario.host2_received;
          if what = "outage" then
            Alcotest.(check bool) (name "upstream messages lost") true
              (Sdn_sim.Link.messages_lost sc.Scenario.to_controller > 0)
          else
            Alcotest.(check int) (name "every session resynced") n_switches
              (Sdn_controller.Controller.counters sc.Scenario.controller)
                .Sdn_controller.Controller.resyncs)
        [
          ("outage", { base with Config.faults = faults "outage=0.1-0.15" });
          ( "controller crash",
            {
              base with
              Config.faults = faults "crash=ctl:0.1:0.05:warm";
              echo_interval = 0.02;
            } );
        ])
    [ 2; 3 ]

let suite =
  [
    Alcotest.test_case "single switch sanity" `Quick
      test_single_switch_matches_paper_setup;
    Alcotest.test_case "requests scale with hop count" `Quick
      test_requests_scale_with_hops;
    Alcotest.test_case "setup delay accumulates per hop" `Quick
      test_setup_delay_grows_with_hops;
    Alcotest.test_case "buffering wins across hops" `Quick
      test_buffer_beats_no_buffer_across_hops;
    Alcotest.test_case "flow granularity in a chain" `Quick
      test_flow_granularity_in_chain;
    Alcotest.test_case "one-switch chain is the scenario" `Quick
      test_one_switch_chain_is_the_scenario;
    Alcotest.test_case "rejects empty chain" `Quick test_rejects_empty_chain;
    Alcotest.test_case "chain runs are reproducible" `Quick test_chain_reproducible;
    Alcotest.test_case "chain switches carry every config field" `Quick
      test_chain_switches_carry_config;
    Alcotest.test_case "chain honours the fault plan and the checker" `Quick
      test_chain_honours_faults_and_checker;
  ]
