open Sdn_measure

type result = {
  n_switches : int;
  setup_delay : Experiment.summary;
  ctrl_load_up_mbps : float;
  ctrl_load_down_mbps : float;
  pkt_ins : int;
  packets_in : int;
  packets_out : int;
}

let run (config : Config.t) ~n_switches =
  let sc = Scenario.build ~n_switches config in
  let injections = Experiment.injections_of config sc.Scenario.traffic_rng in
  let plan = Sdn_traffic.Pktgen.stats_of injections in
  Sdn_traffic.Pktgen.schedule sc.Scenario.engine
    ~inject:(fun ~in_port frame -> Scenario.inject sc ~in_port frame)
    injections;
  Scenario.run_until_quiet ~min_time:plan.Sdn_traffic.Pktgen.last sc;
  let capture = sc.Scenario.capture and delay = sc.Scenario.delay in
  let window_end =
    Float.max
      (Delay.last_egress_time delay)
      (Option.value ~default:plan.Sdn_traffic.Pktgen.last
         (Capture.last_time capture Capture.To_switch))
  in
  let window = Float.max 1e-9 (window_end -. plan.Sdn_traffic.Pktgen.first) in
  {
    n_switches;
    setup_delay = Experiment.summary_of_stats (Delay.flow_setup_delays delay);
    ctrl_load_up_mbps = Capture.load_mbps capture Capture.To_controller ~window;
    ctrl_load_down_mbps = Capture.load_mbps capture Capture.To_switch ~window;
    pkt_ins =
      Array.fold_left
        (fun acc sw ->
          acc + (Sdn_switch.Switch.counters sw).Sdn_switch.Switch.pkt_ins_sent)
        0 sc.Scenario.switches;
    packets_in = Delay.packets_in delay;
    packets_out = sc.Scenario.host2_received;
  }

let pp_result fmt r =
  Format.fprintf fmt
    "chain{%d switches: setup mean=%.3fms, ctrl %.2f/%.2f Mbps, %d requests, \
     %d/%d delivered}"
    r.n_switches
    (r.setup_delay.Experiment.mean *. 1e3)
    r.ctrl_load_up_mbps r.ctrl_load_down_mbps r.pkt_ins r.packets_out
    r.packets_in
