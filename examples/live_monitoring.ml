(* Live monitoring over the OpenFlow statistics machinery.

   Run with:  dune exec examples/live_monitoring.exe

   A monitor co-located with the controller polls the switch every
   50 ms with real OpenFlow messages — OFPST_AGGREGATE flow statistics
   plus this repository's vendor flow-buffer statistics — and prints
   the resulting timeline: the observability a deployment would use to
   pick a buffer size (paper, Section IV.G).

   The monitor shares the controller's control channel: the example
   swaps in an upstream control link that lets it decode the replies
   itself, and sends its polls down the scenario's own downstream
   link. *)

open Sdn_sim
open Sdn_openflow
open Sdn_core

type sample = {
  at : float;
  matched_packets : int64;
  rules : int32;
  buffer : Of_ext.stats;
}

let () =
  (* The paper's Exp-B at 90 Mbps over the flow-granularity buffer. *)
  let config =
    {
      Config.default with
      Config.mechanism = Config.Flow_granularity;
      rate_mbps = 90.0;
      workload =
        Config.Exp_b { n_flows = 50; packets_per_flow = 20; concurrent = 5 };
      seed = 13;
    }
  in
  let sc = Scenario.build config in
  let engine = sc.Scenario.engine in
  (* Monitor state: it keeps the pending-xid set and assembles a sample
     whenever both replies of a polling epoch have arrived. *)
  let pending = Hashtbl.create 8 in
  let timeline = ref [] in
  let latest_aggregate = ref 0L in
  let latest_rules = ref 0l in
  let monitor_sniff buf =
    match Of_codec.decode buf with
    | Ok (xid, Of_codec.Stats_reply (Of_stats.Aggregate_reply a))
      when Hashtbl.mem pending xid ->
        Hashtbl.remove pending xid;
        latest_aggregate := a.packet_count;
        latest_rules := a.flow_count
    | Ok (xid, Of_codec.Vendor (Of_ext.Flow_buffer_stats_reply s))
      when Hashtbl.mem pending xid ->
        Hashtbl.remove pending xid;
        timeline :=
          {
            at = Engine.now engine;
            matched_packets = !latest_aggregate;
            rules = !latest_rules;
            buffer = s;
          }
          :: !timeline
    | Ok _ | Error _ -> ()
  in
  (* The upstream control link, with the monitor sniffing its
     receiver. *)
  Sdn_switch.Switch.set_controller_link sc.Scenario.switch
    (Link.create engine ~name:"switch->controller"
       ~bandwidth_bps:Calibration.control_link_bandwidth_bps
       ~propagation_s:Calibration.control_link_latency
       ~receiver:(fun buf ->
         monitor_sniff buf;
         Sdn_controller.Controller.handle_message sc.Scenario.controller buf)
       ());
  (* The polling loop: two real OpenFlow requests every 50 ms. *)
  let next_xid = ref 0x7000_0000l in
  let poll () =
    let send msg =
      next_xid := Int32.add !next_xid 1l;
      Hashtbl.replace pending !next_xid ();
      let encoded = Of_codec.encode ~xid:!next_xid msg in
      Link.send sc.Scenario.to_switch ~size:(Bytes.length encoded) encoded
    in
    send
      (Of_codec.Stats_request
         (Of_stats.Aggregate_request
            {
              match_ = Of_match.wildcard_all;
              table_id = 0xFF;
              out_port = Of_wire.Port.none;
            }));
    send (Of_codec.Vendor Of_ext.Flow_buffer_stats_request)
  in
  Sdn_measure.Sampler.every engine ~dt:0.05 ~until:0.35 (fun ~time:_ -> poll ());
  Sdn_traffic.Pktgen.schedule engine
    ~inject:(fun ~in_port frame -> Scenario.inject sc ~in_port frame)
    (Experiment.injections_of config sc.Scenario.traffic_rng);
  Engine.run ~until:0.6 engine;
  Printf.printf
    "Exp-B at 90 Mbps, flow-granularity buffer; the monitor polled the\n\
     switch every 50 ms with AGGREGATE + vendor buffer-stats requests:\n\n";
  let rows =
    List.rev_map
      (fun s ->
        [
          Printf.sprintf "%.0f" (s.at *. 1000.0);
          Int64.to_string s.matched_packets;
          Int32.to_string s.rules;
          Printf.sprintf "%d/%d" s.buffer.Of_ext.units_in_use
            s.buffer.Of_ext.units_total;
          string_of_int s.buffer.Of_ext.packets_buffered;
          string_of_int s.buffer.Of_ext.resends;
        ])
      !timeline
  in
  Sdn_measure.Report.print_table
    ~header:
      [ "t (ms)"; "pkts matched"; "rules"; "buffer units"; "chained pkts";
        "re-requests" ]
    ~rows;
  Printf.printf
    "\n%d of 1000 frames delivered to Host2. The pool breathes with each\n\
     cross-sequence batch: units spike as five new flows' first packets\n\
     arrive, then drain as releases land and installed rules take over.\n"
    sc.Scenario.host2_received
