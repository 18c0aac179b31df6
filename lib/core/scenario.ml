open Sdn_sim
open Sdn_net
open Sdn_measure

type t = {
  engine : Engine.t;
  switch : Sdn_switch.Switch.t;
  switches : Sdn_switch.Switch.t array;
  controller : Sdn_controller.Controller.t;
  check : Sdn_check.Check.t option;
  capture : Capture.t;
  delay : Delay.t;
  host1_link : Bytes.t Link.t;
  host2_link : Bytes.t Link.t;
  to_host1 : Bytes.t Link.t;
  to_host2 : Bytes.t Link.t;
  to_controller : Bytes.t Link.t;
  to_switch : Bytes.t Link.t;
  faults_up : Faults.t;
  faults_down : Faults.t;
  traffic_rng : Rng.t;
  mutable host1_received : int;
  mutable host2_received : int;
  (* Crash schedule interpretation: (time, description) per injected
     crash/restart, oldest first once reversed. *)
  mutable crash_events_rev : (float * string) list;
}

let host1_ip = Ip.make 10 0 0 1
let host2_ip = Ip.make 10 0 0 2

(* The Config -> Switch.config mapping every switch of the chain is
   built with. *)
let switch_config ~datapath_id (config : Config.t) =
  {
    Sdn_switch.Switch.default_config with
    Sdn_switch.Switch.datapath_id;
    (* buffer_capacity = 0 means the no-buffer configuration. *)
    mechanism =
      (if config.Config.buffer_capacity = 0 then Sdn_switch.Switch.No_buffer
       else config.Config.mechanism);
    buffer_capacity = max 1 config.Config.buffer_capacity;
    miss_send_len = config.Config.miss_send_len;
    resend_timeout = config.Config.resend_timeout;
    resend_multiplier = config.Config.resend_multiplier;
    resend_cap = config.Config.resend_cap;
    resend_jitter = config.Config.resend_jitter;
    max_resends = config.Config.max_resends;
    flow_table_capacity = config.Config.flow_table_capacity;
    echo_interval = config.Config.echo_interval;
    echo_misses = config.Config.echo_misses;
    fail_mode = config.Config.fail_mode;
    overload_watermark = config.Config.overload_watermark;
    buf_policy = config.Config.buf_policy;
    (* Headroom for the non-static policies: twice the QoS queues'
       combined capacity, so complete sharing / DT have real slack to
       move between the ingress pool and the egress classes. Static
       ignores it (admission is per-class quota). *)
    shared_headroom =
      (match (config.Config.buf_policy, config.Config.qos) with
      | Some _, Some qos ->
          2
          * List.fold_left
              (fun acc (q : Sdn_switch.Egress_queue.queue_config) ->
                acc + q.Sdn_switch.Egress_queue.capacity)
              0 qos.Config.queues
      | _, _ -> 0);
  }

let build ?(n_switches = 1) (config : Config.t) =
  if n_switches < 1 then invalid_arg "Scenario.build: need at least one switch";
  let engine = Engine.create () in
  let root_rng = Rng.of_int config.Config.seed in
  let traffic_rng = Rng.split root_rng in
  let capture = Capture.create ~encap_overhead:Calibration.encap_overhead_bytes () in
  let delay = Delay.create () in
  let check =
    if config.Config.check then Some (Sdn_check.Check.create ()) else None
  in
  let addressing = Sdn_traffic.Addressing.default in
  let switches =
    Array.init n_switches (fun i ->
        Sdn_switch.Switch.create engine ?check
          ~config:(switch_config ~datapath_id:(Int64.of_int (i + 1)) config)
          ~costs:config.Config.switch_costs ~rng:(Rng.split root_rng) ())
  in
  let controller_rng = Rng.split root_rng in
  let hosts =
    [
      (host1_ip, addressing.Sdn_traffic.Addressing.src_mac, 1);
      (host2_ip, addressing.Sdn_traffic.Addressing.dst_mac, 2);
    ]
  in
  let app =
    match config.Config.qos with
    | None ->
        Sdn_controller.Apps.forwarding ~hosts
          ~idle_timeout:config.Config.rule_idle_timeout ()
    | Some qos ->
        Sdn_controller.Apps.qos_forwarding ~hosts
          ~classify:qos.Config.classify
          ~idle_timeout:config.Config.rule_idle_timeout ()
  in
  let controller =
    Sdn_controller.Controller.create engine ~app
      ~costs:config.Config.controller_costs ~rng:controller_rng ?check
      ~release_strategy:config.Config.release_strategy
      ~echo_interval:config.Config.echo_interval
      ~echo_misses:config.Config.echo_misses ()
  in
  (* The legacy [control_loss_rate] knob folds into the fault plan's
     independent-loss field; each direction of every control channel
     gets its own plan (and RNG stream) so the schedules are
     independent but all derived from the run seed. *)
  let fault_spec =
    let spec = config.Config.faults in
    if config.Config.control_loss_rate > 0.0 && spec.Faults.loss_rate = 0.0
    then { spec with Faults.loss_rate = config.Config.control_loss_rate }
    else spec
  in
  let scenario = ref None in
  let get () = Option.get !scenario in
  let last = n_switches - 1 in
  let name i = Printf.sprintf "sw%d" (i + 1) in
  let data_link ~name ?(bandwidth_bps = Calibration.data_link_bandwidth_bps)
      ?capture receiver =
    Link.create engine ~name ~bandwidth_bps
      ~propagation_s:Calibration.data_link_latency ?capture ~receiver ()
  in
  (* Host ingress links: measurement sees the frame as it reaches the
     first switch on its path. *)
  let from_host host i ~in_port =
    data_link ~name:(Printf.sprintf "host%d->%s" host (name i)) (fun frame ->
        Delay.on_switch_ingress delay ~time:(Engine.now engine) frame;
        Sdn_switch.Switch.handle_frame switches.(i) ~in_port frame)
  in
  (* Host egress links: the capture hook sees the frame the instant the
     last switch on its path puts it on the wire, which is the paper's
     "packet leaving the switch". *)
  let to_host host i ?bandwidth_bps count =
    data_link ~name:(Printf.sprintf "%s->host%d" (name i) host) ?bandwidth_bps
      ~capture:(fun ~time ~size:_ frame -> Delay.on_switch_egress delay ~time frame)
      (fun _frame -> count (get ()))
  in
  let host1_link = from_host 1 0 ~in_port:1 in
  let host2_link = from_host 2 last ~in_port:2 in
  let to_host1 = to_host 1 0 (fun s -> s.host1_received <- s.host1_received + 1) in
  let to_host2 =
    to_host 2 last ?bandwidth_bps:config.Config.egress_bandwidth_bps (fun s ->
        s.host2_received <- s.host2_received + 1)
  in
  let channel i =
    let faults_up = Faults.create ~spec:fault_spec ~rng:(Rng.split root_rng) () in
    let faults_down =
      Faults.create ~spec:fault_spec ~rng:(Rng.split root_rng) ()
    in
    let to_controller =
      Link.create engine
        ~name:(name i ^ "->controller")
        ~bandwidth_bps:Calibration.control_link_bandwidth_bps
        ~propagation_s:Calibration.control_link_latency ~faults:faults_up
        ~capture:(fun ~time ~size:_ buf ->
          Capture.observe capture Capture.To_controller ~time buf;
          Delay.on_to_controller delay ~time buf)
        ~receiver:(fun buf ->
          Sdn_controller.Controller.handle_message_from controller ~switch:i buf)
        ()
    in
    let to_switch =
      Link.create engine
        ~name:("controller->" ^ name i)
        ~bandwidth_bps:Calibration.control_link_bandwidth_bps
        ~propagation_s:Calibration.control_link_latency ~faults:faults_down
        ~capture:(fun ~time ~size:_ buf ->
          Capture.observe capture Capture.To_switch ~time buf)
        ~receiver:(fun buf ->
          Delay.on_to_switch delay ~time:(Engine.now engine) buf;
          Sdn_switch.Switch.handle_of_message switches.(i) buf)
        ()
    in
    (to_controller, to_switch, faults_up, faults_down)
  in
  let channels = Array.init n_switches channel in
  (* Adjacent switches meet port 2 to port 1, one link each way. *)
  Sdn_switch.Switch.set_port switches.(0) ~port:1 to_host1;
  for i = 0 to last - 1 do
    Sdn_switch.Switch.set_port switches.(i) ~port:2
      (data_link
         ~name:(Printf.sprintf "%s->%s" (name i) (name (i + 1)))
         (Sdn_switch.Switch.handle_frame switches.(i + 1) ~in_port:1));
    Sdn_switch.Switch.set_port switches.(i + 1) ~port:1
      (data_link
         ~name:(Printf.sprintf "%s->%s" (name (i + 1)) (name i))
         (Sdn_switch.Switch.handle_frame switches.(i) ~in_port:2))
  done;
  Sdn_switch.Switch.set_port switches.(last) ~port:2 to_host2;
  (match config.Config.qos with
  | Some qos ->
      Array.iter
        (fun switch ->
          Sdn_switch.Switch.set_port_scheduler switch ~port:1
            ~policy:qos.Config.policy ~queues:qos.Config.queues;
          Sdn_switch.Switch.set_port_scheduler switch ~port:2
            ~policy:qos.Config.policy ~queues:qos.Config.queues)
        switches
  | None -> ());
  Array.iteri
    (fun i switch ->
      let to_controller, to_switch, _, _ = channels.(i) in
      Sdn_switch.Switch.set_controller_link switch to_controller;
      Sdn_controller.Controller.add_switch controller ~switch:i to_switch;
      Sdn_switch.Switch.start switch)
    switches;
  let enable_flow_buffer =
    match config.Config.mechanism with
    | Config.Flow_granularity ->
        Some
          {
            Sdn_openflow.Of_ext.timeout = config.Config.resend_timeout;
            multiplier = config.Config.resend_multiplier;
            cap = config.Config.resend_cap;
            max_resends = config.Config.max_resends;
          }
    | Config.No_buffer | Config.Packet_granularity -> None
  in
  for i = 0 to last do
    Sdn_controller.Controller.start_switch controller ~switch:i
      ?enable_flow_buffer ~miss_send_len:config.Config.miss_send_len ()
  done;
  (* Crash schedule: the fault plan's crash entries are interpreted
     here, at the topology layer — the only place that knows both
     endpoints. Each crash kills one node (which force-downs its own
     session state) and delivers the TCP reset to the surviving peers:
     a switch crash hits switch 1, a controller crash resets every
     switch's session. The restart re-enters the ordinary reconnect
     machinery, whose first answered probe triggers resync and,
     because the disconnect was a crash, the controller's flow-state
     reconciliation pass. *)
  let note_crash_event time what =
    let s = get () in
    s.crash_events_rev <- (time, what) :: s.crash_events_rev
  in
  List.iter
    (fun (c : Faults.crash) ->
      let mode_s = Faults.restart_mode_to_string c.Faults.mode in
      ignore
        (Engine.schedule_at engine c.Faults.at_s (fun () ->
             note_crash_event (Engine.now engine)
               (Printf.sprintf "switch crash (%s)" mode_s);
             Sdn_switch.Switch.crash switches.(0) ~mode:c.Faults.mode;
             Sdn_controller.Controller.note_switch_disconnect controller
               ~switch:0));
      ignore
        (Engine.schedule_at engine
           (c.Faults.at_s +. c.Faults.down_s)
           (fun () ->
             note_crash_event (Engine.now engine) "switch restart";
             Sdn_switch.Switch.restart switches.(0))))
    (Faults.crashes_for fault_spec Faults.Switch_node);
  List.iter
    (fun (c : Faults.crash) ->
      let mode_s = Faults.restart_mode_to_string c.Faults.mode in
      ignore
        (Engine.schedule_at engine c.Faults.at_s (fun () ->
             note_crash_event (Engine.now engine)
               (Printf.sprintf "controller crash (%s)" mode_s);
             Sdn_controller.Controller.crash controller ~mode:c.Faults.mode;
             Array.iter
               (fun switch ->
                 Sdn_switch.Session.note_disconnect
                   (Sdn_switch.Switch.session switch))
               switches));
      ignore
        (Engine.schedule_at engine
           (c.Faults.at_s +. c.Faults.down_s)
           (fun () ->
             note_crash_event (Engine.now engine) "controller restart";
             Sdn_controller.Controller.restart controller ~mode:c.Faults.mode)))
    (Faults.crashes_for fault_spec Faults.Controller_node);
  let to_controller, to_switch, faults_up, faults_down = channels.(0) in
  let s =
    {
      engine;
      switch = switches.(0);
      switches;
      controller;
      check;
      capture;
      delay;
      host1_link;
      host2_link;
      to_host1;
      to_host2;
      to_controller;
      to_switch;
      faults_up;
      faults_down;
      traffic_rng;
      host1_received = 0;
      host2_received = 0;
      crash_events_rev = [];
    }
  in
  scenario := Some s;
  s

let crash_events t = List.rev t.crash_events_rev

let inject t ~in_port frame =
  let link =
    match in_port with
    | 1 -> t.host1_link
    | 2 -> t.host2_link
    | p -> invalid_arg (Printf.sprintf "Scenario.inject: no host on port %d" p)
  in
  Link.send link ~size:(Bytes.length frame) frame

let run_until_quiet ?(grace = 2.0) ?(min_time = 0.0) t =
  (* Run in grace-sized slices until every injected packet has either
     egressed or been dropped (bounded rounds — the housekeeping sweep
     reschedules forever, so a plain drain would never terminate). *)
  let rec loop rounds limit =
    Engine.run ~until:limit t.engine;
    let settled =
      Array.fold_left
        (fun acc switch ->
          acc
          + (Sdn_switch.Switch.counters switch).Sdn_switch.Switch.frames_dropped)
        (Delay.packets_out t.delay) t.switches
    in
    if rounds < 10 && settled < Delay.packets_in t.delay then
      loop (rounds + 1) (limit +. grace)
  in
  loop 0 (Float.max min_time (Engine.now t.engine) +. grace)
