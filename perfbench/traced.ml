(* The traced run: an experiment rebuilt from public parts, with spans
   around every layer entry point, and replays of the inputs it
   captured through each layer's public functions.

   [run] does what [Experiment.run] does, except that the scenario's
   control links and host ingress links are replaced by
   benchmark-owned ones whose receivers time [Switch.handle_frame],
   [Switch.handle_of_message] and [Controller.handle_message]. The
   replacements reuse the scenario's fault plans, capture and delay
   trackers, so the simulated run must stay identical; [fidelity]
   checks that it does. *)

open Sdn_core
open Sdn_sim
open Sdn_measure
module Switch = Sdn_switch.Switch
module Flow_table = Sdn_switch.Flow_table
module Controller = Sdn_controller.Controller

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---- Spans ----

   A span's self time is its duration minus the time of the spans it
   encloses. [enclosed] is the running total of the current span's
   children. *)

type span = { mutable ns : int; mutable calls : int }

let new_span () = { ns = 0; calls = 0 }
let enclosed = ref 0

let timed span f =
  let t0 = now_ns () in
  let outer = !enclosed in
  enclosed := 0;
  f ();
  let d = now_ns () - t0 in
  span.ns <- span.ns + d - !enclosed;
  span.calls <- span.calls + 1;
  enclosed := outer + d

(* ---- What one pass of traced experiments records ---- *)

type captured = {
  capacity : int;  (** the experiment's flow-table capacity *)
  mutable messages : Bytes.t list;
      (** delivered control messages, newest first *)
  mutable frames : (int * Bytes.t) list;  (** ingress frames, newest first *)
}

type counters = {
  sim_events : int;
  pkt_ins : int;
  msgs_up : int;
  msgs_down : int;
  forwarded : int;
  dropped : int;
  microflow_hits : int;
}

type pass = {
  frame : span;  (** Switch.handle_frame *)
  of_message : span;  (** Switch.handle_of_message *)
  ctl_message : span;  (** Controller.handle_message *)
  mutable build_ns : int;  (** Scenario.build *)
  mutable gen_ns : int;  (** Patterns + Pktgen.schedule *)
  mutable loop_ns : int;  (** Scenario.run_until_quiet *)
  mutable peak_pending : int;
  mutable peak_table : int;
  mutable events : int;
  mutable table_inserts : int;
  mutable table_lookups : int;
  mutable evictions : int;
  mutable expirations : int;
  mutable mf_hits : int;
  mutable mf_misses : int;
  mutable mf_flushes : int;
  mutable frames_received : int;
  mutable bytes_up : int;
  mutable flows : int;
  mutable msgs_up : int;
  mutable msgs_down : int;
  mutable link_messages : int;
  mutable switch_jobs : int;
  mutable controller_jobs : int;
  mutable switch_max_queue : int;
  mutable controller_max_queue : int;
  mutable counters : counters list;  (** per experiment, newest first *)
  mutable captures : captured list;  (** per experiment, newest first *)
}

let new_pass () =
  {
    frame = new_span ();
    of_message = new_span ();
    ctl_message = new_span ();
    build_ns = 0;
    gen_ns = 0;
    loop_ns = 0;
    peak_pending = 0;
    peak_table = 0;
    events = 0;
    table_inserts = 0;
    table_lookups = 0;
    evictions = 0;
    expirations = 0;
    mf_hits = 0;
    mf_misses = 0;
    mf_flushes = 0;
    frames_received = 0;
    bytes_up = 0;
    flows = 0;
    msgs_up = 0;
    msgs_down = 0;
    link_messages = 0;
    switch_jobs = 0;
    controller_jobs = 0;
    switch_max_queue = 0;
    controller_max_queue = 0;
    counters = [];
    captures = [];
  }

(* The injection plan of Experiment.run, rebuilt from Patterns. *)
let injections (config : Config.t) rng =
  let open Sdn_traffic in
  let start = Experiment.traffic_start in
  let rate_mbps = config.Config.rate_mbps
  and frame_size = config.Config.frame_size in
  match config.Config.workload with
  | Config.Exp_a { n_flows } ->
      Patterns.exp_a ~rng ~start ~n_flows ~rate_mbps ~frame_size ()
  | Config.Exp_b { n_flows; packets_per_flow; concurrent } ->
      Patterns.exp_b ~rng ~start ~n_flows ~packets_per_flow ~concurrent
        ~rate_mbps ~frame_size ()
  | Config.Udp_burst { n_packets } ->
      Patterns.udp_burst ~rng ~start ~n_packets ~rate_mbps ~frame_size ()
  | Config.Poisson_flows { n_flows } ->
      Patterns.poisson_flows ~rng ~start ~n_flows ~rate_mbps ~frame_size ()
  | Config.Poisson_mix { n_packets; miss_fraction } ->
      Patterns.poisson_mix ~rng ~start ~n_packets ~miss_fraction ~rate_mbps
        ~frame_size ()

(* Build the scenario and schedule its traffic, as Experiment.run does
   before its first event: the set-up unit of the benchmark. *)
let prepare (config : Config.t) =
  let scenario = Scenario.build config in
  Sdn_traffic.Pktgen.schedule scenario.Scenario.engine
    ~inject:(fun ~in_port frame -> Scenario.inject scenario ~in_port frame)
    (injections config scenario.Scenario.traffic_rng)

let run ?(capture = false) pass (config : Config.t) =
  let t0 = now_ns () in
  let sc = Scenario.build config in
  pass.build_ns <- pass.build_ns + (now_ns () - t0);
  let engine = sc.Scenario.engine
  and switch = sc.Scenario.switch
  and controller = sc.Scenario.controller
  and cap = sc.Scenario.capture
  and delay = sc.Scenario.delay in
  let table = Switch.flow_table switch in
  let record =
    { capacity = config.Config.flow_table_capacity; messages = []; frames = [] }
  in
  let sample () =
    let pending = Engine.pending engine in
    if pending > pass.peak_pending then pass.peak_pending <- pending;
    let len = Flow_table.length table in
    if len > pass.peak_table then pass.peak_table <- len
  in
  let keep buf = if capture then record.messages <- buf :: record.messages in
  let to_controller =
    Link.create engine ~name:"switch->controller"
      ~bandwidth_bps:Calibration.control_link_bandwidth_bps
      ~propagation_s:Calibration.control_link_latency
      ~faults:sc.Scenario.faults_up
      ~capture:(fun ~time ~size:_ buf ->
        Capture.observe cap Capture.To_controller ~time buf;
        Delay.on_to_controller delay ~time buf)
      ~receiver:(fun buf ->
        sample ();
        keep buf;
        timed pass.ctl_message (fun () ->
            Controller.handle_message controller buf))
      ()
  in
  let to_switch =
    Link.create engine ~name:"controller->switch"
      ~bandwidth_bps:Calibration.control_link_bandwidth_bps
      ~propagation_s:Calibration.control_link_latency
      ~faults:sc.Scenario.faults_down
      ~capture:(fun ~time ~size:_ buf ->
        Capture.observe cap Capture.To_switch ~time buf)
      ~receiver:(fun buf ->
        sample ();
        keep buf;
        Delay.on_to_switch delay ~time:(Engine.now engine) buf;
        timed pass.of_message (fun () -> Switch.handle_of_message switch buf))
      ()
  in
  Switch.set_controller_link switch to_controller;
  Controller.set_switch_link controller to_switch;
  let ingress port =
    Link.create engine
      ~name:(Printf.sprintf "host%d->switch" port)
      ~bandwidth_bps:Calibration.data_link_bandwidth_bps
      ~propagation_s:Calibration.data_link_latency
      ~receiver:(fun frame ->
        sample ();
        if capture then record.frames <- (port, frame) :: record.frames;
        Delay.on_switch_ingress delay ~time:(Engine.now engine) frame;
        timed pass.frame (fun () ->
            Switch.handle_frame switch ~in_port:port frame))
      ()
  in
  let host1 = ingress 1 and host2 = ingress 2 in
  let t1 = now_ns () in
  let plan = injections config sc.Scenario.traffic_rng in
  Sdn_traffic.Pktgen.schedule engine
    ~inject:(fun ~in_port frame ->
      Link.send (if in_port = 1 then host1 else host2)
        ~size:(Bytes.length frame) frame)
    plan;
  pass.gen_ns <- pass.gen_ns + (now_ns () - t1);
  sample ();
  let last = (Sdn_traffic.Pktgen.stats_of plan).Sdn_traffic.Pktgen.last in
  let t2 = now_ns () in
  Scenario.run_until_quiet ~min_time:last sc;
  pass.loop_ns <- pass.loop_ns + (now_ns () - t2);
  let c = Switch.counters switch in
  let msgs_up = Capture.messages cap Capture.To_controller
  and msgs_down = Capture.messages cap Capture.To_switch in
  pass.events <- pass.events + Engine.processed engine;
  pass.table_inserts <- pass.table_inserts + c.Switch.flow_mods_handled;
  pass.table_lookups <- pass.table_lookups + Flow_table.lookups table;
  pass.evictions <- pass.evictions + Flow_table.evictions table;
  pass.expirations <- pass.expirations + Flow_table.expirations table;
  pass.mf_hits <- pass.mf_hits + Flow_table.microflow_hits table;
  pass.mf_misses <- pass.mf_misses + Flow_table.microflow_misses table;
  pass.mf_flushes <- pass.mf_flushes + Flow_table.microflow_flushes table;
  pass.frames_received <- pass.frames_received + c.Switch.frames_received;
  pass.bytes_up <- pass.bytes_up + Capture.bytes cap Capture.To_controller;
  pass.flows <- pass.flows + Delay.flows_started delay;
  pass.msgs_up <- pass.msgs_up + msgs_up;
  pass.msgs_down <- pass.msgs_down + msgs_down;
  pass.link_messages <-
    pass.link_messages
    + List.fold_left
        (fun acc l -> acc + Link.messages_sent l)
        0
        [
          sc.Scenario.host1_link;
          sc.Scenario.host2_link;
          sc.Scenario.to_host1;
          sc.Scenario.to_host2;
          sc.Scenario.to_controller;
          sc.Scenario.to_switch;
          to_controller;
          to_switch;
          host1;
          host2;
        ];
  let kernel = Switch.kernel_cpu switch
  and user = Switch.userspace_cpu switch in
  let ctl_cpu = Controller.cpu controller in
  pass.switch_jobs <-
    pass.switch_jobs + Cpu.jobs_completed kernel + Cpu.jobs_completed user;
  pass.controller_jobs <- pass.controller_jobs + Cpu.jobs_completed ctl_cpu;
  pass.switch_max_queue <-
    max pass.switch_max_queue
      (max (Cpu.max_queue_length kernel) (Cpu.max_queue_length user));
  pass.controller_max_queue <-
    max pass.controller_max_queue (Cpu.max_queue_length ctl_cpu);
  pass.counters <-
    {
      sim_events = Engine.processed engine;
      pkt_ins = c.Switch.pkt_ins_sent;
      msgs_up;
      msgs_down;
      forwarded = Delay.packets_out delay;
      dropped = c.Switch.frames_dropped;
      microflow_hits = Flow_table.microflow_hits table;
    }
    :: pass.counters;
  if capture then pass.captures <- record :: pass.captures

let counters_of_result (r : Experiment.result) =
  {
    sim_events = r.Experiment.sim_events;
    pkt_ins = r.Experiment.pkt_ins;
    msgs_up = r.Experiment.ctrl_msgs_up;
    msgs_down = r.Experiment.ctrl_msgs_down;
    forwarded = r.Experiment.packets_out;
    dropped = r.Experiment.packets_dropped;
    microflow_hits = r.Experiment.microflow_hits;
  }

(* Experiments (by index) whose traced counters differ from the
   untraced results. *)
let fidelity pass (results : Experiment.result list) =
  let traced = List.rev pass.counters in
  if List.compare_lengths traced results <> 0 then [ -1 ]
  else
    List.concat
      (List.mapi
         (fun i (t, r) -> if t = counters_of_result r then [] else [ i ])
         (List.combine traced results))

(* ---- Replays of the captured inputs ---- *)

type replay = {
  mutable decode_ns : int;
  mutable decoded : int;
  mutable insert_ns : int;
  mutable inserted : int;
  mutable lookup_ns : int;
  mutable looked_up : int;
  mutable pkt_decode_ns : int;
  mutable peek_ns : int;
  mutable peeked : int;
}

let flow_mod_adds messages =
  List.filter_map
    (fun buf ->
      match Sdn_openflow.Of_codec.decode buf with
      | Ok (_, Sdn_openflow.Of_codec.Flow_mod fm)
        when fm.Sdn_openflow.Of_flow_mod.command = Sdn_openflow.Of_flow_mod.Add
        ->
          Some fm
      | Ok _ | Error _ -> None)
    messages

let replay_one r (cap : captured) =
  let messages = List.rev cap.messages and frames = List.rev cap.frames in
  let t0 = now_ns () in
  List.iter (fun buf -> ignore (Sdn_openflow.Of_codec.decode buf)) messages;
  r.decode_ns <- r.decode_ns + (now_ns () - t0);
  r.decoded <- r.decoded + List.length messages;
  let entries =
    List.map
      (fun fm -> Sdn_switch.Flow_entry.of_flow_mod fm ~now:0.0)
      (flow_mod_adds messages)
  in
  let table = Flow_table.create ~capacity:cap.capacity () in
  let t1 = now_ns () in
  List.iter (fun e -> ignore (Flow_table.insert table e)) entries;
  r.insert_ns <- r.insert_ns + (now_ns () - t1);
  r.inserted <- r.inserted + List.length entries;
  let t2 = now_ns () in
  let packets =
    List.filter_map
      (fun (in_port, frame) ->
        match Sdn_net.Packet.decode frame with
        | Ok p -> Some (in_port, p)
        | Error _ -> None)
      frames
  in
  r.pkt_decode_ns <- r.pkt_decode_ns + (now_ns () - t2);
  let t3 = now_ns () in
  List.iter
    (fun (in_port, p) -> ignore (Flow_table.lookup table ~in_port p))
    packets;
  r.lookup_ns <- r.lookup_ns + (now_ns () - t3);
  r.looked_up <- r.looked_up + List.length packets;
  let t4 = now_ns () in
  List.iter
    (fun (_, frame) -> ignore (Sdn_net.Packet.peek_headers frame))
    frames;
  r.peek_ns <- r.peek_ns + (now_ns () - t4);
  r.peeked <- r.peeked + List.length frames

let replay pass =
  let r =
    {
      decode_ns = 0;
      decoded = 0;
      insert_ns = 0;
      inserted = 0;
      lookup_ns = 0;
      looked_up = 0;
      pkt_decode_ns = 0;
      peek_ns = 0;
      peeked = 0;
    }
  in
  List.iter (replay_one r) (List.rev pass.captures);
  r

(* ---- Portable scaling probe ----

   ns per insert of 4N distinct FLOW_MOD adds into a fresh table,
   divided by ns per insert of the first N of them, in the same
   process: about 1 for a constant-cost insert, about 4 when each
   insert walks the whole table. The rules are the experiment's first
   captured FLOW_MOD add with N = 250 different source ports each, so
   every workload probes the same table sizes with its own rule shape
   and table capacity. (Larger tables spill out of the caches, and
   the ratio then follows the host's cache contention.) Each side is
   the best of repeated inserts lasting at least [min_ns] in all (a
   minor collection or a burst of host load only adds time); rounds
   alternate the two sizes and the result is the median of the
   per-round ratios. *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let probe_n = 250

let insert_ns_per_op ~capacity fms k =
  let min_ns = 20_000_000 in
  let total = ref 0 and best = ref max_int in
  while !total < min_ns do
    let entries =
      Array.init k (fun i -> Sdn_switch.Flow_entry.of_flow_mod fms.(i) ~now:0.0)
    in
    let table = Flow_table.create ~capacity () in
    let t0 = now_ns () in
    Array.iter (fun e -> ignore (Flow_table.insert table e)) entries;
    let d = now_ns () - t0 in
    total := !total + d;
    best := min !best d
  done;
  float_of_int !best /. float_of_int k

let insert_scaling_4x ?(rounds = 5) (cap : captured) =
  match flow_mod_adds (List.rev cap.messages) with
  | [] -> Float.nan
  | fm :: _ ->
      let open Sdn_openflow in
      let fms =
        Array.init (4 * probe_n) (fun i ->
            {
              fm with
              Of_flow_mod.match_ =
                {
                  fm.Of_flow_mod.match_ with
                  Of_match.tp_src = Some (1024 + i);
                };
            })
      in
      median
        (List.init rounds (fun _ ->
             let small = insert_ns_per_op ~capacity:cap.capacity fms probe_n in
             let large =
               insert_ns_per_op ~capacity:cap.capacity fms (4 * probe_n)
             in
             large /. small))
