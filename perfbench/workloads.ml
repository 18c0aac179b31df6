(* The four benchmark workloads. Each one is a list of experiment
   configurations making up one "pass", built from the benchmark seed,
   plus the same experiments run through the library's own sweep entry
   point with the runtime invariant checker armed. README.md says why
   each workload was chosen and which layers it loads. *)

open Sdn_core

type t = {
  name : string;
  fault_free : bool;
      (** no injected faults, so every started flow must complete *)
  configs : seed:int -> Config.t list;  (** one pass, in run order *)
  checked : seed:int -> Experiment.result list;
      (** the pass again through [Sweep.run] / [Chaos.run_*] /
          [Experiment.run] with [check = true], in [configs] order *)
}

let armed (c : Config.t) = { c with Config.check = true }

(* ---- paper-sweep: Exp-A (no-buffer, buffer-16, buffer-256) and Exp-B
   (packet vs flow granularity) over a reduced rate grid ---- *)

let sweep_rates = [ 10.0; 40.0; 70.0; 100.0 ]
let sweep_reps = 2

let sweep_series =
  [
    ( "no-buffer",
      fun ~rate_mbps ~seed ->
        Config.exp_a ~mechanism:Config.No_buffer ~buffer_capacity:0 ~rate_mbps
          ~seed );
    ( "buffer-16",
      fun ~rate_mbps ~seed ->
        Config.exp_a ~mechanism:Config.Packet_granularity ~buffer_capacity:16
          ~rate_mbps ~seed );
    ( "buffer-256",
      fun ~rate_mbps ~seed ->
        Config.exp_a ~mechanism:Config.Packet_granularity ~buffer_capacity:256
          ~rate_mbps ~seed );
    ( "packet-granularity",
      fun ~rate_mbps ~seed ->
        Config.exp_b ~mechanism:Config.Packet_granularity ~rate_mbps ~seed );
    ( "flow-granularity",
      fun ~rate_mbps ~seed ->
        Config.exp_b ~mechanism:Config.Flow_granularity ~rate_mbps ~seed );
  ]

(* Sweep.seed_for stays below 10^7 on any rate grid up to 1 Gbps, so
   benchmark seed [s] moves every grid cell to a disjoint seed range
   (seed 0 is the paper's own grid). *)
let cell_seed ~seed cell = cell + (seed * 10_000_000)

let paper_sweep_configs ~seed =
  List.concat_map
    (fun (_, make) ->
      List.concat_map
        (fun rate_mbps ->
          List.init sweep_reps (fun rep ->
              make ~rate_mbps
                ~seed:(cell_seed ~seed (Sweep.seed_for ~rate_mbps ~rep))))
        sweep_rates)
    sweep_series

let paper_sweep_checked ~seed =
  List.concat_map
    (fun (label, make) ->
      let series =
        Sweep.run ~label ~rates:sweep_rates ~reps:sweep_reps ~jobs:1
          (fun ~rate_mbps ~seed:cell ->
            armed (make ~rate_mbps ~seed:(cell_seed ~seed cell)))
      in
      List.concat_map (fun p -> p.Sweep.results) series.Sweep.points)
    sweep_series

(* ---- flow-scale: one Poisson_flows experiment with the massive
   scenario's shard configuration, so the table holds one rule per
   flow ---- *)

let flow_scale_flows = 3000

let flow_scale_config ~seed =
  {
    Config.default with
    Config.workload = Config.Poisson_flows { n_flows = flow_scale_flows };
    seed;
    rate_mbps = 100.0;
    buffer_capacity = 4096;
    flow_table_capacity = 65536;
  }

(* ---- hit-mix: one Poisson_mix experiment, mostly microflow hits on
   the default 2048-entry table ---- *)

let hit_mix_packets = 30_000

let hit_mix_config ~seed =
  {
    Config.default with
    Config.workload =
      Config.Poisson_mix { n_packets = hit_mix_packets; miss_fraction = 0.03 };
    seed;
    rate_mbps = 100.0;
  }

(* ---- fault-recovery: the crash and outage sweeps over a few base
   seeds ---- *)

let fault_seeds ~seed = List.init 8 (fun i -> (8 * seed) + i)

(* The point order of Chaos.run_crash / Chaos.run_outage. *)
let crash_configs ~base =
  List.concat_map
    (fun mechanism ->
      List.concat_map
        (fun node ->
          List.concat_map
            (fun mode ->
              List.map
                (fun down ->
                  Chaos.crash_point_config ~base ~mechanism ~node ~mode ~down)
                Chaos.default_crash_downs)
            Chaos.default_crash_modes)
        Chaos.default_crash_nodes)
    Chaos.default_mechanisms

let outage_configs ~base =
  List.concat_map
    (fun mechanism ->
      List.concat_map
        (fun fail_mode ->
          List.map
            (fun duration ->
              Chaos.outage_point_config ~base ~mechanism ~fail_mode ~duration)
            Chaos.default_outage_durations)
        Chaos.default_fail_modes)
    Chaos.default_mechanisms

let fault_recovery_configs ~seed =
  List.concat_map
    (fun s ->
      crash_configs ~base:(Chaos.default_crash_base ~seed:s)
      @ outage_configs ~base:(Chaos.default_outage_base ~seed:s))
    (fault_seeds ~seed)

let fault_recovery_checked ~seed =
  List.concat_map
    (fun s ->
      let crash =
        Chaos.run_crash ~jobs:1
          ~base:(armed (Chaos.default_crash_base ~seed:s))
          ()
      in
      let outage =
        Chaos.run_outage ~jobs:1
          ~base:(armed (Chaos.default_outage_base ~seed:s))
          ()
      in
      List.map (fun (p : Chaos.crash_point) -> p.Chaos.result) crash
      @ List.map (fun (p : Chaos.outage_point) -> p.Chaos.result) outage)
    (fault_seeds ~seed)

let single make ~seed = [ make ~seed ]
let single_checked make ~seed = [ Experiment.run (armed (make ~seed)) ]

let all =
  [
    {
      name = "paper-sweep";
      fault_free = true;
      configs = paper_sweep_configs;
      checked = paper_sweep_checked;
    };
    {
      name = "flow-scale";
      fault_free = true;
      configs = single flow_scale_config;
      checked = single_checked flow_scale_config;
    };
    {
      name = "hit-mix";
      fault_free = true;
      configs = single hit_mix_config;
      checked = single_checked hit_mix_config;
    };
    {
      name = "fault-recovery";
      fault_free = false;
      configs = fault_recovery_configs;
      checked = fault_recovery_checked;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
