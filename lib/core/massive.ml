(* The [massive] extreme-scale scenario: an extreme Poisson flow count
   sharded over the full switch/controller pipeline via Exec. It
   returns deterministic counters only — the CLI owns the stopwatch. *)

type pipeline_stats = {
  pl_shards : int;
  pl_flows : int;
  pl_packets_in : int;
  pl_packets_out : int;
  pl_flows_completed : int;
  pl_sim_events : int;
  pl_check_violations : int;
  pl_check_reports : string list;
}

let shard_cells ~flows ~shards ~check ~seed =
  let shards = max 0 (min shards flows) in
  List.init shards (fun i ->
      ( Printf.sprintf "massive/shard-%d" i,
        {
          Config.default with
          Config.workload =
            Config.Poisson_flows
              {
                n_flows = (flows / shards) + if i < flows mod shards then 1 else 0;
              };
          seed = seed + i;
          rate_mbps = 100.0;
          buffer_capacity = 4096;
          flow_table_capacity = 65536;
          check;
        } ))

let run_pipeline ?(flows = 1_000_000) ?(shards = 20) ?(check = false)
    ?(jobs = 1) ?(seed = 1) () =
  if flows <= 0 then invalid_arg "Massive.run_pipeline: non-positive flows";
  if shards <= 0 then invalid_arg "Massive.run_pipeline: non-positive shards";
  let cells = shard_cells ~flows ~shards ~check ~seed in
  let results = Exec.run ~jobs cells in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  {
    pl_shards = List.length cells;
    pl_flows = flows;
    pl_packets_in = sum (fun r -> r.Experiment.packets_in);
    pl_packets_out = sum (fun r -> r.Experiment.packets_out);
    pl_flows_completed = sum (fun r -> r.Experiment.flows_completed);
    pl_sim_events = sum (fun r -> r.Experiment.sim_events);
    pl_check_violations = sum (fun r -> r.Experiment.check_violations);
    pl_check_reports =
      List.filter_map
        (fun ((label, _), r) ->
          Option.map (Printf.sprintf "%s:\n%s" label) r.Experiment.check_report)
        (List.combine cells results);
  }
