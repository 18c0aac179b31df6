(** The [massive] extreme-scale bench scenario.

    Injects an extreme flow count through the {e full}
    switch/controller pipeline (PACKET_IN, buffering, flow-mod,
    forwarding) as independent Poisson single-packet-flow shards fanned
    out over {!Exec.run}, so [--jobs] and [--check]
    (parallel-equivalence replay included) work exactly as in the
    standard sweeps. {!Experiment.result.sim_events} summed over shards
    is the numerator of the headline events/s rate.

    Wall-clock timing is the caller's job, so every count in these
    stats is byte-identical across [--jobs] widths and queue backends;
    the CLI's [massive] subcommand prints them on stdout and its
    wall-clock rate on stderr. *)

type pipeline_stats = {
  pl_shards : int;
  pl_flows : int;  (** total flows injected across shards *)
  pl_packets_in : int;
  pl_packets_out : int;
  pl_flows_completed : int;
  pl_sim_events : int;  (** engine events dispatched, summed over shards *)
  pl_check_violations : int;
  pl_check_reports : string list;
      (** per-shard reports, shard order, each headed by its shard's
          label *)
}

val shard_cells :
  flows:int ->
  shards:int ->
  event_queue:Sdn_sim.Engine.queue_kind ->
  check:bool ->
  seed:int ->
  (string * Config.t) list
(** The labelled shard configurations {!run_pipeline} runs:
    [min shards flows] shards labelled [massive/shard-<i>], seeded
    [seed + i], splitting [flows] as evenly as possible. Empty when
    [flows] or [shards] is non-positive. *)

val run_pipeline :
  ?flows:int ->
  ?shards:int ->
  ?event_queue:Sdn_sim.Engine.queue_kind ->
  ?check:bool ->
  ?jobs:int ->
  ?seed:int ->
  unit ->
  pipeline_stats
(** Split [flows] (default 1_000_000) Poisson single-packet flows into
    [min shards flows] ([shards] defaults to 20) independent
    full-pipeline experiments (seeded [seed], [seed+1], ...) and run
    them [jobs]-wide. Raises [Invalid_argument] if [flows] or [shards]
    is non-positive. *)
