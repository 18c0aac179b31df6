(** The chaos scenario: control-channel loss rate swept against buffer
    mechanism. Each point runs one full {!Experiment} with the
    control-channel fault plan's independent loss set to the point's
    rate, and the report compares flow-completion ratio, packet
    delivery, re-request effort and time-to-recovery across
    mechanisms. All randomness comes from the seed in the base
    configuration, so two runs with the same seed produce
    byte-identical reports. *)

type point = {
  label : string;
      (** the task label the point ran under: the name both the CLI's
          [--check] epilogue and a parallel-equivalence report use *)
  config : Config.t;  (** the exact configuration the point ran *)
  loss_rate : float;  (** independent loss applied to both control legs *)
  result : Experiment.result;
}

val default_loss_rates : float list
(** [0; 0.05; 0.1; 0.2] *)

val default_mechanisms : Config.mechanism list
(** no-buffer, packet-granularity, flow-granularity. *)

val default_base : seed:int -> Config.t
(** Exp-B (50 flows x 20 packets) at 20 Mbps: multi-packet flows whose
    buffered tails make control-channel loss visible. *)

val point_config :
  base:Config.t -> mechanism:Config.mechanism -> loss_rate:float -> Config.t
(** The configuration a sweep point runs: [base] with the mechanism
    substituted and the fault plan's independent loss set to
    [loss_rate] (any burst/jitter/outage in [base.faults] is kept). *)

val run :
  ?mechanisms:Config.mechanism list ->
  ?loss_rates:float list ->
  ?jobs:int ->
  base:Config.t ->
  unit ->
  point list
(** Run the sweep: one experiment per mechanism x loss rate, in
    deterministic order (mechanisms outer, loss rates inner). [jobs]
    (default [base.jobs]) fans the independent points out over worker
    domains via {!Exec.run}; results are merged by point
    position, so every [jobs] value yields an identical point list. *)

val report : point list -> string
(** Deterministic plain-text report: one table row per point plus a
    time-to-recovery histogram aggregated over every point that
    recovered at least one flow. *)

(** {2 Outage sweep}

    A scheduled control-channel blackout swept against buffer mechanism
    and fail mode. Each point runs with the echo keepalive on, a single
    outage window opening at {!outage_start}, and the report compares
    detection latency, downtime, degraded-mode behaviour and recovery
    across points. Deterministic like the loss sweep. *)

type outage_point = {
  label : string;  (** the task label the point ran under *)
  config : Config.t;  (** the exact configuration the point ran *)
  fail_mode : Config.fail_mode;
  duration : float;  (** outage length, seconds *)
  result : Experiment.result;
}

val default_outage_durations : float list
(** [0.05; 0.1] seconds. *)

val default_fail_modes : Config.fail_mode list
(** fail-secure then fail-standalone. *)

val outage_start : float
(** When every sweep point's blackout opens (0.15 s — mid-run for the
    default Exp-B workload). *)

val default_outage_base : seed:int -> Config.t
(** {!default_base} with the keepalive armed: [echo_interval = 10 ms],
    [echo_misses = 2], so a blackout is declared Down within ~30 ms. *)

val outage_point_config :
  base:Config.t ->
  mechanism:Config.mechanism ->
  fail_mode:Config.fail_mode ->
  duration:float ->
  Config.t
(** The configuration an outage point runs: [base] with the mechanism
    and fail mode substituted and the fault plan's outage list replaced
    by a single [\[outage_start, outage_start + duration)] window. *)

val run_outage :
  ?mechanisms:Config.mechanism list ->
  ?fail_modes:Config.fail_mode list ->
  ?durations:float list ->
  ?jobs:int ->
  base:Config.t ->
  unit ->
  outage_point list
(** Run the sweep: one experiment per mechanism x fail mode x duration,
    in deterministic order (mechanisms outer, durations inner). [jobs]
    (default [base.jobs]) parallelizes exactly as in {!run}. *)

val outage_report : outage_point list -> string
(** Deterministic plain-text report: one table row per point (downs,
    detection latency, downtime, completion, standalone frames,
    fail-secure drops, frozen/resumed/expired chains, resyncs, false
    positives) plus each point's session-state timeline. *)

(** {2 Crash sweep}

    A scheduled node crash–restart swept against buffer mechanism,
    crashed node and restart mode. Each point runs with the echo
    keepalive armed and a single crash landing at {!crash_start}
    mid-incast; the report compares packets lost to the crash,
    recovery time to steady state, reconciliation effort and
    admission-guard sheds. Deterministic like the other sweeps. *)

type crash_point = {
  label : string;  (** the task label the point ran under *)
  config : Config.t;  (** the exact configuration the point ran *)
  node : Sdn_sim.Faults.crash_node;
  mode : Sdn_sim.Faults.restart_mode;
  down : float;  (** downtime before the restart, seconds *)
  result : Experiment.result;
}

val default_crash_nodes : Sdn_sim.Faults.crash_node list
(** switch then controller. *)

val default_crash_modes : Sdn_sim.Faults.restart_mode list
(** warm then cold. *)

val default_crash_downs : float list
(** [0.05] seconds. *)

val crash_start : float
(** When every sweep point's crash lands ({!outage_start} — mid-run for
    the default Exp-B workload, so misses are in flight). *)

val default_crash_base : seed:int -> Config.t
(** {!default_outage_base}: the keepalive is what notices a dead peer
    and drives the reconnect machinery on both sides. *)

val crash_point_config :
  base:Config.t ->
  mechanism:Config.mechanism ->
  node:Sdn_sim.Faults.crash_node ->
  mode:Sdn_sim.Faults.restart_mode ->
  down:float ->
  Config.t
(** The configuration a crash point runs: [base] with the mechanism
    substituted and the fault plan's crash list replaced by a single
    crash of [node] at {!crash_start}, down for [down] seconds,
    restarting in [mode]. *)

val run_crash :
  ?mechanisms:Config.mechanism list ->
  ?nodes:Sdn_sim.Faults.crash_node list ->
  ?modes:Sdn_sim.Faults.restart_mode list ->
  ?downs:float list ->
  ?jobs:int ->
  base:Config.t ->
  unit ->
  crash_point list
(** Run the sweep: one experiment per mechanism x node x mode x
    downtime, in deterministic order (mechanisms outer, downtimes
    inner). [jobs] (default [base.jobs]) parallelizes exactly as in
    {!run}. *)

val crash_report : crash_point list -> string
(** Deterministic plain-text report: one table row per point (packets
    and messages lost to the crash, recovery time, reconciliation
    audit/re-install counts, admission-guard sheds, completion,
    frozen/resumed/expired chains) plus each point's session timeline
    with crash/restart/reconciliation events marked. *)

(** {2 Buffer-policy sweep}

    The shared-buffer sharing disciplines of {!Sdn_switch.Buf_policy}
    swept against pool size under an incast burst. Each point runs the
    same deterministic 80 Mbps burst into a 20 Mbps egress uplink with
    three strict-priority classes, so both the ingress packet pool and
    the egress backlog draw on the shared pool; the report compares
    delivery, drops and per-class occupancy / threshold behaviour.
    Deterministic like the other sweeps. *)

type policy_point = {
  label : string;  (** the task label the point ran under *)
  config : Config.t;  (** the exact configuration the point ran *)
  policy : Sdn_switch.Buf_policy.kind;
  buffer : int;  (** packet-pool capacity (the pool-size axis) *)
  result : Experiment.result;
}

val default_policies : Sdn_switch.Buf_policy.kind list
(** static, complete sharing, DT (alpha 2), adaptive TDT. *)

val default_policy_buffers : int list
(** [16; 64; 256] packet-pool slots. *)

val default_policy_base : seed:int -> Config.t
(** Packet-granularity, 400-packet UDP burst at 80 Mbps into a 20 Mbps
    egress uplink, three strict-priority classes (capacities 32/32/16)
    filled deterministically by source port. *)

val policy_point_config :
  base:Config.t -> policy:Sdn_switch.Buf_policy.kind -> buffer:int -> Config.t
(** The configuration a sweep point runs: [base] with the sharing
    policy armed and the packet-pool capacity substituted. *)

val run_policy :
  ?policies:Sdn_switch.Buf_policy.kind list ->
  ?buffers:int list ->
  ?jobs:int ->
  base:Config.t ->
  unit ->
  policy_point list
(** Run the sweep: one experiment per policy x pool size, in
    deterministic order (policies outer, sizes inner). [jobs] (default
    [base.jobs]) parallelizes exactly as in {!run}. *)

val policy_report : policy_point list -> string
(** Deterministic plain-text report: one table row per point (delivery,
    drops, buffered-packet fallbacks, pool high-water mark, pool
    rejections, misroutes, forwarding delay) plus each point's
    per-class occupancy / threshold / admission lines. *)
