(** Deterministic (possibly parallel) execution of independent
    experiment replications.

    Every experiment grid in the repository reduces to "run these
    labelled configurations, one {!Experiment.run} each, and give me
    the results in the same order": the rate sweeps behind the figures
    and CSV export ({!Sweep.run}), the four chaos sweeps (loss, outage,
    crash, buffer policy), the model cross-validation grid and its
    crash-reconvergence gate ({!Validate}), and the [massive] shards.
    This module is that one funnel: it fans the cells out over an
    {!Sdn_sim.Task_pool} domain pool and merges by position, so the
    result list is byte-identical to the [jobs = 1] sequential
    reference path for every [jobs] value.

    When [jobs > 1] and any configuration has its [check] flag armed,
    a deterministically-sampled cell is re-run sequentially in the
    calling domain after the parallel pass and compared field-for-field
    ({!Experiment.diff_result}). A mismatch — a task body that touched
    cross-domain mutable state — is recorded as a [parallel-equivalence]
    violation, naming the cell's label, on that cell's result, flowing
    through the same [check_violations]/[check_report] channel the
    CLI's [--check] epilogue already inspects. Clean runs are left
    untouched, so clean parallel output stays byte-identical to
    sequential output. *)

val run : jobs:int -> (string * Config.t) list -> Experiment.result list
(** [run ~jobs cells] is [Experiment.run config] for every
    [(label, config)] cell, in cell order, computed on [jobs] worker
    domains ([jobs <= 1]: sequentially in the calling domain). [label]
    names the cell in a parallel-equivalence violation report. *)

val run_groups :
  jobs:int -> (string * Config.t) list list -> Experiment.result list list
(** {!run} over the concatenated groups, cut back into the groups'
    shapes: one result list per group of replications. *)

val replay_index : Config.t array -> int
(** The index the parallel-equivalence check replays: derived from the
    first configuration's seed and the grid size, so the sample varies
    across sweeps but is identical across runs of the same sweep.
    Exposed for the test suite. *)
