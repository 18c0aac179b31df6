(** The experimental platform of the paper's Fig. 1, assembled —
    optionally stretched into a linear chain of switches under one
    controller:

    {v
      Host1 --> [1] sw1 [2] -- [1] sw2 [2] -- ... -- [1] swN [2] --> Host2
                     |              |                    |
                     +------ one control channel each ---+
                                    |
                                Controller
    v}

    With the default [n_switches = 1] this is the paper's single-switch
    testbed. Every switch is built from the same {!Config.t}: its own
    RNG stream, fault plans, control channel and QoS schedulers.
    Host-facing links are 100 Mbps data links; adjacent switches link
    port 2 to port 1, one link each way. A tcpdump-style capture
    observes every control channel, the delay tracker taps only the
    host-facing edges (so setup delays are end to end), and both hosts
    can inject (Host2 injects the reverse direction of TCP scenarios). *)

open Sdn_sim
open Sdn_measure

type t = {
  engine : Engine.t;
  switch : Sdn_switch.Switch.t;  (** switch 1, [switches.(0)] *)
  switches : Sdn_switch.Switch.t array;  (** Host1 side first *)
  controller : Sdn_controller.Controller.t;
  check : Sdn_check.Check.t option;
      (** the runtime invariant checker, armed when the config's
          [check] flag is set *)
  capture : Capture.t;
  delay : Delay.t;
  host1_link : Bytes.t Link.t;  (** Host1 -> switch 1 port 1 *)
  host2_link : Bytes.t Link.t;  (** Host2 -> last switch port 2 *)
  to_host1 : Bytes.t Link.t;  (** switch 1 port 1 egress *)
  to_host2 : Bytes.t Link.t;  (** last switch port 2 egress *)
  to_controller : Bytes.t Link.t;  (** switch 1's upstream control leg *)
  to_switch : Bytes.t Link.t;  (** switch 1's downstream control leg *)
  faults_up : Faults.t;  (** fault plan on [to_controller] *)
  faults_down : Faults.t;  (** fault plan on [to_switch] *)
  traffic_rng : Rng.t;
  mutable host1_received : int;
  mutable host2_received : int;
  mutable crash_events_rev : (float * string) list;
      (** injected crash/restart events, newest first; read through
          {!crash_events} *)
}

val build : ?n_switches:int -> Config.t -> t
(** Construct and hand-shake the whole platform with [n_switches]
    (default 1) in a chain: switch housekeeping started, controller
    HELLO / FEATURES exchanged at time zero, flow granularity enabled
    over the vendor extension when configured. Raises
    [Invalid_argument] when [n_switches < 1].

    RNG streams split off the seed in a fixed order — traffic, each
    switch, controller, then each channel's up and down fault plans —
    so a one-switch build is the single-switch platform exactly. The
    fault plan's crash schedule kills switch 1 for a [Switch_node]
    crash; a [Controller_node] crash resets every switch's session. *)

val inject : t -> in_port:int -> Bytes.t -> unit
(** Send a frame from the host attached to [in_port] (1 or 2). *)

val crash_events : t -> (float * string) list
(** The crash/restart events the fault plan's crash schedule injected,
    oldest first — e.g. [("0.2", "switch crash (cold)")] followed by
    the matching restart. Empty when the plan has no crashes. *)

val run_until_quiet : ?grace:float -> ?min_time:float -> t -> unit
(** Run the engine until every injected packet has either egressed or
    been dropped by some switch, probing in [grace]-second slices (default 2). Pass
    [min_time] (absolute simulation time) to keep running at least
    that long even through quiet periods — needed for workloads with
    idle gaps, such as the TCP rule-eviction scenario. *)
