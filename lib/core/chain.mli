(** Multi-switch extension: the configured workload run across a
    linear chain of switches under one controller, built by
    {!Scenario.build} with [~n_switches].

    The paper's testbed has a single switch, but its motivation is data
    center fabrics where a new flow crosses several hops — and every
    hop's table misses, so flow-setup cost (and the buffer's savings)
    multiply per hop. Each switch has its own control channel to the
    shared controller; the reactive forwarding rules are installed
    hop by hop as the first packet progresses. *)

type result = {
  n_switches : int;
  setup_delay : Experiment.summary;  (** end-to-end, Host1 to Host2 side *)
  ctrl_load_up_mbps : float;  (** summed over every channel *)
  ctrl_load_down_mbps : float;
  pkt_ins : int;  (** summed over every switch *)
  packets_in : int;
  packets_out : int;  (** frames delivered to Host2 *)
}

val run : Config.t -> n_switches:int -> result
(** Run the configured workload across the chain, scheduling its
    traffic as {!Experiment.run} does; every {!Config.t} field applies
    to every switch. Raises [Invalid_argument] when [n_switches < 1]. *)

val pp_result : Format.formatter -> result -> unit
