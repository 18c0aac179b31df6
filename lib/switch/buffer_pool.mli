(** The switch buffer pool — both buffering mechanisms of the paper.

    Flow granularity is the paper's proposed mechanism (Section V,
    Algorithms 1 and 2).
    One buffer unit holds {e all} miss-match packets of one flow and
    carries a single [buffer_id], derived from the flow's 5-tuple. The
    first packet of a flow allocates the unit and triggers exactly one
    [PACKET_IN]; subsequent miss-match packets of the same flow are
    chained onto the unit silently. When the [PACKET_OUT] arrives, the
    whole chain is released at once, so units recycle far faster than
    in the packet-granularity scheme — the paper's 71.6% improvement in
    buffer-utilization efficiency (Fig. 13).

    If the controller has not answered within [resend_timeout], the
    switch re-sends the request ("After a timeout period, if the switch
    doesn't receive the control operation messages, it will send
    another request message", Section V.A; Algorithm 1 lines 12-13).
    Successive re-requests back off exponentially: the n-th waits
    [timeout * multiplier^n], capped at [resend_cap], with optional
    multiplicative jitter so simultaneous timeouts desynchronise. After
    [max_resends] unanswered requests the chain is abandoned. The pool
    keeps recovery accounting — flows recovered after at least one
    resend, flows abandoned, and a time-to-recovery distribution — for
    the chaos scenario's reliability report.

    Packet granularity (OpenFlow's default, as in Open vSwitch) is the
    special case of {!add} without a key and [max_resends = 0]: every
    frame gets a unit of its own, and the timer fires once, after
    [resend_timeout], dropping the unit (OVS ages its buffers).

    Both share {b deferred reclamation}: after a release the unit stays
    accounted as in-use for [reclaim_lag] seconds before it returns to
    the free list. This reproduces the occupancy levels of the paper's
    Fig. 8 (buffer-16 exhausting near 30-35 Mbps, buffer-256 peaking
    near 80 units at full rate). *)

open Sdn_sim
open Sdn_net

type t

type add_result =
  | First of int32
      (** unit allocated; the caller must send the (single) PACKET_IN *)
  | Appended of int32  (** chained silently; no PACKET_IN *)
  | No_space
      (** every unit in use, or the sharing policy refused the claim;
          the caller falls back to no-buffer *)

type take_result =
  | Taken of Bytes.t list  (** all chained frames, in arrival order *)
  | Unknown_id  (** stale or never-allocated buffer id *)

val create :
  Engine.t ->
  ?check:Sdn_check.Check.t ->
  ?policy:Buf_policy.cls ->
  ?pool_name:string ->
  capacity:int ->
  reclaim_lag:float ->
  resend_timeout:float ->
  ?resend_multiplier:float ->
  ?resend_cap:float ->
  ?resend_jitter:float ->
  ?rng:Sdn_sim.Rng.t ->
  max_resends:int ->
  ?on_resend:(buffer_id:int32 -> in_port:int -> first_frame:Bytes.t -> unit) ->
  unit ->
  t
(** [on_resend] (default: nothing) is invoked by the timeout machinery
    with the unit's id, first frame and that frame's ingress port; the
    switch wires it to PACKET_IN regeneration.

    With [check] armed, every allocation, append, release and expiry is
    reported to the invariant checker under [pool_name] (default
    ["pool"]) for buffer-conservation verification. With [policy] set,
    the pool draws on a shared {!Buf_policy} pool: every new unit must
    first be admitted by the class, every reclaim returns the unit, and
    each successful {!take} feeds the buffering delay into the class's
    EWMA.

    [resend_multiplier] (default 1: the paper's fixed period) grows the
    delay before each successive re-request; [resend_cap] (default
    unbounded) caps it; [resend_jitter] (default 0, must be in
    [\[0, 1)]) perturbs each delay by a uniform factor in
    [\[1 - j, 1 + j\]], drawn from [rng] — required when jitter is
    non-zero so the schedule stays seed-deterministic. Without jitter
    no draw is made. *)

val set_backoff :
  t ->
  resend_timeout:float ->
  resend_multiplier:float ->
  resend_cap:float ->
  max_resends:int ->
  unit
(** Reconfigure the re-request policy (the vendor
    [Flow_buffer_enable] handler). Already-armed timers keep their old
    delay; the new policy applies from each unit's next arming. A
    multiplier below 1 is ignored. *)

val add : t -> ?key:Flow_key.t -> in_port:int -> Bytes.t -> add_result
(** Algorithm 1, lines 5-11. With [key], the frame is chained onto the
    flow's unit if one is held; without, it always gets a unit of its
    own. A new unit remembers [in_port], the port its first frame
    arrived on, for its re-requests. While frozen, a [First]
    allocation does {e not} arm the timer — the caller also refrains
    from sending the PACKET_IN, so the chain just accumulates until
    {!resume}. *)

val take : t -> int32 -> take_result
(** Algorithm 2, lines 2-10: release every chained frame; the unit
    frees after the reclaim lag. *)

val freeze : t -> unit
(** Controller session lost (fail-secure mode): cancel every armed
    re-request timer so backoff budgets aren't burned into a dead link,
    and stop arming timers for new chains. Idempotent. *)

val resume : t -> unit
(** Controller session restored: chains that had already exhausted
    [max_resends] before the outage are expired (counted in
    {!expired_on_resume} as well as {!abandoned_flows}); every other
    held chain re-enters the backoff machinery at its next attempt
    number, in slot order, so the first re-request goes out one backoff
    delay after reconnect. Idempotent. *)

val wipe : t -> int
(** Cold-restart state loss: expire every held chain (reported to the
    checker, counted into {!drops}), reclaim in-flight releases
    immediately — cancelling their deferred-reclaim timers, so no stale
    callback can touch a post-wipe re-allocation of the slot — and
    unfreeze. Returns how many buffered packets were lost. Walks slots
    in index order so wiped runs stay byte-reproducible. *)

val has_chain : t -> key:Flow_key.t -> bool
(** Whether a chain for [key] is currently held — the overload guard
    uses this to let in-flight flows keep appending while shedding new
    chains. *)

val is_frozen : t -> bool

val freezes : t -> int
(** Number of freeze transitions (outages survived by the pool). *)

val chains_frozen : t -> int
(** Cumulative chains whose timers were cancelled by {!freeze}. *)

val chains_resumed : t -> int
(** Cumulative chains re-armed by {!resume}. *)

val expired_on_resume : t -> int
(** Chains expired at {!resume} because their resend budget was already
    spent before the outage. *)

val name : t -> string
(** The checker pool name given at creation. *)

val capacity : t -> int

val units_in_use : t -> int
(** Units held or awaiting reclamation. *)

val packets_buffered : t -> int
(** Frames held in units not yet released. *)

val flows_buffered : t -> int
(** Keyed units held. *)

val mean_units_in_use : t -> until:float -> float
(** Time-weighted average occupancy since creation. *)

val max_units_in_use : t -> int

val allocations : t -> int
val alloc_failures : t -> int
val resends : t -> int

val drops : t -> int
(** Packets lost from units that were abandoned or wiped. *)

val abandoned_flows : t -> int
(** Units dropped when their timer found the resend budget spent. *)

val recovered_flows : t -> int
(** Flows released after at least one timed-out re-request — the
    recovery path actually saved them. *)

val recovery_delays : t -> Sdn_sim.Stats.t
(** Time from a recovered flow's first miss to its release; feeds the
    chaos report's time-to-recovery histogram. *)

val stale_takes : t -> int
(** Takes of an in-range id that names no held unit. *)
