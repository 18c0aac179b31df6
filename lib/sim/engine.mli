(** Discrete-event simulation engine.

    The engine owns a virtual clock and a priority queue of pending
    events. Components schedule closures to run at future instants;
    running an event may schedule further events. Ties are broken by
    insertion order, so the simulation is fully deterministic.

    The queue is an index-tracked binary heap ({!Heap}): cancelling an
    event removes it in O(log n) instead of leaving a tombstone to be
    reaped at pop time, so heavy cancel churn (echo keepalives,
    backoff timers) neither grows the queue nor skews {!pending}.
    Events that share a timestamp are dispatched as one batch
    ({!step_batch}).

    Times are in seconds (floats). A typical experiment run in this
    repository covers a few simulated seconds, a few hundred thousand
    events, with at most tens of thousands pending at once. *)

type t
(** A simulation engine (clock + event queue). *)

type handle
(** A scheduled event, usable for cancellation (e.g. the
    flow-granularity buffer's re-request timeout is cancelled when the
    controller answers in time). *)

val create : ?now:float -> unit -> t
(** Fresh engine with the clock at [now] (default [0.]). *)

val now : t -> float
(** Current virtual time in seconds. *)

val schedule_at : t -> float -> (unit -> unit) -> handle
(** [schedule_at t time f] runs [f] when the clock reaches [time].
    Raises [Invalid_argument] if [time] is in the past. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] is [schedule_at t (now t +. delay) f].
    A negative [delay] raises [Invalid_argument]. *)

val cancel : handle -> unit
(** Prevent the event from firing and remove it from the queue, in
    O(log n). Cancelling an already-fired or already-cancelled event is
    a no-op. *)

val is_cancelled : handle -> bool

val step : t -> bool
(** Run the single earliest pending event. Returns [false] when the
    queue is empty (and nothing was run). *)

val step_batch : t -> int
(** Run {e every} event carrying the earliest pending timestamp —
    including events their actions schedule at that same instant — in
    insertion order, advancing the clock once. Returns the number of
    events executed (0 when the queue is empty). Equivalent to calling
    {!step} repeatedly; exists so the run loop pays the bookkeeping per
    timestamp instead of per event. *)

val run : ?until:float -> t -> unit
(** Run events in order until the queue is empty, or — if [until] is
    given — until the next event would be later than [until], in which
    case the clock is advanced to [until] and remaining events stay
    queued. *)

val pending : t -> int
(** Number of {e live} events still queued. Cancelled events are
    removed immediately and never counted. *)

val processed : t -> int
(** Total number of events executed so far. *)
