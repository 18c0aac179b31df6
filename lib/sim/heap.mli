(** Array-backed, index-tracked binary min-heap.

    The heap is generic in its element type; the ordering is fixed at
    creation time by a comparison function. Used by {!Engine} as the
    pending-event queue, and reusable for any priority-queue need.

    Two properties matter for the simulator's hot path:

    - {b indexed removal}: when a [set_index] callback is supplied at
      creation, the heap reports every element's current slot through
      it ([-1] once the element leaves the heap). An element that knows
      its own slot can be removed in O(log n) with {!remove} — no
      tombstones, no deferred reaping (this is how {!Engine.cancel}
      deletes echo keepalives and backoff timers for real).
    - {b adaptive capacity}: the backing array halves whenever
      occupancy falls to a quarter (never below the creation capacity),
      so a burst does not pin its high-water memory forever.
    - {b one cell per element}: a push allocates the one [Some] cell the
      element keeps until it leaves; sifts move cells instead of
      re-wrapping them, and {!pop} returns that same cell, so only the
      backing array's growth allocates besides. *)

type 'a t
(** A mutable min-heap of ['a] values. *)

val create :
  ?capacity:int -> ?set_index:('a -> int -> unit) -> cmp:('a -> 'a -> int) ->
  unit -> 'a t
(** [create ~cmp ()] is an empty heap ordered by [cmp] (smallest first).
    [capacity] is the initial size of the backing array (default 64)
    and its shrink floor; the heap grows and shrinks automatically.
    [set_index] (default a no-op) is called with an element's current
    array slot every time it moves, and with [-1] when it is popped,
    removed or cleared — store it to enable {!remove}. *)

val length : 'a t -> int
(** Number of elements currently stored. *)

val capacity : 'a t -> int
(** Current size of the backing array (for memory introspection). *)

val is_empty : 'a t -> bool
(** [is_empty h] is [length h = 0]. *)

val push : 'a t -> 'a -> unit
(** Insert an element. O(log n). *)

val peek : 'a t -> 'a option
(** Smallest element without removing it, or [None] if empty. O(1). *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element, or [None] if empty. O(log n). *)

val pop_exn : 'a t -> 'a
(** Like {!pop} but raises [Invalid_argument] on an empty heap. *)

val remove : 'a t -> int -> 'a
(** [remove h i] removes and returns the element currently stored at
    array slot [i] (as reported by [set_index]), restoring the heap
    property. O(log n). Raises [Invalid_argument] if [i] is not a live
    slot. *)

val clear : 'a t -> unit
(** Remove all elements (reporting [-1] to [set_index] for each) and
    drop the backing array to its creation capacity. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Iterate over the elements in unspecified (heap) order. *)

val to_list : 'a t -> 'a list
(** All elements in unspecified (heap) order. *)
