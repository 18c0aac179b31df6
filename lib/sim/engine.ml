type handle = {
  time : float;
  seq : int;
  action : unit -> unit;
  mutable cancelled : bool;
  (* Current slot in the owning heap, maintained by the heap's
     [set_index] callback; [-1] once popped, removed or never queued. *)
  mutable heap_index : int;
  heap : handle Heap.t;
}

type t = {
  mutable clock : float;
  mutable seq : int;
  mutable processed : int;
  heap : handle Heap.t;
}

let compare_events a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create ?(now = 0.0) () =
  let heap =
    Heap.create ~capacity:1024 ~cmp:compare_events
      ~set_index:(fun h i -> h.heap_index <- i)
      ()
  in
  { clock = now; seq = 0; processed = 0; heap }

let now t = t.clock

let schedule_at t time action =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time
         t.clock);
  let ev =
    { time; seq = t.seq; action; cancelled = false; heap_index = -1;
      heap = t.heap }
  in
  t.seq <- t.seq + 1;
  Heap.push t.heap ev;
  ev

let schedule t ~delay action =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t (t.clock +. delay) action

(* True O(log n) removal — a cancelled event leaves the heap
   immediately instead of lingering as a tombstone until popped. Long
   chaos runs cancel echo keepalives and backoff timers constantly;
   without real removal the queue grows monotonically and [pending]
   drifts away from the live event count. *)
let cancel handle =
  if not handle.cancelled then begin
    handle.cancelled <- true;
    if handle.heap_index >= 0 then
      ignore (Heap.remove handle.heap handle.heap_index)
  end

let is_cancelled handle = handle.cancelled

let exec t ev =
  t.processed <- t.processed + 1;
  ev.action ()

let step t =
  match Heap.pop t.heap with
  | None -> false
  | Some ev ->
      t.clock <- ev.time;
      exec t ev;
      true

(* Dispatch every event carrying the earliest pending timestamp in one
   batch: the clock is advanced once and the events run back-to-back in
   seq order (including events an action schedules at that same
   instant), without re-checking any run limit in between. *)
let step_batch t =
  match Heap.pop t.heap with
  | None -> 0
  | Some ev ->
      t.clock <- ev.time;
      let time = ev.time in
      exec t ev;
      let count = ref 1 in
      let same_time = ref true in
      while !same_time do
        match Heap.peek t.heap with
        | Some next when Float.equal next.time time ->
            (match Heap.pop t.heap with
            | Some next ->
                exec t next;
                incr count
            | None -> same_time := false)
        | Some _ | None -> same_time := false
      done;
      !count

let rec run ?until t =
  match until with
  | None -> if step_batch t > 0 then run ?until t
  | Some limit -> (
      match Heap.peek t.heap with
      | None -> if t.clock < limit then t.clock <- limit
      | Some ev when ev.time > limit -> t.clock <- limit
      | Some _ ->
          (* The whole batch shares one timestamp <= limit, so no
             per-event limit check is needed. *)
          ignore (step_batch t);
          run ~until:limit t)

let pending t = Heap.length t.heap

let processed t = t.processed
