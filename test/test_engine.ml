(* Tests for the discrete-event engine. *)

open Sdn_sim

let test_runs_in_time_order () =
  let engine = Engine.create () in
  let order = ref [] in
  ignore (Engine.schedule_at engine 3.0 (fun () -> order := 3 :: !order));
  ignore (Engine.schedule_at engine 1.0 (fun () -> order := 1 :: !order));
  ignore (Engine.schedule_at engine 2.0 (fun () -> order := 2 :: !order));
  Engine.run engine;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !order)

let test_fifo_tie_break () =
  let engine = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule_at engine 1.0 (fun () -> order := i :: !order))
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "insertion order at equal time" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_clock_advances () =
  let engine = Engine.create () in
  let seen = ref [] in
  ignore (Engine.schedule_at engine 0.5 (fun () -> seen := Engine.now engine :: !seen));
  ignore (Engine.schedule_at engine 1.5 (fun () -> seen := Engine.now engine :: !seen));
  Engine.run engine;
  Alcotest.(check (list (float 1e-12))) "clock at event times" [ 0.5; 1.5 ]
    (List.rev !seen)

let test_schedule_relative () =
  let engine = Engine.create ~now:10.0 () in
  let fired_at = ref 0.0 in
  ignore (Engine.schedule engine ~delay:2.0 (fun () -> fired_at := Engine.now engine));
  Engine.run engine;
  Alcotest.(check (float 1e-12)) "relative delay" 12.0 !fired_at

let test_rejects_past () =
  let engine = Engine.create ~now:5.0 () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Engine.schedule_at engine 4.0 (fun () -> ()));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative delay raises" true
    (try
       ignore (Engine.schedule engine ~delay:(-1.0) (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let handle = Engine.schedule_at engine 1.0 (fun () -> fired := true) in
  Engine.cancel handle;
  Alcotest.(check bool) "marked cancelled" true (Engine.is_cancelled handle);
  Engine.run engine;
  Alcotest.(check bool) "did not fire" false !fired

let test_events_schedule_events () =
  let engine = Engine.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then
      ignore
        (Engine.schedule engine ~delay:0.1 (fun () ->
             incr count;
             chain (n - 1)))
  in
  chain 10;
  Engine.run engine;
  Alcotest.(check int) "all chained events ran" 10 !count;
  Alcotest.(check (float 1e-9)) "clock" 1.0 (Engine.now engine)

let test_run_until () =
  let engine = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> ignore (Engine.schedule_at engine t (fun () -> fired := t :: !fired)))
    [ 1.0; 2.0; 3.0 ];
  Engine.run ~until:2.5 engine;
  Alcotest.(check (list (float 1e-12))) "only events before limit" [ 1.0; 2.0 ]
    (List.rev !fired);
  Alcotest.(check (float 1e-12)) "clock advanced to limit" 2.5 (Engine.now engine);
  Alcotest.(check int) "one pending" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list (float 1e-12))) "rest runs later" [ 1.0; 2.0; 3.0 ]
    (List.rev !fired)

let test_run_until_idle_advances_clock () =
  let engine = Engine.create () in
  Engine.run ~until:7.0 engine;
  Alcotest.(check (float 1e-12)) "clock" 7.0 (Engine.now engine)

let test_processed_counter () =
  let engine = Engine.create () in
  for _ = 1 to 4 do
    ignore (Engine.schedule engine ~delay:0.1 (fun () -> ()))
  done;
  let cancelled = Engine.schedule engine ~delay:0.2 (fun () -> ()) in
  Engine.cancel cancelled;
  Engine.run engine;
  Alcotest.(check int) "processed excludes cancelled" 4 (Engine.processed engine)

let test_step () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> ()));
  Alcotest.(check bool) "step runs one" true (Engine.step engine);
  Alcotest.(check bool) "then empty" false (Engine.step engine)

(* Regression: cancel used to only flag the handle, leaving the event
   (and its closure) in the heap until its time came. It must remove
   the event for real, so mass-cancellation releases queue memory. *)
let test_cancel_removes_from_queue () =
  let engine = Engine.create () in
  let handles =
    List.init 10_000 (fun i ->
        Engine.schedule engine ~delay:(1.0 +. float_of_int i) (fun () ->
            Alcotest.fail "cancelled event ran"))
  in
  Alcotest.(check int) "all queued" 10_000 (Engine.pending engine);
  List.iter Engine.cancel handles;
  Alcotest.(check int) "cancel removes for real" 0 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check int) "nothing processed" 0 (Engine.processed engine)

let test_cancel_idempotent () =
  let engine = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_at engine 1.0 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.cancel h;
  Alcotest.(check int) "still empty" 0 (Engine.pending engine);
  let h2 = Engine.schedule_at engine 2.0 (fun () -> fired := true) in
  Engine.run engine;
  (* Cancelling after execution is a harmless no-op. *)
  Engine.cancel h2;
  Alcotest.(check bool) "executed event fired" true !fired

let test_step_batch_dispatches_equal_times () =
  let engine = Engine.create () in
  let ran = ref 0 in
  for _ = 1 to 3 do
    ignore (Engine.schedule_at engine 1.0 (fun () -> incr ran))
  done;
  for _ = 1 to 2 do
    ignore (Engine.schedule_at engine 2.0 (fun () -> incr ran))
  done;
  Alcotest.(check int) "first batch" 3 (Engine.step_batch engine);
  Alcotest.(check (float 1e-12)) "clock at batch time" 1.0 (Engine.now engine);
  Alcotest.(check int) "ran" 3 !ran;
  Alcotest.(check int) "second batch" 2 (Engine.step_batch engine);
  Alcotest.(check int) "empty batch" 0 (Engine.step_batch engine)

let test_step_batch_includes_spawned_same_time () =
  let engine = Engine.create () in
  let order = ref [] in
  ignore
    (Engine.schedule_at engine 1.0 (fun () ->
         order := `First :: !order;
         ignore
           (Engine.schedule engine ~delay:0.0 (fun () ->
                order := `Spawned :: !order))));
  ignore (Engine.schedule_at engine 1.0 (fun () -> order := `Second :: !order));
  let n = Engine.step_batch engine in
  Alcotest.(check int) "spawned same-time event joins the batch" 3 n;
  Alcotest.(check bool) "spawned runs after pre-scheduled siblings" true
    (List.rev !order = [ `First; `Second; `Spawned ])

let test_cancel_sibling_during_batch () =
  let engine = Engine.create () in
  let second_ran = ref false in
  let second = ref None in
  ignore
    (Engine.schedule_at engine 1.0 (fun () ->
         match !second with Some h -> Engine.cancel h | None -> ()));
  second :=
    Some (Engine.schedule_at engine 1.0 (fun () -> second_ran := true));
  Alcotest.(check int) "only the canceller ran" 1 (Engine.step_batch engine);
  Alcotest.(check bool) "cancelled sibling skipped" false !second_ran;
  Alcotest.(check int) "queue empty" 0 (Engine.pending engine)

(* Randomised schedule / cancel / step_batch scripts against a naive
   reference. Op encoding: (kind, a) with kind 0-2 = schedule at now
   plus [a] times one of three delay scales (sub-microsecond,
   sub-millisecond, tens of milliseconds, so ties and near-ties are
   common), kind 3 = cancel the handle of the [a]-th scheduled event
   (modulo their count; it may have fired already), kind 4 =
   step_batch. Each event's id is its schedule order, which is also
   its engine sequence number. *)
type op = Schedule of float | Cancel of int | Batch

let op_of (kind, a) =
  match kind with
  | 0 -> Schedule (float_of_int a *. 3.3e-7)
  | 1 -> Schedule (float_of_int a *. 1.05e-4)
  | 2 -> Schedule (float_of_int a *. 2.7e-2)
  | 3 -> Cancel a
  | _ -> Batch

(* A run's observable outcome: every dispatch as (id, clock), each
   step_batch's count, [pending] once the script ends, and [processed]
   after draining the rest. *)
type outcome = {
  trace : (int * float) list;
  batches : int list;
  pending : int;
  processed : int;
}

let run_engine ops =
  let engine = Engine.create () in
  let trace = ref [] and batches = ref [] in
  let handles = Hashtbl.create 64 in
  List.iter
    (function
      | Schedule delay ->
          let id = Hashtbl.length handles in
          Hashtbl.add handles id
            (Engine.schedule engine ~delay (fun () ->
                 trace := (id, Engine.now engine) :: !trace))
      | Cancel a ->
          let n = Hashtbl.length handles in
          if n > 0 then Engine.cancel (Hashtbl.find handles (a mod n))
      | Batch -> batches := Engine.step_batch engine :: !batches)
    ops;
  let pending = Engine.pending engine in
  Engine.run engine;
  {
    trace = List.rev !trace;
    batches = List.rev !batches;
    pending;
    processed = Engine.processed engine;
  }

(* The reference keeps every event ever scheduled in a list and
   dispatches by a linear scan for the least (time, id) among those
   neither fired nor cancelled. *)
type model_event = { id : int; time : float; mutable live : bool }

let run_model ops =
  let clock = ref 0.0 and events = ref [] and count = ref 0 in
  let trace = ref [] and batches = ref [] in
  let earliest () =
    List.fold_left
      (fun best e ->
        match best with
        | _ when not e.live -> best
        | Some b when Float.compare b.time e.time < 0 -> best
        | Some b when Float.equal b.time e.time && b.id < e.id -> best
        | Some _ | None -> Some e)
      None !events
  in
  let fire e =
    e.live <- false;
    clock := e.time;
    trace := (e.id, e.time) :: !trace
  in
  let batch () =
    match earliest () with
    | None -> 0
    | Some first ->
        fire first;
        let rec more n =
          match earliest () with
          | Some e when Float.equal e.time first.time ->
              fire e;
              more (n + 1)
          | Some _ | None -> n
        in
        more 1
  in
  List.iter
    (function
      | Schedule delay ->
          let e = { id = !count; time = !clock +. delay; live = true } in
          events := e :: !events;
          incr count
      | Cancel a ->
          if !count > 0 then
            let target = a mod !count in
            List.iter (fun e -> if e.id = target then e.live <- false) !events
      | Batch -> batches := batch () :: !batches)
    ops;
  let pending = List.length (List.filter (fun e -> e.live) !events) in
  while batch () > 0 do
    ()
  done;
  {
    trace = List.rev !trace;
    batches = List.rev !batches;
    pending;
    processed = List.length !trace;
  }

let prop_matches_model =
  QCheck.Test.make ~name:"matches list-model oracle" ~count:300
    QCheck.(list (pair (int_bound 4) (int_bound 200)))
    (fun raw ->
      let ops = List.map op_of raw in
      let e = run_engine ops and m = run_model ops in
      List.equal
        (fun (i, t) (j, u) -> i = j && Float.equal t u)
        e.trace m.trace
      && e.batches = m.batches && e.pending = m.pending
      && e.processed = m.processed)

let suite =
  [
    Alcotest.test_case "time order" `Quick test_runs_in_time_order;
    Alcotest.test_case "FIFO tie-break" `Quick test_fifo_tie_break;
    Alcotest.test_case "clock advances to event times" `Quick test_clock_advances;
    Alcotest.test_case "relative scheduling" `Quick test_schedule_relative;
    Alcotest.test_case "rejects past times" `Quick test_rejects_past;
    Alcotest.test_case "cancellation" `Quick test_cancel;
    Alcotest.test_case "events schedule events" `Quick test_events_schedule_events;
    Alcotest.test_case "run ~until" `Quick test_run_until;
    Alcotest.test_case "run ~until with empty queue" `Quick
      test_run_until_idle_advances_clock;
    Alcotest.test_case "processed counter" `Quick test_processed_counter;
    Alcotest.test_case "single step" `Quick test_step;
    Alcotest.test_case "cancel removes from queue" `Quick
      test_cancel_removes_from_queue;
    Alcotest.test_case "cancel is idempotent" `Quick test_cancel_idempotent;
    Alcotest.test_case "step_batch dispatches equal times" `Quick
      test_step_batch_dispatches_equal_times;
    Alcotest.test_case "step_batch includes spawned same-time events" `Quick
      test_step_batch_includes_spawned_same_time;
    Alcotest.test_case "cancel sibling during batch" `Quick
      test_cancel_sibling_during_batch;
    QCheck_alcotest.to_alcotest prop_matches_model;
  ]

(* Queue-contract cases first written for the timer-wheel backend, which
   is deleted. None depends on how pending events are stored, so they
   run against the heap engine and keep their group name, "timer_wheel",
   so that their test ids stay the same. *)
module Queue_contract = struct
  let test_runs_in_time_order () =
    let engine = Engine.create () in
    let order = ref [] in
    ignore (Engine.schedule_at engine 3.0 (fun () -> order := 3 :: !order));
    ignore (Engine.schedule_at engine 1.0 (fun () -> order := 1 :: !order));
    ignore (Engine.schedule_at engine 2.0 (fun () -> order := 2 :: !order));
    Engine.run engine;
    Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !order)

  let test_fifo_tie_break () =
    let engine = Engine.create () in
    let order = ref [] in
    for i = 1 to 5 do
      ignore (Engine.schedule_at engine 1.0 (fun () -> order := i :: !order))
    done;
    Engine.run engine;
    Alcotest.(check (list int)) "insertion order at equal time"
      [ 1; 2; 3; 4; 5 ] (List.rev !order)

  (* Events less than a microsecond apart dispatch in exact time order. *)
  let test_sub_tick_ordering () =
    let engine = Engine.create () in
    let order = ref [] in
    ignore
      (Engine.schedule_at engine 1.0000007 (fun () -> order := 3 :: !order));
    ignore
      (Engine.schedule_at engine 1.0000001 (fun () -> order := 1 :: !order));
    ignore
      (Engine.schedule_at engine 1.0000004 (fun () -> order := 2 :: !order));
    Engine.run engine;
    Alcotest.(check (list int)) "sub-tick times dispatch in time order"
      [ 1; 2; 3 ] (List.rev !order)

  (* Times from 1 µs to 1e5 s, scheduled latest first, come back in
     time order with the clock at the last one. *)
  let test_cross_level_ordering () =
    let engine = Engine.create () in
    let times = [ 1e-6; 2.55e-4; 6.5e-2; 1.67e1; 4.2e3; 6.0e3; 1.0e5 ] in
    let order = ref [] in
    List.iteri
      (fun i time ->
        ignore (Engine.schedule_at engine time (fun () -> order := i :: !order)))
      (List.rev times);
    Engine.run engine;
    Alcotest.(check (list int)) "wide span dispatches in time order"
      [ 6; 5; 4; 3; 2; 1; 0 ] (List.rev !order);
    Alcotest.(check (float 1e-9)) "clock at last event" 1.0e5
      (Engine.now engine)

  let test_cancel_10k () =
    let engine = Engine.create () in
    let fired = ref 0 in
    let handles =
      List.init 10_000 (fun i ->
          Engine.schedule_at engine
            (1.0 +. (float_of_int i *. 1e-5))
            (fun () -> incr fired))
    in
    Alcotest.(check int) "all pending" 10_000 (Engine.pending engine);
    List.iter Engine.cancel handles;
    Alcotest.(check int) "none pending after cancel" 0 (Engine.pending engine);
    Engine.run engine;
    Alcotest.(check int) "nothing fired" 0 !fired;
    Alcotest.(check int) "nothing processed" 0 (Engine.processed engine)

  let test_cancel_idempotent () =
    let engine = Engine.create () in
    let fired = ref false in
    let h = Engine.schedule_at engine 1.0 (fun () -> fired := true) in
    Engine.cancel h;
    Engine.cancel h;
    Alcotest.(check int) "pending counted once" 0 (Engine.pending engine);
    Engine.run engine;
    Alcotest.(check bool) "did not fire" false !fired

  let test_run_until () =
    let engine = Engine.create () in
    let fired = ref [] in
    List.iter
      (fun t ->
        ignore (Engine.schedule_at engine t (fun () -> fired := t :: !fired)))
      [ 0.5; 1.5; 2.5 ];
    Engine.run ~until:2.0 engine;
    Alcotest.(check (list (float 1e-12))) "only events up to limit"
      [ 0.5; 1.5 ] (List.rev !fired);
    Alcotest.(check (float 1e-12)) "clock parked at limit" 2.0
      (Engine.now engine);
    Alcotest.(check int) "later event still queued" 1 (Engine.pending engine);
    (* An event scheduled between the parked clock and the queued 2.5
       event, after run peeked at that event, still fires first. *)
    ignore (Engine.schedule_at engine 2.25 (fun () -> fired := 2.25 :: !fired));
    Engine.run engine;
    Alcotest.(check (list (float 1e-12))) "late add dispatches in order"
      [ 0.5; 1.5; 2.25; 2.5 ] (List.rev !fired)

  let test_step_batch_includes_spawned_same_time () =
    let engine = Engine.create () in
    let order = ref [] in
    ignore
      (Engine.schedule_at engine 1.0 (fun () ->
           order := "first" :: !order;
           ignore
             (Engine.schedule_at engine 1.0 (fun () ->
                  order := "spawned" :: !order))));
    ignore
      (Engine.schedule_at engine 1.0 (fun () -> order := "second" :: !order));
    let n = Engine.step_batch engine in
    Alcotest.(check int) "batch size" 3 n;
    Alcotest.(check (list string)) "spawned event joins the batch in seq order"
      [ "first"; "second"; "spawned" ] (List.rev !order)

  let test_cancel_sibling_during_batch () =
    let engine = Engine.create () in
    let fired = ref [] in
    let sibling = ref None in
    ignore
      (Engine.schedule_at engine 1.0 (fun () ->
           fired := "killer" :: !fired;
           Option.iter Engine.cancel !sibling));
    sibling :=
      Some
        (Engine.schedule_at engine 1.0 (fun () -> fired := "victim" :: !fired));
    ignore
      (Engine.schedule_at engine 1.0 (fun () -> fired := "survivor" :: !fired));
    ignore (Engine.step_batch engine);
    Alcotest.(check (list string)) "victim skipped" [ "killer"; "survivor" ]
      (List.rev !fired);
    Alcotest.(check int) "no pending left" 0 (Engine.pending engine)

  let test_chained_events () =
    let engine = Engine.create () in
    let count = ref 0 in
    let rec chain n =
      if n > 0 then
        ignore
          (Engine.schedule engine ~delay:0.1 (fun () ->
               incr count;
               chain (n - 1)))
    in
    chain 50;
    Engine.run engine;
    Alcotest.(check int) "all chained events ran" 50 !count;
    Alcotest.(check (float 1e-9)) "clock" 5.0 (Engine.now engine)

  let suite =
    [
      Alcotest.test_case "runs in time order" `Quick test_runs_in_time_order;
      Alcotest.test_case "FIFO tie break" `Quick test_fifo_tie_break;
      Alcotest.test_case "sub-tick ordering" `Quick test_sub_tick_ordering;
      Alcotest.test_case "cross-level and overflow ordering" `Quick
        test_cross_level_ordering;
      Alcotest.test_case "10k cancel leaves queue empty" `Quick test_cancel_10k;
      Alcotest.test_case "cancel is idempotent" `Quick test_cancel_idempotent;
      Alcotest.test_case "run until limit" `Quick test_run_until;
      Alcotest.test_case "step_batch includes spawned same-time events" `Quick
        test_step_batch_includes_spawned_same_time;
      Alcotest.test_case "cancel sibling during batch" `Quick
        test_cancel_sibling_during_batch;
      Alcotest.test_case "chained events" `Quick test_chained_events;
    ]
end
