(* Tests for the switch buffer pool in both of its modes. Packet
   granularity: one unit per frame, expiry, deferred reclaim. Flow
   granularity: Algorithm 1 (shared buffer_id per flow, one request,
   timeout re-request) and Algorithm 2 (release the whole chain). A
   naive list model cross-checks both modes. *)

open Sdn_sim
open Sdn_net
open Sdn_switch

let key n =
  Flow_key.make ~proto:17 ~src_ip:(Ip.make 10 0 0 n) ~dst_ip:(Ip.make 10 0 0 2)
    ~src_port:(1000 + n) ~dst_port:9

let frame n = Bytes.of_string (Printf.sprintf "pkt-%d" n)

(* Packet granularity as the switch builds it: unkeyed adds, and a
   timer that fires once, at expiry. *)
let make_packet ?(capacity = 4) ?(expiry = 1.0) ?(reclaim = 0.01) engine =
  Buffer_pool.create engine ~capacity ~reclaim_lag:reclaim
    ~resend_timeout:expiry ~max_resends:0 ()

let make ?(capacity = 4) ?(reclaim = 0.001) ?(timeout = 0.05) ?(max_resends = 3)
    ?(on_resend = fun ~buffer_id:_ ~first_frame:_ -> ()) engine =
  Buffer_pool.create engine ~capacity ~reclaim_lag:reclaim
    ~resend_timeout:timeout ~max_resends ~on_resend ()

let first = function
  | Buffer_pool.First id -> id
  | Buffer_pool.Appended _ | Buffer_pool.No_space ->
      Alcotest.fail "expected First"

(* ---- Packet granularity ---- *)

let test_alloc_take () =
  let engine = Engine.create () in
  let pool = make_packet engine in
  let id = first (Buffer_pool.add pool (frame 1)) in
  Alcotest.(check int) "in use" 1 (Buffer_pool.units_in_use pool);
  (match Buffer_pool.take pool id with
  | Buffer_pool.Taken fs -> Alcotest.(check (list bytes)) "frame" [ frame 1 ] fs
  | Buffer_pool.Unknown_id -> Alcotest.fail "expected frame");
  (* Double take is stale. *)
  (match Buffer_pool.take pool id with
  | Buffer_pool.Unknown_id -> ()
  | Buffer_pool.Taken _ -> Alcotest.fail "double take must fail");
  Alcotest.(check int) "stale counted" 1 (Buffer_pool.stale_takes pool)

let test_exhaustion_and_reclaim () =
  let engine = Engine.create () in
  let pool = make_packet ~capacity:2 engine in
  let id1 = first (Buffer_pool.add pool (frame 1)) in
  ignore (first (Buffer_pool.add pool (frame 2)));
  (match Buffer_pool.add pool (frame 3) with
  | Buffer_pool.No_space -> ()
  | _ -> Alcotest.fail "expected a full pool");
  Alcotest.(check int) "failure counted" 1 (Buffer_pool.alloc_failures pool);
  (* Taking frees the unit only after the reclaim lag. *)
  ignore (Buffer_pool.take pool id1);
  Alcotest.(check int) "still accounted during reclaim" 2
    (Buffer_pool.units_in_use pool);
  (match Buffer_pool.add pool (frame 4) with
  | Buffer_pool.No_space -> ()
  | _ -> Alcotest.fail "still full during reclaim");
  (* Run just past the reclaim lag (but not to the 1 s expiry of the
     other unit). *)
  Engine.run ~until:0.05 engine;
  Alcotest.(check int) "reclaimed" 1 (Buffer_pool.units_in_use pool);
  ignore (first (Buffer_pool.add pool (frame 5)))

let test_stale_generation () =
  let engine = Engine.create () in
  let pool = make_packet ~capacity:1 ~reclaim:0.001 engine in
  let id1 = first (Buffer_pool.add pool (frame 1)) in
  ignore (Buffer_pool.take pool id1);
  Engine.run engine;
  let id2 = first (Buffer_pool.add pool (frame 2)) in
  Alcotest.(check bool) "slot reused with new id" true
    (not (Int32.equal id1 id2));
  (* The old id must not release the new occupant. *)
  (match Buffer_pool.take pool id1 with
  | Buffer_pool.Unknown_id -> ()
  | Buffer_pool.Taken _ -> Alcotest.fail "stale id released new packet");
  match Buffer_pool.take pool id2 with
  | Buffer_pool.Taken fs ->
      Alcotest.(check (list bytes)) "new frame intact" [ frame 2 ] fs
  | Buffer_pool.Unknown_id -> Alcotest.fail "expected new frame"

let test_expiry_drops_unreleased () =
  let engine = Engine.create () in
  let pool = make_packet ~capacity:2 ~expiry:0.5 engine in
  let id = first (Buffer_pool.add pool (frame 1)) in
  Engine.run engine;
  Alcotest.(check int) "expired" 1 (Buffer_pool.abandoned_flows pool);
  Alcotest.(check int) "packet dropped" 1 (Buffer_pool.drops pool);
  Alcotest.(check int) "no re-request" 0 (Buffer_pool.resends pool);
  Alcotest.(check int) "freed" 0 (Buffer_pool.units_in_use pool);
  match Buffer_pool.take pool id with
  | Buffer_pool.Unknown_id -> ()
  | Buffer_pool.Taken _ -> Alcotest.fail "expired packet must be gone"

let test_take_cancels_expiry () =
  let engine = Engine.create () in
  let pool = make_packet ~capacity:2 ~expiry:0.5 engine in
  let id = first (Buffer_pool.add pool (frame 1)) in
  ignore
    (Engine.schedule_at engine 0.1 (fun () -> ignore (Buffer_pool.take pool id)));
  Engine.run engine;
  Alcotest.(check int) "no expiry after take" 0 (Buffer_pool.drops pool)

let test_occupancy_statistics () =
  let engine = Engine.create () in
  let pool = make_packet ~capacity:8 ~reclaim:1e-9 engine in
  (* Occupy 2 units over [0, 1), then 0 afterwards. *)
  let id1 = first (Buffer_pool.add pool (frame 1)) in
  let id2 = first (Buffer_pool.add pool (frame 2)) in
  ignore
    (Engine.schedule_at engine 1.0 (fun () ->
         ignore (Buffer_pool.take pool id1);
         ignore (Buffer_pool.take pool id2)));
  ignore (Engine.schedule_at engine 2.0 (fun () -> ()));
  Engine.run engine;
  Alcotest.(check int) "max" 2 (Buffer_pool.max_units_in_use pool);
  let mean = Buffer_pool.mean_units_in_use pool ~until:2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "mean ~1 (got %g)" mean)
    true
    (abs_float (mean -. 1.0) < 0.01)

(* Regression, in both modes: a cold wipe arriving while a slot is in
   its deferred reclaim must CANCEL the reclaim timer. Otherwise the
   stale callback fires against the slot's next occupant: a post-wipe
   re-allocation that was taken again has its reclaim lag silently
   shortened to whatever remained of the old timer. *)
let test_wipe_cancels_pending_reclaim () =
  let check_mode mode pool add =
    let engine, pool = pool () in
    let label what = Printf.sprintf "%s: %s" mode what in
    (* First life of the slot: add + take at t=0 puts it in
       reclamation with a timer due at t=0.1. *)
    let id1 = first (add pool (frame 1)) in
    (match Buffer_pool.take pool id1 with
    | Buffer_pool.Taken _ -> ()
    | Buffer_pool.Unknown_id -> Alcotest.fail (label "first take must succeed"));
    (* Wipe mid-reclaim at t=0.05, then immediately start the slot's
       second life and take it at t=0.06: its reclaim is due at 0.16. *)
    ignore
      (Engine.schedule_at engine 0.05 (fun () ->
           Alcotest.(check int) (label "wipe reclaims the in-flight release") 0
             (let _lost = Buffer_pool.wipe pool in
              Buffer_pool.units_in_use pool);
           let id2 = first (add pool (frame 2)) in
           ignore
             (Engine.schedule_at engine 0.06 (fun () ->
                  match Buffer_pool.take pool id2 with
                  | Buffer_pool.Taken _ -> ()
                  | Buffer_pool.Unknown_id ->
                      Alcotest.fail (label "second take must succeed")))));
    (* At t=0.12 the stale timer (due 0.1) would have fired, releasing
       the slot 40 ms early. The second reclaim must still be counting
       down to 0.16. *)
    Engine.run ~until:0.12 engine;
    Alcotest.(check int) (label "second reclaim honours the full lag") 1
      (Buffer_pool.units_in_use pool);
    Engine.run ~until:0.2 engine;
    Alcotest.(check int) (label "second reclaim completes on time") 0
      (Buffer_pool.units_in_use pool);
    ignore (first (add pool (frame 3)))
  in
  check_mode "packet"
    (fun () ->
      let engine = Engine.create () in
      (engine, make_packet ~capacity:1 ~reclaim:0.1 engine))
    (fun pool f -> Buffer_pool.add pool f);
  check_mode "flow"
    (fun () ->
      let engine = Engine.create () in
      (engine, make ~capacity:1 ~reclaim:0.1 ~timeout:10.0 engine))
    (fun pool f -> Buffer_pool.add pool ~key:(key 1) f)

let prop_never_exceeds_capacity =
  QCheck.Test.make ~name:"in_use never exceeds capacity" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 60) bool)
    (fun ops ->
      let engine = Engine.create () in
      let pool = make_packet ~capacity:5 ~reclaim:1e-9 engine in
      let held = ref [] in
      let ok = ref true in
      List.iter
        (fun alloc ->
          (if alloc then begin
             match Buffer_pool.add pool (frame 0) with
             | Buffer_pool.First id -> held := id :: !held
             | Buffer_pool.Appended _ | Buffer_pool.No_space -> ()
           end
           else begin
             match !held with
             | id :: rest ->
                 held := rest;
                 ignore (Buffer_pool.take pool id)
             | [] -> ()
           end);
          if Buffer_pool.units_in_use pool > 5 then ok := false)
        ops;
      !ok)

let packet_suite =
  [
    Alcotest.test_case "alloc/take basic" `Quick test_alloc_take;
    Alcotest.test_case "exhaustion and deferred reclaim" `Quick
      test_exhaustion_and_reclaim;
    Alcotest.test_case "stale generation ids" `Quick test_stale_generation;
    Alcotest.test_case "expiry drops unreleased packets" `Quick
      test_expiry_drops_unreleased;
    Alcotest.test_case "take cancels expiry" `Quick test_take_cancels_expiry;
    Alcotest.test_case "occupancy statistics" `Quick test_occupancy_statistics;
    Alcotest.test_case "wipe cancels pending reclaim" `Quick
      test_wipe_cancels_pending_reclaim;
    QCheck_alcotest.to_alcotest prop_never_exceeds_capacity;
  ]

(* ---- Flow granularity ---- *)

let test_first_then_appended () =
  let engine = Engine.create () in
  let pool = make engine in
  let id = first (Buffer_pool.add pool ~key:(key 1) (frame 0)) in
  (* Algorithm 1 line 10-11: same flow's packets share the id, no new
     request. *)
  (match Buffer_pool.add pool ~key:(key 1) (frame 1) with
  | Buffer_pool.Appended id' ->
      Alcotest.(check int32) "same buffer_id" id id'
  | _ -> Alcotest.fail "expected Appended");
  Alcotest.(check int) "one unit" 1 (Buffer_pool.units_in_use pool);
  Alcotest.(check int) "two packets" 2 (Buffer_pool.packets_buffered pool);
  Alcotest.(check int) "one flow" 1 (Buffer_pool.flows_buffered pool)

let test_distinct_flows_distinct_units () =
  let engine = Engine.create () in
  let pool = make engine in
  let id1 = first (Buffer_pool.add pool ~key:(key 1) (frame 0)) in
  let id2 = first (Buffer_pool.add pool ~key:(key 2) (frame 0)) in
  Alcotest.(check bool) "different ids" true (not (Int32.equal id1 id2));
  Alcotest.(check int) "two units" 2 (Buffer_pool.units_in_use pool)

let test_take_all_in_order () =
  let engine = Engine.create () in
  let pool = make engine in
  let id = first (Buffer_pool.add pool ~key:(key 1) (frame 0)) in
  for i = 1 to 3 do
    ignore (Buffer_pool.add pool ~key:(key 1) (frame i))
  done;
  (match Buffer_pool.take pool id with
  | Buffer_pool.Taken frames ->
      Alcotest.(check (list bytes)) "arrival order"
        [ frame 0; frame 1; frame 2; frame 3 ]
        frames
  | Buffer_pool.Unknown_id -> Alcotest.fail "expected frames");
  Alcotest.(check int) "no packets left" 0 (Buffer_pool.packets_buffered pool);
  (* Stale release of the same id. *)
  match Buffer_pool.take pool id with
  | Buffer_pool.Unknown_id -> ()
  | Buffer_pool.Taken _ -> Alcotest.fail "double release must fail"

let test_same_flow_after_release_gets_new_unit () =
  let engine = Engine.create () in
  let pool = make ~reclaim:1e-9 engine in
  let id1 = first (Buffer_pool.add pool ~key:(key 1) (frame 0)) in
  ignore (Buffer_pool.take pool id1);
  (* A new miss of the same flow is a fresh First (new request). *)
  match Buffer_pool.add pool ~key:(key 1) (frame 1) with
  | Buffer_pool.First id2 ->
      Alcotest.(check bool) "fresh id" true (not (Int32.equal id1 id2))
  | _ -> Alcotest.fail "expected a fresh First"

let test_no_space () =
  let engine = Engine.create () in
  let pool = make ~capacity:1 engine in
  ignore (Buffer_pool.add pool ~key:(key 1) (frame 0));
  (match Buffer_pool.add pool ~key:(key 2) (frame 0) with
  | Buffer_pool.No_space -> ()
  | _ -> Alcotest.fail "expected No_space");
  Alcotest.(check int) "failure counted" 1 (Buffer_pool.alloc_failures pool);
  (* But the existing flow can still append. *)
  match Buffer_pool.add pool ~key:(key 1) (frame 1) with
  | Buffer_pool.Appended _ -> ()
  | _ -> Alcotest.fail "expected Appended despite full pool"

let test_timeout_resend () =
  let engine = Engine.create () in
  let resends = ref [] in
  let pool =
    make ~timeout:0.05 ~max_resends:2
      ~on_resend:(fun ~buffer_id ~first_frame ->
        resends := (Engine.now engine, buffer_id, first_frame) :: !resends)
      engine
  in
  let id = first (Buffer_pool.add pool ~key:(key 1) (frame 0)) in
  (* Nobody answers: expect 2 resends at 50 ms and 100 ms, then the
     chain is dropped at 150 ms. *)
  Engine.run engine;
  (match List.rev !resends with
  | [ (t1, id1, f1); (t2, id2, _) ] ->
      Alcotest.(check (float 1e-9)) "first resend" 0.05 t1;
      Alcotest.(check (float 1e-9)) "second resend" 0.10 t2;
      Alcotest.(check int32) "same buffer id" id id1;
      Alcotest.(check int32) "same buffer id again" id id2;
      Alcotest.(check bytes) "carries first frame" (frame 0) f1
  | l -> Alcotest.fail (Printf.sprintf "expected 2 resends, got %d" (List.length l)));
  Alcotest.(check int) "resends counted" 2 (Buffer_pool.resends pool);
  Alcotest.(check int) "chain dropped" 1 (Buffer_pool.drops pool);
  Alcotest.(check int) "unit freed" 0 (Buffer_pool.units_in_use pool)

let test_release_cancels_timer () =
  let engine = Engine.create () in
  let resends = ref 0 in
  let pool =
    make ~timeout:0.05 ~on_resend:(fun ~buffer_id:_ ~first_frame:_ -> incr resends)
      engine
  in
  let id = first (Buffer_pool.add pool ~key:(key 1) (frame 0)) in
  ignore (Engine.schedule_at engine 0.01 (fun () -> ignore (Buffer_pool.take pool id)));
  Engine.run engine;
  Alcotest.(check int) "no resends after release" 0 !resends

let test_occupancy_tracking () =
  let engine = Engine.create () in
  let pool = make ~capacity:8 ~reclaim:1e-9 ~timeout:10.0 engine in
  let ids =
    List.map
      (fun n -> first (Buffer_pool.add pool ~key:(key n) (frame n)))
      [ 1; 2; 3 ]
  in
  Alcotest.(check int) "max units" 3 (Buffer_pool.max_units_in_use pool);
  List.iter (fun id -> ignore (Buffer_pool.take pool id)) ids;
  Engine.run ~until:0.1 engine;
  Alcotest.(check int) "drained" 0 (Buffer_pool.units_in_use pool)

let test_expiry_mid_chain () =
  (* A chain that exhausts its resend budget while packets are still
     being appended: the whole chain must be dropped exactly once, the
     unit freed, and a later miss of the same flow must start a fresh
     chain — no stranded packets, no double release. *)
  let engine = Engine.create () in
  let pool = make ~timeout:0.05 ~max_resends:2 engine in
  let id = first (Buffer_pool.add pool ~key:(key 1) (frame 0)) in
  (* Appends land between the re-requests (resends fire at 50 ms and
     100 ms; the drop at 150 ms). *)
  List.iter
    (fun (t, i) ->
      ignore
        (Engine.schedule_at engine t (fun () ->
             match Buffer_pool.add pool ~key:(key 1) (frame i) with
             | Buffer_pool.Appended id' ->
                 Alcotest.(check int32) "appended to the live chain" id id'
             | _ -> Alcotest.fail "expected Appended")))
    [ (0.03, 1); (0.08, 2); (0.12, 3) ];
  Engine.run engine;
  Alcotest.(check int) "all four packets dropped together" 4
    (Buffer_pool.drops pool);
  Alcotest.(check int) "one flow abandoned" 1 (Buffer_pool.abandoned_flows pool);
  Alcotest.(check int) "unit freed" 0 (Buffer_pool.units_in_use pool);
  Alcotest.(check int) "no stranded packets" 0
    (Buffer_pool.packets_buffered pool);
  (* The expired id must not release anything. *)
  (match Buffer_pool.take pool id with
  | Buffer_pool.Unknown_id -> ()
  | Buffer_pool.Taken _ -> Alcotest.fail "release after expiry must fail");
  (* A new miss of the same flow is a fresh chain with a fresh id. *)
  match Buffer_pool.add pool ~key:(key 1) (frame 4) with
  | Buffer_pool.First id2 ->
      Alcotest.(check bool) "fresh id after expiry" true
        (not (Int32.equal id id2))
  | _ -> Alcotest.fail "expected a fresh First"

let test_freeze_stops_resends () =
  let engine = Engine.create () in
  let resends = ref 0 in
  let pool =
    make ~timeout:0.05 ~max_resends:5
      ~on_resend:(fun ~buffer_id:_ ~first_frame:_ -> incr resends)
      engine
  in
  ignore (Buffer_pool.add pool ~key:(key 1) (frame 0));
  ignore (Engine.schedule_at engine 0.01 (fun () -> Buffer_pool.freeze pool));
  (* While frozen, new chains accumulate without arming timers. *)
  ignore
    (Engine.schedule_at engine 0.02 (fun () ->
         ignore (Buffer_pool.add pool ~key:(key 2) (frame 1))));
  Engine.run ~until:0.5 engine;
  Alcotest.(check int) "no resends while frozen" 0 !resends;
  Alcotest.(check bool) "frozen" true (Buffer_pool.is_frozen pool);
  Alcotest.(check int) "freeze counted" 1 (Buffer_pool.freezes pool);
  Alcotest.(check int) "one chain had its timer cancelled" 1
    (Buffer_pool.chains_frozen pool);
  (* Resume re-arms both held chains; each re-requests one timeout
     later. *)
  Buffer_pool.resume pool;
  Engine.run ~until:1.0 engine;
  Alcotest.(check bool) "thawed" false (Buffer_pool.is_frozen pool);
  Alcotest.(check int) "both chains re-armed" 2
    (Buffer_pool.chains_resumed pool);
  Alcotest.(check bool) "re-requests resumed" true (!resends > 0)

let test_resume_expires_spent_chains () =
  (* A chain whose budget was already spent before the outage must be
     expired at resume, not re-armed into a fourth life. *)
  let engine = Engine.create () in
  let pool = make ~timeout:0.05 ~max_resends:2 engine in
  ignore (Buffer_pool.add pool ~key:(key 1) (frame 0));
  (* Freeze after both resends have fired (t = 0.05, 0.10) but before
     the drop at t = 0.15. *)
  ignore (Engine.schedule_at engine 0.12 (fun () -> Buffer_pool.freeze pool));
  Engine.run ~until:0.3 engine;
  Alcotest.(check int) "chain survived the outage frozen" 1
    (Buffer_pool.units_in_use pool);
  Buffer_pool.resume pool;
  Alcotest.(check int) "expired at resume" 1
    (Buffer_pool.expired_on_resume pool);
  Alcotest.(check int) "counted as abandoned" 1
    (Buffer_pool.abandoned_flows pool);
  Alcotest.(check int) "unit freed" 0 (Buffer_pool.units_in_use pool);
  Alcotest.(check int) "nothing re-armed" 0 (Buffer_pool.chains_resumed pool)

let test_freeze_resume_idempotent () =
  let engine = Engine.create () in
  let pool = make engine in
  ignore (Buffer_pool.add pool ~key:(key 1) (frame 0));
  Buffer_pool.freeze pool;
  Buffer_pool.freeze pool;
  Alcotest.(check int) "one freeze" 1 (Buffer_pool.freezes pool);
  Alcotest.(check int) "one chain frozen" 1 (Buffer_pool.chains_frozen pool);
  Buffer_pool.resume pool;
  Buffer_pool.resume pool;
  Alcotest.(check int) "one chain resumed" 1 (Buffer_pool.chains_resumed pool)

let prop_chain_preserves_frames =
  QCheck.Test.make ~name:"take_all returns exactly the added frames" ~count:100
    QCheck.(int_range 1 40)
    (fun n ->
      let engine = Engine.create () in
      let pool = make ~capacity:2 ~timeout:100.0 engine in
      let id =
        match Buffer_pool.add pool ~key:(key 1) (frame 0) with
        | Buffer_pool.First id -> id
        | _ -> assert false
      in
      for i = 1 to n - 1 do
        ignore (Buffer_pool.add pool ~key:(key 1) (frame i))
      done;
      match Buffer_pool.take pool id with
      | Buffer_pool.Taken frames ->
          frames = List.init n frame
      | Buffer_pool.Unknown_id -> false)

let flow_suite =
  [
    Alcotest.test_case "first then appended (Algorithm 1)" `Quick
      test_first_then_appended;
    Alcotest.test_case "distinct flows, distinct units" `Quick
      test_distinct_flows_distinct_units;
    Alcotest.test_case "take_all releases in order (Algorithm 2)" `Quick
      test_take_all_in_order;
    Alcotest.test_case "fresh unit after release" `Quick
      test_same_flow_after_release_gets_new_unit;
    Alcotest.test_case "no space fallback" `Quick test_no_space;
    Alcotest.test_case "timeout re-request then drop" `Quick test_timeout_resend;
    Alcotest.test_case "release cancels the timer" `Quick
      test_release_cancels_timer;
    Alcotest.test_case "occupancy tracking" `Quick test_occupancy_tracking;
    Alcotest.test_case "expiry mid-chain strands nothing" `Quick
      test_expiry_mid_chain;
    Alcotest.test_case "freeze stops re-requests" `Quick
      test_freeze_stops_resends;
    Alcotest.test_case "resume expires spent chains" `Quick
      test_resume_expires_spent_chains;
    Alcotest.test_case "freeze/resume idempotent" `Quick
      test_freeze_resume_idempotent;
    QCheck_alcotest.to_alcotest prop_chain_preserves_frames;
  ]

(* ---- Both modes against a naive list model ---- *)

(* Random operation scripts for the model property. [Add (Some k)]
   chains onto flow [k] (flow mode only; packet mode adds unkeyed),
   [Take i] takes the [i]-th newest id handed out (live or stale), and
   [Advance ms] runs the clock forward. *)
type op =
  | Add of int option
  | Take of int
  | Take_out_of_range
  | Wipe
  | Freeze
  | Resume
  | Advance of int

let show_op = function
  | Add (Some k) -> Printf.sprintf "add(flow %d)" k
  | Add None -> "add"
  | Take i -> Printf.sprintf "take newest-%d" i
  | Take_out_of_range -> "take out-of-range"
  | Wipe -> "wipe"
  | Freeze -> "freeze"
  | Resume -> "resume"
  | Advance ms -> Printf.sprintf "advance %dms" ms

let arb_ops =
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun k -> Add (Some k)) (int_range 1 3));
          (2, return (Add None));
          (4, map (fun i -> Take i) (int_range 0 5));
          (1, return Take_out_of_range);
          (2, return Wipe);
          (1, return Freeze);
          (1, return Resume);
          (5, map (fun ms -> Advance ms) (int_range 1 4));
        ])
  in
  QCheck.make ~print:(QCheck.Print.list show_op) ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 80) op)

(* One unit of the model. A held unit has [free_at = None] and its
   timer deadline in [deadline] ([None] while frozen); a released one
   waits in the list until [free_at]. *)
type model_unit = {
  id : int32;
  flow : int option;
  mutable tags : int list;  (** frame tags, newest first *)
  mutable resends : int;
  mutable deadline : float option;
  mutable free_at : float option;
}

let model_capacity = 3
let model_timeout = 0.005
let model_lag = 0.003

(* Runs [ops] against a pool and the model side by side; [None] when
   they agree throughout, else the first disagreement. *)
let run_against_model ~keyed ~max_resends ops =
  let engine = Engine.create () in
  let pool =
    Buffer_pool.create engine ~capacity:model_capacity ~reclaim_lag:model_lag
      ~resend_timeout:model_timeout ~max_resends ()
  in
  let units = ref [] and frozen = ref false and stale = ref 0 in
  let abandoned = ref 0 and ids = ref [] and tag = ref 0 in
  let held u = Option.is_none u.free_at in
  let remove u = units := List.filter (fun v -> v != u) !units in
  (* Fire every timer and reclaim due by [until], earliest first. *)
  let rec advance ~until =
    let due u = match u.free_at with Some t -> Some t | None -> u.deadline in
    let next =
      List.fold_left
        (fun acc u ->
          match (due u, acc) with
          | Some t, None when t <= until -> Some (t, u)
          | Some t, Some (t', _) when t < t' -> Some (t, u)
          | _ -> acc)
        None !units
    in
    match next with
    | None -> ()
    | Some (t, u) ->
        (if not (held u) then remove u
         else if u.resends >= max_resends then begin
           incr abandoned;
           remove u
         end
         else begin
           u.resends <- u.resends + 1;
           u.deadline <- Some (t +. model_timeout)
         end);
        advance ~until
  in
  let frames u =
    List.rev_map (fun n -> Bytes.of_string (string_of_int n)) u.tags
  in
  let mismatch = ref None in
  let expect what ok =
    if (not ok) && Option.is_none !mismatch then mismatch := Some what
  in
  let step op =
    let now = Engine.now engine in
    match op with
    | Add flow -> (
        let flow = if keyed then flow else None in
        incr tag;
        let frame = Bytes.of_string (string_of_int !tag) in
        let chain =
          List.find_opt
            (fun u -> held u && Option.is_some flow && u.flow = flow)
            !units
        in
        let result =
          match flow with
          | Some k -> Buffer_pool.add pool ~key:(key k) frame
          | None -> Buffer_pool.add pool frame
        in
        match (chain, result) with
        | Some u, Buffer_pool.Appended id ->
            expect "append id" (Int32.equal id u.id);
            u.tags <- !tag :: u.tags
        | None, Buffer_pool.No_space ->
            expect "no space only when full"
              (List.length !units >= model_capacity)
        | None, Buffer_pool.First id ->
            expect "room for a first" (List.length !units < model_capacity);
            expect "fresh id"
              (not (List.exists (fun u -> Int32.equal u.id id) !units));
            ids := id :: !ids;
            units :=
              {
                id;
                flow;
                tags = [ !tag ];
                resends = 0;
                deadline =
                  (if !frozen then None else Some (now +. model_timeout));
                free_at = None;
              }
              :: !units
        | _ -> expect "add result shape" false)
    | Take _ | Take_out_of_range -> (
        let id =
          match (op, !ids) with
          | Take i, (_ :: _ as all) -> List.nth all (i mod List.length all)
          | _ -> Int32.of_int (model_capacity + 1)
        in
        let out_of_range = Int32.to_int id land 0xFFFF >= model_capacity in
        let live =
          List.find_opt (fun u -> held u && Int32.equal u.id id) !units
        in
        match (live, Buffer_pool.take pool id) with
        | Some u, Buffer_pool.Taken fs ->
            expect "taken frames" (List.equal Bytes.equal fs (frames u));
            u.deadline <- None;
            u.free_at <- Some (now +. model_lag)
        | None, Buffer_pool.Unknown_id -> if not out_of_range then incr stale
        | _ -> expect "take result shape" false)
    | Wipe ->
        let lost =
          List.fold_left
            (fun n u -> if held u then n + List.length u.tags else n)
            0 !units
        in
        expect "wipe loss" (Buffer_pool.wipe pool = lost);
        units := [];
        frozen := false
    | Freeze ->
        Buffer_pool.freeze pool;
        if not !frozen then begin
          frozen := true;
          List.iter (fun u -> u.deadline <- None) !units
        end
    | Resume ->
        Buffer_pool.resume pool;
        if !frozen then begin
          frozen := false;
          List.iter
            (fun u ->
              if held u then
                if u.resends >= max_resends then begin
                  incr abandoned;
                  remove u
                end
                else u.deadline <- Some (now +. model_timeout))
            !units
        end
    | Advance ms ->
        let until = now +. (float_of_int ms *. 0.001) in
        Engine.run ~until engine;
        advance ~until
  in
  List.iter
    (fun op ->
      step op;
      let held_units = List.filter held !units in
      expect
        (Printf.sprintf "units_in_use after %s" (show_op op))
        (Buffer_pool.units_in_use pool = List.length !units);
      expect "packets_buffered"
        (Buffer_pool.packets_buffered pool
        = List.fold_left (fun n u -> n + List.length u.tags) 0 held_units);
      expect "flows_buffered"
        (Buffer_pool.flows_buffered pool
        = List.length (List.filter (fun u -> Option.is_some u.flow) held_units));
      expect "stale_takes" (Buffer_pool.stale_takes pool = !stale);
      expect "abandoned" (Buffer_pool.abandoned_flows pool = !abandoned))
    ops;
  !mismatch

let prop_agrees_with_model =
  QCheck.Test.make ~name:"pool agrees with a naive list model" ~count:500
    arb_ops (fun ops ->
      let check mode result =
        match result with
        | None -> true
        | Some what -> QCheck.Test.fail_reportf "%s mode: %s" mode what
      in
      check "packet" (run_against_model ~keyed:false ~max_resends:0 ops)
      && check "flow" (run_against_model ~keyed:true ~max_resends:2 ops))

let model_suite = [ QCheck_alcotest.to_alcotest prop_agrees_with_model ]
