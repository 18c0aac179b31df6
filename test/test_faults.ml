(* Fault-plan tests: Gilbert–Elliott burst statistics, outage windows,
   seed-determinism of the schedule, and the exponential backoff of the
   flow-granularity re-request timer. *)

open Sdn_sim

let judge_n plan ~n ~dt =
  List.init n (fun i -> Faults.judge plan ~now:(float_of_int i *. dt))

(* The Gilbert–Elliott chain's long-run drop fraction must match the
   stationary distribution of the two-state Markov chain:
   P(bad) = pgb / (pgb + pbg), and with loss_bad = 1, loss_good = 0 the
   drop rate equals P(bad). *)
let test_burst_stationary () =
  let burst =
    {
      Faults.p_good_to_bad = 0.1;
      p_bad_to_good = 0.3;
      loss_good = 0.0;
      loss_bad = 1.0;
    }
  in
  let spec = { Faults.none with Faults.burst = Some burst } in
  let plan = Faults.create ~spec ~rng:(Rng.of_int 11) () in
  let n = 50_000 in
  ignore (judge_n plan ~n ~dt:1e-4);
  let expected = 0.1 /. (0.1 +. 0.3) in
  let observed =
    float_of_int (Faults.dropped_by plan Faults.Burst_loss) /. float_of_int n
  in
  Alcotest.(check int) "every drop is a burst drop" (Faults.dropped plan)
    (Faults.dropped_by plan Faults.Burst_loss);
  Alcotest.(check bool)
    (Printf.sprintf "drop rate %.3f within 0.02 of stationary %.3f" observed
       expected)
    true
    (Float.abs (observed -. expected) < 0.02)

(* With per-state loss probabilities below 1 the drop rate is the
   mixture P(bad)*loss_bad + P(good)*loss_good. *)
let test_burst_mixture () =
  let burst =
    {
      Faults.p_good_to_bad = 0.05;
      p_bad_to_good = 0.2;
      loss_good = 0.01;
      loss_bad = 0.5;
    }
  in
  let spec = { Faults.none with Faults.burst = Some burst } in
  let plan = Faults.create ~spec ~rng:(Rng.of_int 12) () in
  let n = 50_000 in
  ignore (judge_n plan ~n ~dt:1e-4);
  let p_bad = 0.05 /. (0.05 +. 0.2) in
  let expected = (p_bad *. 0.5) +. ((1.0 -. p_bad) *. 0.01) in
  let observed = float_of_int (Faults.dropped plan) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mixture drop rate %.3f within 0.02 of %.3f" observed
       expected)
    true
    (Float.abs (observed -. expected) < 0.02)

(* Outage windows are surgical: every message judged inside [t0, t1) is
   dropped with reason Outage, every message outside is untouched. *)
let test_outage_window_exact () =
  let spec =
    {
      Faults.none with
      Faults.outages =
        [
          { Faults.start_s = 1.0; stop_s = 2.0 };
          { Faults.start_s = 5.0; stop_s = 5.5 };
        ];
    }
  in
  let plan = Faults.create ~spec ~rng:(Rng.of_int 1) () in
  let in_window now =
    (now >= 1.0 && now < 2.0) || (now >= 5.0 && now < 5.5)
  in
  let n = 700 in
  let expected_drops = ref 0 in
  for i = 0 to n - 1 do
    let now = float_of_int i *. 0.01 in
    if in_window now then incr expected_drops;
    match (Faults.judge plan ~now, in_window now) with
    | Faults.Drop Faults.Outage, true -> ()
    | Faults.Deliver { jitter_s = 0.0 }, false -> ()
    | verdict, inside ->
        Alcotest.fail
          (Printf.sprintf "t=%.2f inside=%b got %s" now inside
             (match verdict with
             | Faults.Drop r -> "drop:" ^ Faults.reason_to_string r
             | Faults.Deliver _ -> "deliver"))
  done;
  Alcotest.(check int) "outage drop count" !expected_drops
    (Faults.dropped_by plan Faults.Outage);
  Alcotest.(check bool) "boundary start in" true
    (match Faults.judge plan ~now:1.0 with
    | Faults.Drop Faults.Outage -> true
    | _ -> false);
  Alcotest.(check bool) "boundary stop out" true
    (match Faults.judge plan ~now:2.0 with
    | Faults.Deliver _ -> true
    | _ -> false)

(* Two plans with identical seed and spec produce the identical verdict
   sequence — the reproducibility guarantee behind the chaos report. *)
let test_same_seed_same_schedule () =
  let spec =
    {
      Faults.loss_rate = 0.15;
      burst =
        Some
          {
            Faults.p_good_to_bad = 0.05;
            p_bad_to_good = 0.25;
            loss_good = 0.02;
            loss_bad = 0.7;
          };
      jitter_s = 0.003;
      outages = [ { Faults.start_s = 0.02; stop_s = 0.03 } ];
      crashes = [];
    }
  in
  let schedule seed =
    let plan = Faults.create ~spec ~rng:(Rng.of_int seed) () in
    judge_n plan ~n:2000 ~dt:5e-5
  in
  let a = schedule 42 and b = schedule 42 in
  Alcotest.(check bool) "same seed, same verdicts" true (a = b);
  let c = schedule 43 in
  Alcotest.(check bool) "different seed, different verdicts" true (a <> c)

(* A plan with no faults never draws from its generator and never
   perturbs delivery. *)
let test_none_is_transparent () =
  let plan = Faults.create ~rng:(Rng.of_int 5) () in
  List.iter
    (fun v ->
      match v with
      | Faults.Deliver { jitter_s = 0.0 } -> ()
      | _ -> Alcotest.fail "none spec must deliver with zero jitter")
    (judge_n plan ~n:100 ~dt:0.01);
  Alcotest.(check int) "no drops" 0 (Faults.dropped plan);
  Alcotest.(check int) "no delays" 0 (Faults.delayed plan)

(* The --faults grammar parses, validates, and roundtrips through the
   canonical printer. *)
let test_spec_grammar () =
  (match Faults.spec_of_string "loss=0.1,burst=0.02:0.3:0.8,jitter=0.002,outage=0.2-0.3+1-1.5" with
  | Error e -> Alcotest.fail e
  | Ok spec ->
      Alcotest.(check (float 1e-9)) "loss" 0.1 spec.Faults.loss_rate;
      Alcotest.(check (float 1e-9)) "jitter" 0.002 spec.Faults.jitter_s;
      (match spec.Faults.burst with
      | Some b ->
          Alcotest.(check (float 1e-9)) "pgb" 0.02 b.Faults.p_good_to_bad;
          Alcotest.(check (float 1e-9)) "pbg" 0.3 b.Faults.p_bad_to_good;
          Alcotest.(check (float 1e-9)) "loss_bad" 0.8 b.Faults.loss_bad;
          Alcotest.(check (float 1e-9)) "loss_good" 0.0 b.Faults.loss_good
      | None -> Alcotest.fail "burst missing");
      Alcotest.(check int) "outages" 2 (List.length spec.Faults.outages);
      (* Roundtrip through the canonical form. *)
      (match Faults.spec_of_string (Faults.spec_to_string spec) with
      | Ok spec' -> Alcotest.(check bool) "roundtrip" true (spec = spec')
      | Error e -> Alcotest.fail e));
  (match Faults.spec_of_string "none" with
  | Ok spec -> Alcotest.(check bool) "none" true (Faults.is_none spec)
  | Error e -> Alcotest.fail e);
  (match Faults.spec_of_string "loss=1.5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loss > 1 must be rejected");
  match Faults.spec_of_string "bogus=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown field must be rejected"

(* The crash grammar: NODE:AT:DOWN:MODE, '+'-separated; crashes are
   schedule-only, so a crash-only spec still judges like [none]. *)
let test_crash_grammar () =
  (match
     Faults.spec_of_string "crash=sw:0.15:0.05:cold+ctl:0.3:0.1:warm"
   with
  | Error e -> Alcotest.fail e
  | Ok spec ->
      Alcotest.(check int) "two crashes" 2 (List.length spec.Faults.crashes);
      (match spec.Faults.crashes with
      | [ a; b ] ->
          Alcotest.(check bool) "switch first" true
            (a.Faults.node = Faults.Switch_node);
          Alcotest.(check (float 1e-9)) "at" 0.15 a.Faults.at_s;
          Alcotest.(check (float 1e-9)) "down" 0.05 a.Faults.down_s;
          Alcotest.(check bool) "cold" true (a.Faults.mode = Faults.Cold);
          Alcotest.(check bool) "controller second" true
            (b.Faults.node = Faults.Controller_node);
          Alcotest.(check bool) "warm" true (b.Faults.mode = Faults.Warm)
      | _ -> Alcotest.fail "expected two crashes");
      (* Roundtrip through the canonical form. *)
      (match Faults.spec_of_string (Faults.spec_to_string spec) with
      | Ok spec' -> Alcotest.(check bool) "roundtrip" true (spec = spec')
      | Error e -> Alcotest.fail e);
      (* Per-node extraction, sorted by crash time. *)
      (match
         Faults.crashes_for
           { spec with Faults.crashes = List.rev spec.Faults.crashes }
           Faults.Switch_node
       with
      | [ c ] ->
          Alcotest.(check bool) "switch crash extracted" true
            (c.Faults.node = Faults.Switch_node)
      | _ -> Alcotest.fail "expected exactly the switch crash"));
  (match Faults.spec_of_string "crash=switch:0.1:0.05:cold" with
  | Ok spec ->
      (* A crash-only plan draws nothing: every message is delivered
         exactly as under [none]. *)
      let plan =
        Faults.create ~spec ~rng:(Sdn_sim.Rng.create 42L) ()
      in
      for _ = 1 to 100 do
        match Faults.judge plan ~now:0.12 with
        | Faults.Deliver { jitter_s } ->
            Alcotest.(check (float 0.0)) "no jitter" 0.0 jitter_s
        | Faults.Drop _ -> Alcotest.fail "crash-only spec must not drop"
      done
  | Error e -> Alcotest.fail e);
  (match Faults.spec_of_string "crash=disk:0.1:0.05:cold" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown node must be rejected");
  (match Faults.spec_of_string "crash=switch:0.1:0.05:tepid" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown mode must be rejected");
  match Faults.spec_of_string "crash=switch:-0.1:0.05:cold" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative crash time must be rejected"

(* Re-request backoff: with jitter off, resend number n fires after
   min(cap, timeout * multiplier^n). timeout=10ms, x2, cap=40ms,
   max_resends=4 gives resends at 10, 30, 70, 110 ms and abandonment at
   150 ms. *)
let test_backoff_schedule () =
  let open Sdn_switch in
  let engine = Engine.create () in
  let resend_times = ref [] in
  let pool =
    Buffer_pool.create engine ~capacity:4 ~reclaim_lag:0.0
      ~resend_timeout:0.01 ~resend_multiplier:2.0 ~resend_cap:0.04
      ~max_resends:4
      ~on_resend:(fun ~buffer_id:_ ~in_port:_ ~first_frame:_ ->
        resend_times := Engine.now engine :: !resend_times)
      ()
  in
  let frame =
    Sdn_net.Packet.encode
      (Sdn_net.Packet.udp_frame_of_size
         ~src_mac:(Sdn_net.Mac.of_octets 0x02 0 0 0 0 1)
         ~dst_mac:(Sdn_net.Mac.of_octets 0x02 0 0 0 0 2)
         ~src_ip:(Sdn_net.Ip.make 10 0 0 1) ~dst_ip:(Sdn_net.Ip.make 10 0 0 2)
         ~src_port:1234 ~dst_port:9 ~frame_size:200
         ~payload_fill:(fun _ -> ()))
  in
  let key = Option.get (Sdn_net.Packet.peek_flow_key frame) in
  (match Buffer_pool.add pool ~key ~in_port:1 frame with
  | Buffer_pool.First _ -> ()
  | _ -> Alcotest.fail "expected First");
  Engine.run ~until:1.0 engine;
  let times = List.rev !resend_times in
  Alcotest.(check int) "four re-requests" 4 (List.length times);
  List.iter2
    (fun expected got ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "resend at %.3fs" expected)
        expected got)
    [ 0.01; 0.03; 0.07; 0.11 ] times;
  Alcotest.(check int) "abandoned after exhaustion" 1
    (Buffer_pool.abandoned_flows pool);
  Alcotest.(check int) "resend counter" 4 (Buffer_pool.resends pool)

(* Jittered backoff stays within the [1-j, 1+j] envelope of the
   deterministic schedule and is reproducible for a fixed seed. *)
let test_backoff_jitter_envelope () =
  let open Sdn_switch in
  let run seed =
    let engine = Engine.create () in
    let resend_times = ref [] in
    let pool =
      Buffer_pool.create engine ~capacity:4 ~reclaim_lag:0.0
        ~resend_timeout:0.01 ~resend_multiplier:2.0 ~resend_cap:0.04
        ~resend_jitter:0.2 ~rng:(Rng.of_int seed) ~max_resends:4
        ~on_resend:(fun ~buffer_id:_ ~in_port:_ ~first_frame:_ ->
          resend_times := Engine.now engine :: !resend_times)
        ()
    in
    let frame =
      Sdn_net.Packet.encode
        (Sdn_net.Packet.udp_frame_of_size
           ~src_mac:(Sdn_net.Mac.of_octets 0x02 0 0 0 0 1)
           ~dst_mac:(Sdn_net.Mac.of_octets 0x02 0 0 0 0 2)
           ~src_ip:(Sdn_net.Ip.make 10 0 0 1)
           ~dst_ip:(Sdn_net.Ip.make 10 0 0 2) ~src_port:1234 ~dst_port:9
           ~frame_size:200
           ~payload_fill:(fun _ -> ()))
    in
    let key = Option.get (Sdn_net.Packet.peek_flow_key frame) in
    ignore (Buffer_pool.add pool ~key ~in_port:1 frame);
    Engine.run ~until:1.0 engine;
    List.rev !resend_times
  in
  let times = run 9 in
  Alcotest.(check int) "four re-requests" 4 (List.length times);
  (* Gaps between consecutive firings bracket the un-jittered delays
     10, 20, 40, 40 ms by at most 20%. *)
  let gaps =
    List.mapi
      (fun i t -> t -. (if i = 0 then 0.0 else List.nth times (i - 1)))
      times
  in
  List.iter2
    (fun nominal gap ->
      Alcotest.(check bool)
        (Printf.sprintf "gap %.4fs within 20%% of %.3fs" gap nominal)
        true
        (gap >= (nominal *. 0.8) -. 1e-9 && gap <= (nominal *. 1.2) +. 1e-9))
    [ 0.01; 0.02; 0.04; 0.04 ] gaps;
  Alcotest.(check bool) "same seed reproduces the jittered schedule" true
    (run 9 = times)

let suite =
  [
    Alcotest.test_case "burst stationary drop rate" `Quick test_burst_stationary;
    Alcotest.test_case "burst mixture drop rate" `Quick test_burst_mixture;
    Alcotest.test_case "outage drops exactly in-window" `Quick
      test_outage_window_exact;
    Alcotest.test_case "same seed, same schedule" `Quick
      test_same_seed_same_schedule;
    Alcotest.test_case "none spec is transparent" `Quick test_none_is_transparent;
    Alcotest.test_case "--faults grammar" `Quick test_spec_grammar;
    Alcotest.test_case "crash grammar and schedule-only contract" `Quick
      test_crash_grammar;
    Alcotest.test_case "backoff follows multiplier and cap" `Quick
      test_backoff_schedule;
    Alcotest.test_case "jittered backoff envelope" `Quick
      test_backoff_jitter_envelope;
  ]
