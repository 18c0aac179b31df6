(* The deterministic multicore executor: Task_pool semantics, the
   jobs-equivalence property (parallel output byte-identical to the
   sequential reference path) across every sweep family, and the
   parallel-equivalence replay check. *)

open Sdn_core

(* ---- Task_pool semantics ---- *)

let test_pool_indexed_results () =
  let expected = Array.init 37 (fun i -> i * i) in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d merges by index" jobs)
        expected
        (Sdn_sim.Task_pool.run ~oversubscribe:true ~jobs ~tasks:37 (fun i -> i * i)))
    [ 1; 2; 4; 8 ]

let test_pool_more_jobs_than_tasks () =
  Alcotest.(check (array int))
    "jobs clamp to tasks" [| 0; 10; 20 |]
    (Sdn_sim.Task_pool.run ~oversubscribe:true ~jobs:16 ~tasks:3 (fun i -> 10 * i))

let test_pool_edge_sizes () =
  Alcotest.(check (array int))
    "zero tasks" [||]
    (Sdn_sim.Task_pool.run ~jobs:4 ~tasks:0 (fun i -> i));
  Alcotest.(check (array int))
    "one task" [| 42 |]
    (Sdn_sim.Task_pool.run ~jobs:4 ~tasks:1 (fun _ -> 42));
  Alcotest.check_raises "negative tasks rejected"
    (Invalid_argument "Task_pool.run: negative task count") (fun () ->
      ignore (Sdn_sim.Task_pool.run ~jobs:2 ~tasks:(-1) (fun i -> i)))

let test_pool_exception_propagates () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "task failure re-raised at jobs=%d" jobs)
        (Failure "task 5 exploded")
        (fun () ->
          ignore
            (Sdn_sim.Task_pool.run ~oversubscribe:true ~jobs ~tasks:12 (fun i ->
                 if i = 5 then failwith "task 5 exploded" else i))))
    [ 1; 4 ]

let test_pool_map_list () =
  let xs = [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ] in
  let f s = s ^ s in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "map_list at jobs=%d is List.map" jobs)
        (List.map f xs)
        (Sdn_sim.Task_pool.map_list ~oversubscribe:true ~jobs f xs))
    [ 1; 3 ];
  Alcotest.(check (list int))
    "map_list on []" []
    (Sdn_sim.Task_pool.map_list ~jobs:4 (fun x -> x) [])

let test_recommended_jobs_positive () =
  Alcotest.(check bool)
    "recommended_jobs >= 1" true
    (Sdn_sim.Task_pool.recommended_jobs () >= 1)

(* ---- Result equality primitives the equivalence gate runs on ---- *)

let tiny_config ?(check = false) ~rate_mbps ~seed () =
  {
    (Config.exp_a ~mechanism:Config.Packet_granularity ~buffer_capacity:256
       ~rate_mbps ~seed)
    with
    Config.workload = Config.Exp_a { n_flows = 30 };
    check;
  }

let test_diff_result_self_empty () =
  let r = Experiment.run (tiny_config ~rate_mbps:30.0 ~seed:5 ()) in
  Alcotest.(check (list string)) "no field differs from itself" []
    (Experiment.diff_result r r);
  Alcotest.(check bool) "equal_result agrees" true (Experiment.equal_result r r)

let test_diff_result_names_field () =
  let r = Experiment.run (tiny_config ~rate_mbps:30.0 ~seed:5 ()) in
  let doctored =
    { r with Experiment.ctrl_load_up_mbps = r.Experiment.ctrl_load_up_mbps +. 1.0 }
  in
  Alcotest.(check (list string))
    "exactly the doctored field" [ "ctrl_load_up_mbps" ]
    (Experiment.diff_result r doctored);
  Alcotest.(check bool) "equal_result disagrees" false
    (Experiment.equal_result r doctored)

let test_replay_index_deterministic () =
  let configs =
    Array.init 7 (fun i -> tiny_config ~rate_mbps:30.0 ~seed:(100 + i) ())
  in
  let idx = Exec.replay_index configs in
  Alcotest.(check bool) "in range" true (idx >= 0 && idx < 7);
  Alcotest.(check int) "stable across calls" idx (Exec.replay_index configs);
  Alcotest.(check int) "empty grid" 0 (Exec.replay_index [||])

let test_run_groups_keeps_shapes () =
  let cell seed =
    (Printf.sprintf "group/seed=%d" seed, tiny_config ~rate_mbps:30.0 ~seed ())
  in
  let groups = [ []; [ cell 1; cell 2 ]; []; [ cell 3 ] ] in
  let grouped = Exec.run_groups ~jobs:2 groups in
  Alcotest.(check (list int)) "group sizes" [ 0; 2; 0; 1 ]
    (List.map List.length grouped);
  List.iter2
    (fun a b ->
      Alcotest.(check (list string)) "cell order kept" []
        (Experiment.diff_result a b))
    (Exec.run ~jobs:1 (List.concat groups))
    (List.concat grouped)

(* ---- Jobs-equivalence: every sweep family, jobs in {1, 2, 4} ---- *)

let run_tiny_sweep ~jobs =
  Sweep.run ~label:"par" ~rates:[ 20.0; 60.0 ] ~reps:2 ~jobs
    (fun ~rate_mbps ~seed -> tiny_config ~rate_mbps ~seed ())

let check_series_equal what (a : Sweep.series) (b : Sweep.series) =
  Alcotest.(check string) (what ^ ": label") a.Sweep.label b.Sweep.label;
  Alcotest.(check int)
    (what ^ ": points")
    (List.length a.Sweep.points)
    (List.length b.Sweep.points);
  List.iter2
    (fun (pa : Sweep.point) (pb : Sweep.point) ->
      Alcotest.(check (float 0.0)) (what ^ ": rate") pa.Sweep.rate_mbps
        pb.Sweep.rate_mbps;
      Alcotest.(check int)
        (what ^ ": reps")
        (List.length pa.Sweep.results)
        (List.length pb.Sweep.results);
      List.iter2
        (fun ra rb ->
          Alcotest.(check (list string)) (what ^ ": result fields") []
            (Experiment.diff_result ra rb))
        pa.Sweep.results pb.Sweep.results)
    a.Sweep.points b.Sweep.points

let test_sweep_jobs_equivalence () =
  let reference = run_tiny_sweep ~jobs:1 in
  List.iter
    (fun jobs ->
      check_series_equal
        (Printf.sprintf "jobs=%d vs jobs=1" jobs)
        reference (run_tiny_sweep ~jobs))
    [ 2; 4 ]

let test_chaos_loss_jobs_equivalence () =
  let base seed = { (Chaos.default_base ~seed) with Config.rate_mbps = 20.0 } in
  let run ~jobs = Chaos.run ~loss_rates:[ 0.0; 0.1 ] ~jobs ~base:(base 7) () in
  let reference = run ~jobs:1 and parallel = run ~jobs:4 in
  Alcotest.(check int) "same point count" (List.length reference)
    (List.length parallel);
  List.iter2
    (fun (a : Chaos.point) (b : Chaos.point) ->
      Alcotest.(check (float 0.0)) "loss rate" a.Chaos.loss_rate
        b.Chaos.loss_rate;
      Alcotest.(check string) "mechanism label"
        (Config.label a.Chaos.config)
        (Config.label b.Chaos.config);
      Alcotest.(check (list string)) "result fields" []
        (Experiment.diff_result a.Chaos.result b.Chaos.result))
    reference parallel

let test_chaos_outage_jobs_equivalence () =
  let base seed = Chaos.default_outage_base ~seed in
  let run ~jobs = Chaos.run_outage ~durations:[ 0.05 ] ~jobs ~base:(base 7) () in
  let reference = run ~jobs:1 and parallel = run ~jobs:4 in
  Alcotest.(check int) "same point count" (List.length reference)
    (List.length parallel);
  List.iter2
    (fun (a : Chaos.outage_point) (b : Chaos.outage_point) ->
      Alcotest.(check (float 0.0)) "duration" a.Chaos.duration b.Chaos.duration;
      Alcotest.(check bool) "fail mode" true
        (a.Chaos.fail_mode = b.Chaos.fail_mode);
      Alcotest.(check (list string)) "result fields" []
        (Experiment.diff_result a.Chaos.result b.Chaos.result))
    reference parallel

let test_chaos_crash_jobs_equivalence () =
  let base = Chaos.default_crash_base ~seed:7 in
  let run ~jobs = Chaos.run_crash ~modes:[ Sdn_sim.Faults.Warm ] ~jobs ~base () in
  let reference = run ~jobs:1 and parallel = run ~jobs:4 in
  Alcotest.(check int) "same point count" (List.length reference)
    (List.length parallel);
  List.iter2
    (fun (a : Chaos.crash_point) (b : Chaos.crash_point) ->
      Alcotest.(check string) "label" a.Chaos.label b.Chaos.label;
      Alcotest.(check (list string)) "result fields" []
        (Experiment.diff_result a.Chaos.result b.Chaos.result))
    reference parallel

let test_chaos_policy_jobs_equivalence () =
  let base = Chaos.default_policy_base ~seed:7 in
  let run ~jobs = Chaos.run_policy ~buffers:[ 16; 64 ] ~jobs ~base () in
  let reference = run ~jobs:1 and parallel = run ~jobs:4 in
  Alcotest.(check int) "same point count" (List.length reference)
    (List.length parallel);
  List.iter2
    (fun (a : Chaos.policy_point) (b : Chaos.policy_point) ->
      Alcotest.(check string) "label" a.Chaos.label b.Chaos.label;
      Alcotest.(check (list string)) "result fields" []
        (Experiment.diff_result a.Chaos.result b.Chaos.result))
    reference parallel

(* A parallel-equivalence report names its task by label, so on every
   default grid the labels must name exactly one task each. *)
let test_default_grid_labels_distinct () =
  let distinct what labels =
    Alcotest.(check int)
      (what ^ ": labels pairwise distinct")
      (List.length labels)
      (List.length (List.sort_uniq String.compare labels))
  in
  let base = Chaos.default_base ~seed:7 in
  distinct "chaos loss"
    (List.map (fun (p : Chaos.point) -> p.Chaos.label) (Chaos.run ~base ()));
  let base = Chaos.default_outage_base ~seed:7 in
  distinct "chaos outage"
    (List.map
       (fun (p : Chaos.outage_point) -> p.Chaos.label)
       (Chaos.run_outage ~base ()));
  let base = Chaos.default_crash_base ~seed:7 in
  distinct "chaos crash"
    (List.map
       (fun (p : Chaos.crash_point) -> p.Chaos.label)
       (Chaos.run_crash ~base ()));
  let base = Chaos.default_policy_base ~seed:7 in
  distinct "chaos policy"
    (List.map
       (fun (p : Chaos.policy_point) -> p.Chaos.label)
       (Chaos.run_policy ~base ()));
  distinct "massive shards"
    (List.map fst
       (Massive.shard_cells ~flows:1_000_000 ~shards:20 ~check:false ~seed:1))

let test_calibration_jobs_equivalence () =
  let reference = Calibration.sanity ~jobs:1 () in
  let parallel = Calibration.sanity ~jobs:4 () in
  Alcotest.(check (list (pair string bool)))
    "verdict list identical" reference parallel

(* ---- The parallel-equivalence replay check ---- *)

let test_clean_parallel_run_has_no_violations () =
  (* check armed + jobs > 1 exercises the sampled sequential replay;
     a clean deterministic workload must come back violation-free and
     byte-identical to the sequential reference. *)
  let run ~jobs =
    Sweep.run ~label:"chk" ~rates:[ 20.0; 60.0 ] ~reps:2 ~jobs
      (fun ~rate_mbps ~seed -> tiny_config ~check:true ~rate_mbps ~seed ())
  in
  let reference = run ~jobs:1 and parallel = run ~jobs:4 in
  check_series_equal "checked jobs=4 vs jobs=1" reference parallel;
  List.iter
    (fun (p : Sweep.point) ->
      List.iter
        (fun (r : Experiment.result) ->
          Alcotest.(check int) "no violations" 0 r.Experiment.check_violations;
          Alcotest.(check string) "empty report" ""
            (Option.value ~default:"" r.Experiment.check_report))
        p.Sweep.results)
    parallel.Sweep.points

let test_note_parallel_replay_disagreement () =
  let check = Sdn_check.Check.create () in
  Sdn_check.Check.note_parallel_replay check ~time:0.0 ~task:"t/rate=20/rep=0"
    ~equal:true ~detail:"";
  Alcotest.(check int) "agreement records no violation" 0
    (Sdn_check.Check.violation_count check);
  Sdn_check.Check.note_parallel_replay check ~time:0.0 ~task:"t/rate=20/rep=1"
    ~equal:false ~detail:"fields: packet_in_count";
  Alcotest.(check int) "disagreement is a violation" 1
    (Sdn_check.Check.violation_count check);
  match Sdn_check.Check.violations check with
  | [ v ] ->
      Alcotest.(check string) "invariant id" "parallel-equivalence"
        v.Sdn_check.Check.invariant;
      Alcotest.(check bool) "detail names the task" true
        (let s = v.Sdn_check.Check.detail in
         let sub = "t/rate=20/rep=1" in
         let ls = String.length sub and ln = String.length s in
         let rec go i = i + ls <= ln && (String.sub s i ls = sub || go (i + 1)) in
         go 0)
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let suite =
  [
    Alcotest.test_case "pool merges by task index" `Quick
      test_pool_indexed_results;
    Alcotest.test_case "pool clamps jobs to tasks" `Quick
      test_pool_more_jobs_than_tasks;
    Alcotest.test_case "pool edge sizes" `Quick test_pool_edge_sizes;
    Alcotest.test_case "pool re-raises task failures" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "map_list preserves order" `Quick test_pool_map_list;
    Alcotest.test_case "recommended_jobs is positive" `Quick
      test_recommended_jobs_positive;
    Alcotest.test_case "diff_result: identical results" `Quick
      test_diff_result_self_empty;
    Alcotest.test_case "diff_result names the differing field" `Quick
      test_diff_result_names_field;
    Alcotest.test_case "replay_index is deterministic" `Quick
      test_replay_index_deterministic;
    Alcotest.test_case "sweep: jobs in {1,2,4} identical" `Slow
      test_sweep_jobs_equivalence;
    Alcotest.test_case "chaos loss sweep: jobs 4 = jobs 1" `Slow
      test_chaos_loss_jobs_equivalence;
    Alcotest.test_case "chaos outage sweep: jobs 4 = jobs 1" `Slow
      test_chaos_outage_jobs_equivalence;
    Alcotest.test_case "calibration: jobs 4 = jobs 1" `Slow
      test_calibration_jobs_equivalence;
    Alcotest.test_case "checked parallel run stays clean" `Slow
      test_clean_parallel_run_has_no_violations;
    Alcotest.test_case "replay disagreement is a violation" `Quick
      test_note_parallel_replay_disagreement;
    Alcotest.test_case "chaos crash sweep: jobs 4 = jobs 1" `Slow
      test_chaos_crash_jobs_equivalence;
    Alcotest.test_case "chaos policy sweep: jobs 4 = jobs 1" `Slow
      test_chaos_policy_jobs_equivalence;
    Alcotest.test_case "default grid labels are distinct" `Slow
      test_default_grid_labels_distinct;
    Alcotest.test_case "run_groups keeps group shapes" `Quick
      test_run_groups_keeps_shapes;
  ]
