(* The [massive] scenario: an extreme Poisson flow count sharded over
   the full switch/controller pipeline. Shard splitting, conservation,
   determinism across [--jobs] widths and the runtime checker. *)

open Sdn_core

let stats =
  Alcotest.testable
    (fun fmt (s : Massive.pipeline_stats) ->
      Format.fprintf fmt
        "shards=%d flows=%d in=%d out=%d completed=%d events=%d violations=%d"
        s.pl_shards s.pl_flows s.pl_packets_in s.pl_packets_out
        s.pl_flows_completed s.pl_sim_events s.pl_check_violations)
    ( = )

(* 2000 flows over 3 shards splits unevenly (667/667/666). *)
let uneven () = Massive.run_pipeline ~flows:2_000 ~shards:3 ()

let test_uneven_split_conserves () =
  let s = uneven () in
  Alcotest.(check int) "shards" 3 s.Massive.pl_shards;
  Alcotest.(check int) "flows" 2_000 s.Massive.pl_flows;
  Alcotest.(check int) "every flow's packet entered" 2_000 s.Massive.pl_packets_in;
  Alcotest.(check int) "packets conserved" s.Massive.pl_packets_in
    s.Massive.pl_packets_out;
  Alcotest.(check int) "every flow completed" s.Massive.pl_flows
    s.Massive.pl_flows_completed;
  Alcotest.(check bool) "events dispatched" true (s.Massive.pl_sim_events > 0)

let test_shards_clamped_to_flows () =
  let s = Massive.run_pipeline ~flows:5 ~shards:8 () in
  Alcotest.(check int) "min shards flows" 5 s.Massive.pl_shards;
  Alcotest.(check int) "flows completed" 5 s.Massive.pl_flows_completed

let test_jobs_equivalent () =
  Alcotest.check stats "jobs 1 = jobs 2"
    (Massive.run_pipeline ~flows:2_000 ~shards:3 ~jobs:1 ())
    (Massive.run_pipeline ~flows:2_000 ~shards:3 ~jobs:2 ())

let test_check_clean () =
  let s = Massive.run_pipeline ~flows:2_000 ~shards:3 ~check:true () in
  Alcotest.(check int) "no violations" 0 s.Massive.pl_check_violations;
  Alcotest.(check (list string)) "no reports" [] s.Massive.pl_check_reports;
  Alcotest.check stats "checking does not perturb the run" (uneven ()) s

let test_rejects_non_positive () =
  Alcotest.check_raises "zero flows"
    (Invalid_argument "Massive.run_pipeline: non-positive flows") (fun () ->
      ignore (Massive.run_pipeline ~flows:0 ()));
  Alcotest.check_raises "negative shards"
    (Invalid_argument "Massive.run_pipeline: non-positive shards") (fun () ->
      ignore (Massive.run_pipeline ~flows:10 ~shards:(-1) ()))

let suite =
  [
    Alcotest.test_case "uneven split conserves packets and flows" `Quick
      test_uneven_split_conserves;
    Alcotest.test_case "shards clamped to flows" `Quick
      test_shards_clamped_to_flows;
    Alcotest.test_case "jobs 1 and 2 agree" `Quick test_jobs_equivalent;
    Alcotest.test_case "check reports no violations" `Quick test_check_clean;
    Alcotest.test_case "non-positive flows or shards rejected" `Quick
      test_rejects_non_positive;
  ]
