(* The one funnel every sweep's replications run through. Parallelism
   lives here and in Sdn_sim.Task_pool; the sweeps themselves only
   build labelled configurations and zip results back by list shape. *)

open Sdn_sim

(* Deterministic sample for the sequential replay: spread by the seed
   so different sweeps probe different grid positions, identical across
   runs of the same sweep. 7919 (a prime) decorrelates adjacent seeds. *)
let replay_index configs =
  let n = Array.length configs in
  if n = 0 then 0 else abs (configs.(0).Config.seed * 7919) mod n

(* Re-run the sampled task in the calling domain and compare
   field-for-field. On mismatch, record a parallel-equivalence
   violation on that task's result so it reaches the CLI's --check
   epilogue; on agreement leave the array untouched (clean parallel
   output must stay byte-identical to sequential output). *)
let cross_check cells (results : Experiment.result array) =
  let idx = replay_index (Array.map snd cells) in
  let label, config = cells.(idx) in
  match Experiment.diff_result results.(idx) (Experiment.run config) with
  | [] -> ()
  | mismatched_fields ->
      let ledger = Sdn_check.Check.create () in
      Sdn_check.Check.note_parallel_replay ledger ~time:0.0 ~task:label
        ~equal:false
        ~detail:(String.concat ", " mismatched_fields);
      let r = results.(idx) in
      let report = Sdn_check.Check.report ledger in
      results.(idx) <-
        {
          r with
          Experiment.check_violations = r.Experiment.check_violations + 1;
          check_report =
            Some
              (match r.Experiment.check_report with
              | None -> report
              | Some existing -> existing ^ report);
        }

let run ~jobs cells =
  let cells = Array.of_list cells in
  let tasks = Array.length cells in
  let results =
    Task_pool.run ~jobs ~tasks (fun i -> Experiment.run (snd cells.(i)))
  in
  if jobs > 1 && Array.exists (fun (_, c) -> c.Config.check) cells then
    cross_check cells results;
  Array.to_list results

(* [run] keeps the order of the concatenation, so handing each cell the
   next result cuts the list back into the groups' shapes. *)
let run_groups ~jobs groups =
  let next results _cell =
    match results with
    | r :: rest -> (rest, r)
    | [] -> assert false (* lint: allow partial-exit: one result per cell *)
  in
  snd
    (List.fold_left_map (List.fold_left_map next)
       (run ~jobs (List.concat groups))
       groups)
