(* Command-line front end for the reproduction: single runs, sweeps,
   individual figures, the full evaluation, and calibration checks. *)

open Cmdliner
open Sdn_core

let mechanism_conv =
  let parse = function
    | "no-buffer" | "none" -> Ok Config.No_buffer
    | "packet" | "packet-granularity" -> Ok Config.Packet_granularity
    | "flow" | "flow-granularity" -> Ok Config.Flow_granularity
    | s -> Error (`Msg (Printf.sprintf "unknown mechanism %S" s))
  in
  let print fmt m =
    Format.pp_print_string fmt
      (match m with
      | Config.No_buffer -> "no-buffer"
      | Config.Packet_granularity -> "packet-granularity"
      | Config.Flow_granularity -> "flow-granularity")
  in
  Arg.conv (parse, print)

let mechanism_arg =
  Arg.(
    value
    & opt mechanism_conv Config.Packet_granularity
    & info [ "m"; "mechanism" ] ~docv:"MECH"
        ~doc:"Buffer mechanism: no-buffer, packet-granularity or \
              flow-granularity.")

let buffer_arg =
  Arg.(
    value & opt int 256
    & info [ "b"; "buffer" ] ~docv:"UNITS" ~doc:"Buffer capacity in units.")

let rate_arg =
  Arg.(
    value & opt float 30.0
    & info [ "r"; "rate" ] ~docv:"MBPS" ~doc:"Sending rate in Mbps.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let reps_arg =
  Arg.(
    value & opt int 20
    & info [ "n"; "reps" ] ~docv:"N" ~doc:"Repetitions per rate point.")

let rates_arg =
  Arg.(
    value
    & opt (list float) Sweep.default_rates
    & info [ "rates" ] ~docv:"R1,R2,..." ~doc:"Sending rates to sweep (Mbps).")

let faults_conv =
  let parse s =
    match Sdn_sim.Faults.spec_of_string s with
    | Ok spec -> Ok spec
    | Error msg -> Error (`Msg msg)
  in
  let print fmt spec =
    Format.pp_print_string fmt (Sdn_sim.Faults.spec_to_string spec)
  in
  Arg.conv (parse, print)

let faults_arg =
  Arg.(
    value
    & opt faults_conv Sdn_sim.Faults.none
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Control-channel fault plan: comma-separated $(b,loss=P), \
           $(b,burst=PGB:PBG:LBAD[:LGOOD]), $(b,jitter=S) and \
           $(b,outage=T0-T1[+T0-T1...]). The plan is driven by the run's \
           seed: the same seed and spec reproduce the same fault schedule \
           message for message.")

(* --crash takes the fault-plan crash grammar without the key: the
   value is parsed by prefixing "crash=" and handing it to the spec
   parser, so the two spellings can never drift apart. *)
let crash_conv =
  let parse s =
    match Sdn_sim.Faults.spec_of_string ("crash=" ^ s) with
    | Ok spec -> Ok spec.Sdn_sim.Faults.crashes
    | Error msg -> Error (`Msg msg)
  in
  let print fmt crashes =
    Format.pp_print_string fmt
      (String.concat "+"
         (List.map
            (fun (c : Sdn_sim.Faults.crash) ->
              Printf.sprintf "%s:%g:%g:%s"
                (Sdn_sim.Faults.crash_node_to_string c.Sdn_sim.Faults.node)
                c.Sdn_sim.Faults.at_s c.Sdn_sim.Faults.down_s
                (Sdn_sim.Faults.restart_mode_to_string c.Sdn_sim.Faults.mode))
            crashes))
  in
  Arg.conv (parse, print)

let crash_arg =
  Arg.(
    value
    & opt crash_conv []
    & info [ "crash" ] ~docv:"NODE:AT:DOWN:MODE[+...]"
        ~doc:
          "Schedule node crashes: $(b,NODE) is $(b,switch) or \
           $(b,controller), $(b,AT) the crash instant (seconds), $(b,DOWN) \
           the downtime before the restart, $(b,MODE) $(b,warm) (process \
           state lost, device tables survive) or $(b,cold) (buffered \
           packets wiped, flow table cleared, configuration reset). \
           Equivalent to $(b,crash=...) inside $(b,--faults); the two \
           merge.")

let watermark_arg =
  Arg.(
    value & opt float 1.0
    & info [ "watermark" ] ~docv:"FRACTION"
        ~doc:
          "Overload-guard high watermark: once the buffer pool is this \
           full (fraction of capacity), new miss chains are shed at \
           admission instead of evicting in-flight ones. $(b,1.0) (the \
           default) disables the guard.")

let buf_policy_conv =
  let parse s =
    match Sdn_switch.Buf_policy.kind_of_string s with
    | Ok k -> Ok k
    | Error msg -> Error (`Msg msg)
  in
  let print fmt k =
    Format.pp_print_string fmt (Sdn_switch.Buf_policy.kind_to_string k)
  in
  Arg.conv (parse, print)

let buf_policy_arg =
  Arg.(
    value
    & opt (some buf_policy_conv) None
    & info [ "buf-policy" ] ~docv:"POLICY"
        ~doc:
          "Shared-buffer sharing discipline across the packet pool and QoS \
           queues: $(b,static) (private partitions, the reference), \
           $(b,share) (complete sharing), $(b,dt:ALPHA) (Dynamic Threshold: \
           admit while the class holds less than ALPHA x free), or \
           $(b,tdt[:ALPHA[:TARGET_MS]]) (adaptive threshold tightening \
           under queueing delay). Unset (the default) keeps the legacy \
           private buffers and byte-identical output.")

let fail_mode_conv =
  let parse s =
    match Sdn_switch.Session.fail_mode_of_string s with
    | Ok m -> Ok m
    | Error msg -> Error (`Msg msg)
  in
  let print fmt m =
    Format.pp_print_string fmt (Sdn_switch.Session.fail_mode_to_string m)
  in
  Arg.conv (parse, print)

let fail_mode_arg =
  Arg.(
    value
    & opt fail_mode_conv Config.Fail_secure
    & info [ "fail-mode" ] ~docv:"MODE"
        ~doc:
          "What the switch does with miss-match traffic while its controller \
           session is down: $(b,secure) drops it and freezes buffered chains; \
           $(b,standalone) keeps forwarding through an internal L2 learning \
           path.")

let echo_interval_arg =
  Arg.(
    value & opt float 0.0
    & info [ "echo-interval" ] ~docv:"SECONDS"
        ~doc:
          "Control-session keepalive period on both endpoints. 0 (the \
           default) disables the liveness machinery entirely.")

let echo_misses_arg =
  Arg.(
    value & opt int 3
    & info [ "echo-misses" ] ~docv:"N"
        ~doc:"Unanswered keepalives before a session is declared down.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~env:(Cmd.Env.info "SDN_BUFFER_JOBS")
        ~doc:
          "Worker domains for independent replications (sweep points, \
           repetitions). Purely an execution-width knob: results are merged \
           by task index, so any value produces byte-identical output; \
           $(b,1) (the default) runs the sequential reference path. Combine \
           with $(b,--check) to arm the parallel-equivalence replay, which \
           re-runs a sampled task sequentially and compares the results \
           field for field.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Arm the runtime protocol-invariant checker (buffer conservation, \
           single PACKET_IN per chain, xid uniqueness, session transitions, \
           codec round-trip). A clean run prints byte-identically to an \
           unchecked one; any violation is reported with its event trace and \
           the command exits 1.")

(* Shared --check epilogue: report every dirty run and fail the command. *)
let check_exit results =
  let dirty =
    List.filter_map
      (fun (label, (r : Experiment.result)) ->
        Option.map
          (fun rep -> (label, r.Experiment.check_violations, rep))
          r.Experiment.check_report)
      results
  in
  if dirty <> [] then begin
    List.iter
      (fun (label, n, rep) ->
        Printf.eprintf "invariant violations in %s: %d\n%s\n" label n rep)
      dirty;
    exit 1
  end

let workload_arg =
  let workload_conv =
    let parse = function
      | "exp-a" -> Ok (Config.Exp_a { n_flows = 1000 })
      | "exp-b" ->
          Ok (Config.Exp_b { n_flows = 50; packets_per_flow = 20; concurrent = 5 })
      | "burst" -> Ok (Config.Udp_burst { n_packets = 200 })
      | "poisson" -> Ok (Config.Poisson_flows { n_flows = 1000 })
      | "poisson-mix" ->
          Ok (Config.Poisson_mix { n_packets = 1000; miss_fraction = 0.5 })
      | s -> Error (`Msg (Printf.sprintf "unknown workload %S" s))
    in
    let print fmt w =
      Format.pp_print_string fmt
        (match w with
        | Config.Exp_a _ -> "exp-a"
        | Config.Exp_b _ -> "exp-b"
        | Config.Udp_burst _ -> "burst"
        | Config.Poisson_flows _ -> "poisson"
        | Config.Poisson_mix _ -> "poisson-mix")
    in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt workload_conv (Config.Exp_a { n_flows = 1000 })
    & info [ "w"; "workload" ] ~docv:"WORKLOAD"
        ~doc:"Workload: exp-a (1000 single-packet flows), exp-b (50x20 \
              cross-sequence), burst, poisson (Poisson single-packet flows) \
              or poisson-mix (Poisson hit/miss mix).")

let run_cmd =
  let run mechanism buffer rate seed workload faults crashes watermark
      buf_policy echo_interval echo_misses fail_mode check jobs =
    let faults =
      {
        faults with
        Sdn_sim.Faults.crashes = faults.Sdn_sim.Faults.crashes @ crashes;
      }
    in
    let config =
      {
        Config.default with
        Config.mechanism;
        buffer_capacity = (if mechanism = Config.No_buffer then 0 else buffer);
        rate_mbps = rate;
        seed;
        workload;
        faults;
        overload_watermark = watermark;
        buf_policy;
        echo_interval;
        echo_misses;
        fail_mode;
        check;
        jobs;
      }
    in
    let result = Experiment.run config in
    Format.printf "%a@." Experiment.pp_result result;
    check_exit [ (Config.label config, result) ]
  in
  let term =
    Term.(
      const run $ mechanism_arg $ buffer_arg $ rate_arg $ seed_arg
      $ workload_arg $ faults_arg $ crash_arg $ watermark_arg
      $ buf_policy_arg $ echo_interval_arg $ echo_misses_arg $ fail_mode_arg
      $ check_arg $ jobs_arg)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one experiment and print its metrics. A single run is always \
          one domain; $(b,--jobs) is recorded in the configuration and only \
          fans out the sweep commands.")
    term

let chaos_cmd =
  let loss_rates_arg =
    Arg.(
      value
      & opt (list float) Chaos.default_loss_rates
      & info [ "loss-rates" ] ~docv:"P1,P2,..."
          ~doc:"Control-channel loss rates to sweep.")
  in
  let outage_arg =
    Arg.(
      value & flag
      & info [ "outage" ]
          ~doc:
            "Run the outage sweep instead of the loss sweep: a scheduled \
             control-channel blackout against every mechanism and fail mode, \
             with the echo keepalive armed.")
  in
  let durations_arg =
    Arg.(
      value
      & opt (list float) Chaos.default_outage_durations
      & info [ "durations" ] ~docv:"S1,S2,..."
          ~doc:"Outage durations to sweep (seconds, with $(b,--outage)).")
  in
  let crash_sweep_arg =
    Arg.(
      value & flag
      & info [ "crash" ]
          ~doc:
            "Run the crash sweep instead of the loss sweep: a scheduled \
             node crash-restart (switch and controller, mid-incast) against \
             every mechanism, with the echo keepalive armed and the \
             post-restart flow-state reconciliation measured.")
  in
  let restart_modes_arg =
    let modes_conv =
      let parse = function
        | "both" -> Ok Chaos.default_crash_modes
        | s -> (
            match Sdn_sim.Faults.restart_mode_of_string s with
            | Ok m -> Ok [ m ]
            | Error msg -> Error (`Msg msg))
      in
      let print fmt = function
        | [ m ] ->
            Format.pp_print_string fmt (Sdn_sim.Faults.restart_mode_to_string m)
        | _ -> Format.pp_print_string fmt "both"
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt modes_conv Chaos.default_crash_modes
      & info [ "restart-mode" ] ~docv:"MODE"
          ~doc:
            "Restart mode(s) for the crash sweep: $(b,warm), $(b,cold) or \
             $(b,both) (the default).")
  in
  let downs_arg =
    Arg.(
      value
      & opt (list float) Chaos.default_crash_downs
      & info [ "downs" ] ~docv:"S1,S2,..."
          ~doc:"Crash downtimes to sweep (seconds, with $(b,--crash)).")
  in
  let policy_sweep_arg =
    Arg.(
      value & flag
      & info [ "policy" ]
          ~doc:
            "Run the buffer-policy sweep instead of the loss sweep: every \
             shared-buffer sharing discipline against every pool size under \
             a deterministic incast burst into a slow egress uplink, with \
             three strict-priority classes drawing on the shared pool.")
  in
  let policies_arg =
    Arg.(
      value
      & opt (list buf_policy_conv) Chaos.default_policies
      & info [ "policies" ] ~docv:"P1,P2,..."
          ~doc:
            "Sharing disciplines to sweep (with $(b,--policy)); same grammar \
             as $(b,--buf-policy).")
  in
  let buffers_arg =
    Arg.(
      value
      & opt (list int) Chaos.default_policy_buffers
      & info [ "buffers" ] ~docv:"N1,N2,..."
          ~doc:"Packet-pool capacities to sweep (with $(b,--policy)).")
  in
  let run seed rate loss_rates faults outage durations crash modes downs policy
      policies buffers check jobs =
    let armed base = { base with Config.rate_mbps = rate; check; jobs } in
    let report, runs =
      if policy then
        let base =
          { (Chaos.default_policy_base ~seed) with Config.check; jobs }
        in
        let points = Chaos.run_policy ~policies ~buffers ~base () in
        ( Chaos.policy_report points,
          List.map
            (fun (p : Chaos.policy_point) -> (p.Chaos.label, p.Chaos.result))
            points )
      else if crash then
        let base = armed (Chaos.default_crash_base ~seed) in
        let points = Chaos.run_crash ~modes ~downs ~base () in
        ( Chaos.crash_report points,
          List.map
            (fun (p : Chaos.crash_point) -> (p.Chaos.label, p.Chaos.result))
            points )
      else if outage then
        let base = armed (Chaos.default_outage_base ~seed) in
        let points = Chaos.run_outage ~durations ~base () in
        ( Chaos.outage_report points,
          List.map
            (fun (p : Chaos.outage_point) -> (p.Chaos.label, p.Chaos.result))
            points )
      else
        let base = armed { (Chaos.default_base ~seed) with Config.faults } in
        let points = Chaos.run ~loss_rates ~base () in
        ( Chaos.report points,
          List.map (fun (p : Chaos.point) -> (p.Chaos.label, p.Chaos.result)) points
        )
    in
    print_string report;
    check_exit runs
  in
  let term =
    Term.(
      const run $ seed_arg $ rate_arg $ loss_rates_arg $ faults_arg
      $ outage_arg $ durations_arg $ crash_sweep_arg $ restart_modes_arg
      $ downs_arg $ policy_sweep_arg $ policies_arg $ buffers_arg $ check_arg
      $ jobs_arg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Sweep control-channel faults against every buffer mechanism: \
          independent loss by default, a scheduled blackout with \
          $(b,--outage), a node crash-restart with $(b,--crash), or the \
          shared-buffer policy grid with $(b,--policy). Deterministic: the \
          same seed yields a byte-identical report.")
    term

let figure_cmd =
  let all_ids =
    List.map fst Figures.exp_a_figures @ List.map fst Figures.exp_b_figures
  in
  let id_arg =
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun id -> (id, id)) all_ids))) None
      & info [] ~docv:"FIGURE"
          ~doc:
            (Printf.sprintf "Figure to reproduce: %s."
               (String.concat ", " all_ids)))
  in
  let run id rates reps jobs =
    match List.assoc_opt id Figures.exp_a_figures with
    | Some f -> f (Figures.run_exp_a ~rates ~reps ~jobs ())
    | None -> (
        match List.assoc_opt id Figures.exp_b_figures with
        | Some f -> f (Figures.run_exp_b ~rates ~reps ~jobs ())
        | None -> prerr_endline "unknown figure")
  in
  let term = Term.(const run $ id_arg $ rates_arg $ reps_arg $ jobs_arg) in
  Cmd.v
    (Cmd.info "figure" ~doc:"Reproduce one figure of the paper.")
    term

let all_cmd =
  let run rates reps jobs = Figures.run_all ~rates ~reps ~jobs () in
  let term = Term.(const run $ rates_arg $ reps_arg $ jobs_arg) in
  Cmd.v
    (Cmd.info "all" ~doc:"Reproduce every figure and the headline claims.")
    term

let export_cmd =
  let dir_arg =
    Arg.(
      value & opt string "results"
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Directory for the CSV files.")
  in
  let run dir rates reps jobs =
    let a = Figures.run_exp_a ~rates ~reps ~jobs () in
    let b = Figures.run_exp_b ~rates ~reps ~jobs () in
    Figures.export_csv ~dir a b;
    Printf.printf "wrote 16 figure CSVs to %s/\n" dir
  in
  let term = Term.(const run $ dir_arg $ rates_arg $ reps_arg $ jobs_arg) in
  Cmd.v
    (Cmd.info "export" ~doc:"Run both sweeps and export every figure as CSV.")
    term

let validate_cmd =
  let grid_arg =
    let grid_conv =
      let parse = function
        | "full" -> Ok Validate.full_grid
        | "quick" -> Ok Validate.quick_grid
        | "golden" -> Ok Validate.golden_grid
        | s -> Error (`Msg (Printf.sprintf "unknown grid %S" s))
      in
      let print fmt (g : Validate.grid) =
        Format.pp_print_string fmt
          (if g = Validate.full_grid then "full"
           else if g = Validate.quick_grid then "quick"
           else "golden")
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt grid_conv Validate.full_grid
      & info [ "g"; "grid" ] ~docv:"GRID"
          ~doc:
            "Validation grid: $(b,full) (5 utilizations x 3 offered loads x \
             3 reps x all controller profiles), $(b,quick) (the CI subset) \
             or $(b,golden) (the byte-stable fixture).")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"PATH"
          ~doc:"Also write the machine-readable agreement report to $(docv).")
  in
  let reconverge_arg =
    Arg.(
      value & flag
      & info [ "reconverge" ]
          ~doc:
            "Run the crash-reconvergence gate instead of a model grid: \
             inject a warm switch crash into the jackson rho=0.3 point and \
             assert the steady-state delay metrics re-enter the crash-free \
             tolerance bands after recovery (plus recovery-time and \
             reconciliation gates).")
  in
  let run grid reconverge csv_path check jobs =
    let report =
      if reconverge then Validate.reconvergence ~check ~jobs ()
      else Validate.run ~check ~jobs grid
    in
    print_string (Validate.summary report);
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Validate.csv report);
        close_out oc;
        Printf.printf "wrote %s\n" path)
      csv_path;
    check_exit report.Validate.runs;
    if not report.Validate.ok then exit 2
  in
  let term =
    Term.(const run $ grid_arg $ reconverge_arg $ csv_arg $ check_arg $ jobs_arg)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Cross-validate the simulator against the analytical queueing \
          models: generate configurations inside each model's operating \
          regime, run them (deterministically, on $(b,--jobs) domains), and \
          assert per-metric agreement within tolerance. Exits 2 on \
          divergence, 1 on an invariant violation under $(b,--check).")
    term

let massive_cmd =
  let flows_arg =
    Arg.(
      value & opt int 1_000_000
      & info [ "flows" ] ~docv:"N"
          ~doc:"Flows injected through the full pipeline.")
  and shards_arg =
    Arg.(
      value & opt int 20
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Independent experiment shards the pipeline flows are split \
             into (the parallel grain for $(b,--jobs)).")
  in
  let run flows shards seed check jobs =
    (* Deterministic counters go to stdout (CI byte-compares them
       across --jobs widths); the wall-clock rate goes to stderr only. *)
    let now () = Int64.to_float (Monotonic_clock.now ()) in
    let t0 = now () in
    let pl = Massive.run_pipeline ~flows ~shards ~check ~jobs ~seed () in
    let pl_ns = now () -. t0 in
    Printf.printf
      "massive: pipeline shards=%d flows=%d packets_in=%d packets_out=%d \
       flows_completed=%d sim_events=%d\n"
      pl.Massive.pl_shards pl.Massive.pl_flows pl.Massive.pl_packets_in
      pl.Massive.pl_packets_out pl.Massive.pl_flows_completed
      pl.Massive.pl_sim_events;
    Printf.eprintf
      "massive: pipeline %.2f Mevents/s (wall %.3f s, %d jobs)\n"
      (float_of_int pl.Massive.pl_sim_events /. pl_ns *. 1e3)
      (pl_ns /. 1e9) jobs;
    List.iter (Printf.eprintf "%s\n") pl.Massive.pl_check_reports;
    if pl.Massive.pl_check_violations > 0 then begin
      Printf.eprintf "massive: %d invariant violations\n"
        pl.Massive.pl_check_violations;
      exit 1
    end
  in
  let term =
    Term.(
      const run $ flows_arg $ shards_arg $ seed_arg $ check_arg $ jobs_arg)
  in
  Cmd.v
    (Cmd.info "massive"
       ~doc:
         "Extreme-scale throughput scenario: push an extreme Poisson flow \
          count through the full switch/controller pipeline in independent \
          shards. Counters print deterministically on stdout; the \
          wall-clock event rate prints on stderr.")
    term

let calibration_cmd =
  let run jobs =
    let checks = Calibration.sanity ~jobs () in
    List.iter
      (fun (what, ok) ->
        Printf.printf "[%s] %s\n" (if ok then "ok" else "FAIL") what)
      checks;
    if List.for_all snd checks then ()
    else exit 1
  in
  Cmd.v
    (Cmd.info "calibration" ~doc:"Check the calibration sanity conditions.")
    Term.(const run $ jobs_arg)

let default_info =
  Cmd.info "sdn_buffer_cli" ~version:"1.0.0"
    ~doc:
      "Reproduction of 'Adopting SDN Switch Buffer: Benefits Analysis and \
       Mechanism Design' (ICDCS 2017) on a simulated testbed."

let () =
  exit
    (Cmd.eval
       (Cmd.group default_info
          [
            run_cmd; chaos_cmd; figure_cmd; all_cmd; export_cmd; validate_cmd;
            massive_cmd; calibration_cmd;
          ]))
