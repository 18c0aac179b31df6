(* End-to-end benchmark of the simulator.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Every timing is host time. Simulated statistics are not measured
   here: they are the correctness check (see README.md). The last line
   of stdout is one JSON object; a human-readable account, with sample
   counts, goes to stderr. *)

open Sdn_core

let now_ns = Traced.now_ns
let median = Traced.median

let percentile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float rank in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((rank -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let seconds_of_ns ns = float_of_int ns *. 1e-9
let words_to_mb w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.0

(* ---- Arguments ---- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  write_reference : bool;
}

let usage =
  "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 \
   [--write-reference]"

let parse_args argv =
  let rec go acc = function
    | "--workload" :: v :: rest -> go { acc with workload = v } rest
    | "--seed" :: v :: rest -> go { acc with seed = int_of_string v } rest
    | "--seconds" :: v :: rest ->
        go { acc with seconds = float_of_string v } rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        go { acc with trace = String.equal v "1" } rest
    | "--write-reference" :: rest -> go { acc with write_reference = true } rest
    | [] -> acc
    | arg :: _ -> failwith ("unknown argument " ^ arg)
  in
  go
    {
      workload = "";
      seed = 1;
      seconds = 10.0;
      trace = false;
      write_reference = false;
    }
    (List.tl (Array.to_list argv))

(* ---- Correctness: digests and invariants ---- *)

(* Every simulated statistic of a result except its configuration. *)
let digest (r : Experiment.result) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          { r with Experiment.config = Config.default }
          [ Marshal.No_sharing ]))

let reference_file ~workload ~seed =
  Filename.concat "perfbench"
    (Filename.concat "reference" (Printf.sprintf "%s.seed%d" workload seed))

let read_lines file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let load_reference ~workload ~seed =
  let file = reference_file ~workload ~seed in
  if Sys.file_exists file then Some (read_lines file) else None

(* Packets neither delivered nor dropped by the switch. *)
let unaccounted (r : Experiment.result) =
  r.Experiment.packets_in - r.Experiment.packets_out
  - r.Experiment.packets_dropped

(* Why an experiment fails, or [None]. Conservation and completion are
   required only without faults: a fault plan may lose a packet inside
   a control message (a no-buffer PACKET_IN) or leave a flow
   unfinished, and the program reports such packets nowhere. *)
let invariant_failure ~fault_free (r : Experiment.result) =
  if r.Experiment.check_violations > 0 then Some "check violations"
  else if fault_free && unaccounted r <> 0 then Some "packets not conserved"
  else if
    fault_free && r.Experiment.flows_completed <> r.Experiment.flows_started
  then Some "flows not completed"
  else None

type tally = { mutable attempted : int; mutable failed : int }

let judge tally ~fault_free ~what reference results =
  List.iteri
    (fun i (r, expected) ->
      tally.attempted <- tally.attempted + 1;
      let why =
        match invariant_failure ~fault_free r with
        | Some why -> Some why
        | None ->
            if String.equal (digest r) expected then None
            else Some "digest differs from the reference"
      in
      match why with
      | Some why ->
          tally.failed <- tally.failed + 1;
          Printf.eprintf "FAIL %s experiment %d: %s\n%!" what i why
      | None -> ())
    (List.combine results reference)

(* ---- Timed passes ---- *)

type pass = {
  pass_ns : int;
  events : int;
  exp_ns : int array;
  canary : int array;  (** per experiment: index of the canary before it *)
  minor_words : float;  (** allocated by the experiments alone *)
  promoted_words : float;
}

(* [before i] runs ahead of experiment [i], outside its timing, and
   returns the index of the latest canary. *)
let run_pass ?(before = fun _ -> 0) configs =
  let configs = Array.of_list configs in
  let n = Array.length configs in
  let exp_ns = Array.make n 0 and canary = Array.make n 0 in
  let minor = ref 0.0 and promoted = ref 0.0 in
  let t0 = now_ns () in
  let results =
    Array.mapi
      (fun i config ->
        canary.(i) <- before i;
        let g0 = Gc.quick_stat () in
        let t = now_ns () in
        let r = Experiment.run config in
        exp_ns.(i) <- now_ns () - t;
        let g1 = Gc.quick_stat () in
        minor := !minor +. g1.Gc.minor_words -. g0.Gc.minor_words;
        promoted := !promoted +. g1.Gc.promoted_words -. g0.Gc.promoted_words;
        r)
      configs
  in
  let pass_ns = now_ns () - t0 in
  let events =
    Array.fold_left (fun acc r -> acc + r.Experiment.sim_events) 0 results
  in
  ( {
      pass_ns;
      events;
      exp_ns;
      canary;
      minor_words = !minor;
      promoted_words = !promoted;
    },
    Array.to_list results )

(* ---- The canary ----

   A fixed load, independent of the program, timed next to the
   experiments: allocation and hash-table traffic over a working set of
   about a megabyte, like the simulator's own. On a shared host other
   tenants slow both alike (by up to 2.4x, for tens of seconds, on the
   host this was built on), so the ratio of an experiment's time to
   the canary's holds steady where the raw time does not. *)

let canary_ns () =
  let t0 = now_ns () in
  let table = Hashtbl.create 16 in
  for i = 0 to 199_999 do
    Hashtbl.replace table (i land 16383) (i, float_of_int i, [ i ]);
    ignore
      (Sys.opaque_identity (Hashtbl.find_opt table ((i * 7919) land 16383)))
  done;
  now_ns () - t0

(* A canary starts each pass and then runs before the first experiment
   that begins at least [chunk_ns] after the previous canary; so every
   stretch of experiments is bracketed by two canaries. *)
let chunk_ns = 250_000_000

type canaries = {
  mutable times : int list;  (** newest first *)
  mutable count : int;
  mutable last_end : int;
}

let canary_hook c i =
  if i = 0 || now_ns () - c.last_end >= chunk_ns then begin
    c.times <- canary_ns () :: c.times;
    c.count <- c.count + 1;
    c.last_end <- now_ns ()
  end;
  c.count - 1

(* Passes until [seconds] have elapsed (at least [min_passes]). *)
let repeat ~seconds ~min_passes f =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let rec go n acc =
    if n >= min_passes && now_ns () >= deadline then List.rev acc
    else go (n + 1) (f () :: acc)
  in
  go 0 []

(* ---- Output ---- *)

let metric name value unit =
  if not (Float.is_finite value) then
    failwith (Printf.sprintf "metric %s is not a number" name);
  (name, value, unit)

let print_result ~correct ~tally metrics =
  List.iter
    (fun (name, value, unit) ->
      Printf.eprintf "  %-34s %.6g %s\n" name value unit)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value
             unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n%!"
    correct tally.attempted tally.failed body

(* The first experiment again, traced, with its inputs captured. *)
let capture_first configs =
  let pass = Traced.new_pass () in
  Traced.run ~capture:true pass (List.hd configs);
  List.hd pass.Traced.captures

(* ---- The untraced run: end-to-end metrics ---- *)

(* One set-up: the configurations, the stored reference and every
   experiment's scenario and traffic plan. *)
let setup (w : Workloads.t) ~seed =
  let t0 = now_ns () in
  let configs = w.Workloads.configs ~seed in
  ignore (load_reference ~workload:w.Workloads.name ~seed);
  List.iter Traced.prepare configs;
  seconds_of_ns (now_ns () - t0)

let end_to_end (w : Workloads.t) ~seed ~seconds ~tally ~reference configs =
  Gc.full_major ();
  let c = { times = []; count = 0; last_end = 0 } in
  let runs =
    repeat ~seconds ~min_passes:3 (fun () ->
        run_pass ~before:(canary_hook c) configs)
  in
  let gc1 = Gc.quick_stat () in
  ignore (canary_hook c 0);
  let canary = Array.of_list (List.rev c.times) in
  let passes = List.map fst runs in
  List.iteri
    (fun i (_, results) ->
      judge tally ~fault_free:w.Workloads.fault_free
        ~what:(Printf.sprintf "pass %d" i) reference results)
    runs;
  (* Every pass runs the same experiments (the digests say so), so the
     event count is the same in each. An experiment's relative time is
     its host time over the mean of the two canaries around it. *)
  let rel p i =
    let k = p.canary.(i) in
    float_of_int p.exp_ns.(i)
    /. (float_of_int (canary.(k) + canary.(k + 1)) /. 2.0)
  in
  let pass_rel p =
    let sum = ref 0.0 in
    Array.iteri (fun i _ -> sum := !sum +. rel p i) p.exp_ns;
    !sum
  in
  let wall_rel = median (List.map pass_rel passes) in
  let exp_rel =
    List.init (List.length configs) (fun i ->
        median (List.map (fun p -> rel p i) passes))
  in
  let pass_events = float_of_int (List.hd passes).events in
  let events = pass_events *. float_of_int (List.length passes) in
  let words f = List.fold_left (fun acc p -> acc +. f p) 0.0 passes /. events in
  let scaling = Traced.insert_scaling_4x (capture_first configs) in
  (* The untimed --check pass through the library's sweep entry point. *)
  let checked = w.Workloads.checked ~seed in
  judge tally ~fault_free:w.Workloads.fault_free ~what:"check pass" reference
    checked;
  (* Measured last, so that its garbage does not raise the timed
     phase's peak heap. *)
  let setup_s = median (List.init 5 (fun _ -> setup w ~seed)) in
  Printf.eprintf
    "%s seed %d: %d timed passes of %d experiments, %d canaries (median \
     %.1f ms)\n"
    w.Workloads.name seed (List.length passes) (List.length configs)
    (Array.length canary)
    (median
       (Array.to_list (Array.map (fun ns -> float_of_int ns *. 1e-6) canary)));
  Printf.eprintf "pass seconds: %s\n"
    (String.concat " "
       (List.map
          (fun p -> Printf.sprintf "%.3f" (float_of_int p.pass_ns *. 1e-9))
          passes));
  [
    metric "setup_s" setup_s "s";
    metric "wall_rel" wall_rel "canary";
    metric "events_per_canary" (pass_events /. wall_rel) "1/canary";
    metric "exp_p50_rel" (median exp_rel) "canary";
    metric "exp_p90_rel" (percentile 0.9 exp_rel) "canary";
    metric "minor_words_per_event" (words (fun p -> p.minor_words)) "words";
    metric "promoted_words_per_event"
      (words (fun p -> p.promoted_words))
      "words";
    metric "peak_heap_mb" (words_to_mb gc1.Gc.top_heap_words) "MB";
    metric "engine.kevent_rel" (wall_rel /. pass_events *. 1000.0) "canary";
    metric "flow_table.insert_scaling_4x" scaling "ratio";
  ]

(* ---- The traced run: per-layer metrics ---- *)

let best_by f = function
  | [] -> invalid_arg "best_by"
  | x :: rest ->
      List.fold_left (fun best y -> if f y < f best then y else best) x rest

let per_layer (w : Workloads.t) ~seconds ~tally ~reference configs warm =
  let budget = seconds /. 2.0 in
  let untraced =
    repeat ~seconds:budget ~min_passes:2 (fun () ->
        let canary = canary_ns () in
        let g0 = Gc.quick_stat () in
        let pass, results = run_pass configs in
        let g1 = Gc.quick_stat () in
        judge tally ~fault_free:w.Workloads.fault_free ~what:"untraced pass"
          reference results;
        ( pass,
          canary,
          ( g1.Gc.minor_collections - g0.Gc.minor_collections,
            g1.Gc.major_collections - g0.Gc.major_collections ) ))
  in
  let traced =
    repeat ~seconds:budget ~min_passes:2 (fun () ->
        let pass = Traced.new_pass () in
        let t0 = now_ns () in
        List.iter (Traced.run pass) configs;
        (pass, now_ns () - t0))
  in
  tally.attempted <- tally.attempted + (List.length traced * List.length warm);
  let mismatches =
    List.concat_map (fun (p, _) -> Traced.fidelity p warm) traced
  in
  if mismatches <> [] then begin
    tally.failed <- tally.failed + List.length mismatches;
    Printf.eprintf
      "%s: the traced run does not reproduce the untraced counters \
       (experiments %s); no per-layer numbers\n"
      w.Workloads.name
      (String.concat "," (List.map string_of_int mismatches));
    None
  end
  else begin
    let capture = Traced.new_pass () in
    List.iter (Traced.run ~capture:true capture) configs;
    let r = Traced.replay capture in
    (* As in the untimed run, timings come from the fastest pass; the
       counters are the same in every pass. *)
    let p, traced_ns = best_by snd traced in
    let u, _, _ = best_by (fun (u, _, _) -> u.pass_ns) untraced in
    let untraced_ns = u.pass_ns in
    let ratio num den = float_of_int num /. float_of_int (max 1 den) in
    let ms ns = float_of_int ns *. 1e-6 in
    let per_call (s : Traced.span) = ratio s.Traced.ns s.Traced.calls in
    let spans_ns =
      p.Traced.frame.Traced.ns + p.Traced.of_message.Traced.ns
      + p.Traced.ctl_message.Traced.ns
    in
    let engine_self_ns = p.Traced.loop_ns - spans_ns in
    let replay_ns =
      r.Traced.decode_ns + r.Traced.insert_ns + r.Traced.lookup_ns
      + r.Traced.peek_ns
    in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 warm in
    let fsum f = List.fold_left (fun acc r -> acc +. f r) 0.0 warm in
    let count name v = metric name (float_of_int v) "count" in
    let median_count f =
      median (List.map (fun u -> float_of_int (f u)) untraced)
    in
    Printf.eprintf
      "%s: %d untraced and %d traced passes; the traced run reproduces all \
       %d experiments\n"
      w.Workloads.name (List.length untraced) (List.length traced)
      (List.length warm);
    Some
      [
        count "engine.events" p.Traced.events;
        count "engine.peak_pending" p.Traced.peak_pending;
        metric "engine.self_ms" (ms engine_self_ns) "ms";
        metric "engine.self_ns_per_event"
          (ratio engine_self_ns p.Traced.events)
          "ns";
        count "flow_table.inserts" p.Traced.table_inserts;
        metric "flow_table.insert_ns"
          (ratio r.Traced.insert_ns r.Traced.inserted)
          "ns";
        count "flow_table.evictions" p.Traced.evictions;
        count "flow_table.expirations" p.Traced.expirations;
        count "flow_table.peak_len" p.Traced.peak_table;
        count "flow_table.lookups" p.Traced.table_lookups;
        metric "flow_table.lookup_ns"
          (ratio r.Traced.lookup_ns r.Traced.looked_up)
          "ns";
        count "microflow.hits" p.Traced.mf_hits;
        count "microflow.misses" p.Traced.mf_misses;
        count "microflow.flushes" p.Traced.mf_flushes;
        metric "microflow.hit_ratio"
          (ratio p.Traced.mf_hits p.Traced.table_lookups)
          "ratio";
        count "switch.frames" p.Traced.frames_received;
        metric "switch.handle_frame_ns" (per_call p.Traced.frame) "ns";
        metric "switch.handle_of_message_ns"
          (per_call p.Traced.of_message)
          "ns";
        count "switch.unaccounted_packets" (sum unaccounted);
        metric "controller.handle_message_ns"
          (per_call p.Traced.ctl_message)
          "ns";
        count "codec.msgs_up" p.Traced.msgs_up;
        count "codec.msgs_down" p.Traced.msgs_down;
        metric "codec.bytes_up_per_flow"
          (ratio p.Traced.bytes_up p.Traced.flows)
          "B";
        metric "codec.decode_ns"
          (ratio r.Traced.decode_ns r.Traced.decoded)
          "ns";
        metric "packet.peek_ns" (ratio r.Traced.peek_ns r.Traced.peeked) "ns";
        metric "packet.decode_ns"
          (ratio r.Traced.pkt_decode_ns r.Traced.peeked)
          "ns";
        count "link.messages" p.Traced.link_messages;
        metric "scenario.build_ms" (ms p.Traced.build_ns) "ms";
        metric "traffic.gen_ms" (ms p.Traced.gen_ns) "ms";
        metric "buffer.max_in_use"
          (float_of_int
             (List.fold_left
                (fun acc (r : Experiment.result) ->
                  max acc r.Experiment.buffer_max_in_use)
                0 warm))
          "units";
        metric "buffer.mean_in_use"
          (fsum (fun r -> r.Experiment.buffer_mean_in_use)
          /. float_of_int (List.length warm))
          "units";
        count "buffer.full_packet_fallbacks"
          (sum (fun r -> r.Experiment.full_packet_fallbacks));
        count "buffer.resends" (sum (fun r -> r.Experiment.pkt_in_resends));
        count "buffer.abandoned" (sum (fun r -> r.Experiment.flows_abandoned));
        count "session.transitions"
          (sum (fun r -> List.length r.Experiment.session_transitions));
        metric "session.downtime_s"
          (fsum (fun r -> r.Experiment.session_downtime))
          "s";
        count "controller.reconcile_audits"
          (sum (fun r -> r.Experiment.reconcile_audits));
        count "controller.reconcile_installs"
          (sum (fun r -> r.Experiment.reconcile_installs));
        count "cpu.switch_jobs" p.Traced.switch_jobs;
        count "cpu.controller_jobs" p.Traced.controller_jobs;
        count "cpu.switch_max_queue" p.Traced.switch_max_queue;
        count "cpu.controller_max_queue" p.Traced.controller_max_queue;
        metric "gc.minor_collections"
          (median_count (fun (_, _, (minor, _)) -> minor))
          "count";
        metric "gc.major_collections"
          (median_count (fun (_, _, (_, major)) -> major))
          "count";
        metric "host.wall_s" (float_of_int untraced_ns *. 1e-9) "s";
        metric "host.events_per_s" (ratio u.events untraced_ns *. 1e9) "1/s";
        metric "host.canary_ms"
          (median_count (fun (_, canary, _) -> canary) *. 1e-6)
          "ms";
        metric "trace.overhead_pct"
          (ratio (traced_ns - untraced_ns) untraced_ns *. 100.0)
          "%";
        metric "trace.explained_share"
          (ratio (spans_ns + replay_ns) p.Traced.loop_ns)
          "ratio";
      ]
  end

let main () =
  let args =
    try parse_args Sys.argv
    with Failure msg | Invalid_argument msg ->
      prerr_endline (msg ^ "\n" ^ usage);
      exit 2
  in
  let w =
    match Workloads.find args.workload with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ args.workload ^ "\n" ^ usage);
        exit 2
  in
  let seed = args.seed in
  let configs = w.Workloads.configs ~seed in
  let stored = load_reference ~workload:w.Workloads.name ~seed in
  (* The warm-up pass; its digests are the reference where none is
     stored for this seed, or when writing one. *)
  let _, warm = run_pass configs in
  let reference =
    match stored with
    | Some r when not args.write_reference -> r
    | Some _ | None -> List.map digest warm
  in
  if args.write_reference then begin
    let file = reference_file ~workload:w.Workloads.name ~seed in
    let oc = open_out file in
    List.iter (fun d -> output_string oc (d ^ "\n")) reference;
    close_out oc;
    Printf.eprintf "wrote %s\n%!" file
  end;
  if List.compare_lengths reference warm <> 0 then begin
    prerr_endline "the stored reference does not match the workload's size";
    exit 1
  end;
  let tally = { attempted = 0; failed = 0 } in
  judge tally ~fault_free:w.Workloads.fault_free ~what:"warm-up pass" reference
    warm;
  let metrics =
    if args.trace then
      per_layer w ~seconds:args.seconds ~tally ~reference configs warm
    else
      Some
        (end_to_end w ~seed ~seconds:args.seconds ~tally ~reference configs)
  in
  match metrics with
  | Some metrics ->
      print_result ~correct:(tally.failed = 0) ~tally metrics;
      if tally.failed > 0 then exit 1
  | None ->
      print_result ~correct:false ~tally [];
      exit 1

let () = main ()
