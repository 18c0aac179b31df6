(* Benchmark harness.

   Two halves:

   1. Bechamel micro-benchmarks of the building blocks (codec, flow
      table, buffer pools, event engine) — the cost of the mechanisms
      themselves, independent of any scenario.

   2. The figure harness: regenerates every table/figure of the paper's
      evaluation (Figs. 2-13) by running the Section IV and Section V
      sweeps and printing the series, followed by the headline
      aggregate claims next to the paper's reported numbers.

   Usage:
     dune exec bench/main.exe                 # micro + figures + ablations
     dune exec bench/main.exe -- all          # the same
     dune exec bench/main.exe -- micro        # micro-benchmarks only
     dune exec bench/main.exe -- figures      # all figures only
     dune exec bench/main.exe -- fig5         # one figure
     dune exec bench/main.exe -- figures 5    # all figures, 5 reps/point
     dune exec bench/main.exe -- ablations    # the ablation studies
     dune exec bench/main.exe -- json [path]  # machine-readable snapshot
                                              # (default BENCH_pr12.json)

   The json snapshot holds every micro subject's ns/run and
   minor-words/run, the microflow cache's lookup speedup, a small
   end-to-end sweep timed at --jobs 1/2/4 with its parallel speedups
   (the Task_pool scaling factor), a scaled-down massive pipeline, and
   the flow table's install-cost scaling from 1000 to 4000 rules,
   which CI caps to keep inserts linear.
*)

open Bechamel
open Toolkit

(* ---- Micro-benchmark subjects ---- *)

let mac1 = Sdn_net.Mac.of_octets 0x02 0 0 0 0 1
let mac2 = Sdn_net.Mac.of_octets 0x02 0 0 0 0 2
let ip1 = Sdn_net.Ip.make 10 0 0 1
let ip2 = Sdn_net.Ip.make 10 0 0 2

let sample_packet =
  Sdn_net.Packet.udp_frame_of_size ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:ip1
    ~dst_ip:ip2 ~src_port:1000 ~dst_port:9 ~frame_size:1000
    ~payload_fill:(fun _ -> ())

let sample_frame = Sdn_net.Packet.encode sample_packet

let sample_pkt_in_full =
  Sdn_openflow.Of_codec.encode ~xid:1l
    (Sdn_openflow.Of_codec.Packet_in
       (Sdn_openflow.Of_packet_in.make ~buffer_id:Sdn_openflow.Of_wire.no_buffer
          ~in_port:1 ~reason:Sdn_openflow.Of_packet_in.No_match
          ~frame:sample_frame ~miss_send_len:None))

let sample_pkt_in_buffered =
  Sdn_openflow.Of_codec.encode ~xid:1l
    (Sdn_openflow.Of_codec.Packet_in
       (Sdn_openflow.Of_packet_in.make ~buffer_id:7l ~in_port:1
          ~reason:Sdn_openflow.Of_packet_in.No_match ~frame:sample_frame
          ~miss_send_len:(Some 128)))

let sample_flow_mod =
  Sdn_openflow.Of_flow_mod.add
    ~match_:
      (Sdn_openflow.Of_match.of_flow_key
         (Option.get (Sdn_net.Packet.flow_key sample_packet)))
    ~actions:[ Sdn_openflow.Of_action.output 2 ]
    ()

(* A populated flow table for lookup benchmarks: [n] exact 5-tuple
   rules plus [wildcards] low-priority wildcarded rules (the default
   rules a reactive deployment carries), which force the slow path to
   run its linear scan. *)
(* Hoisted message values: the encode subjects measure the encoder,
   not per-call variant/record construction. *)
let sample_flow_mod_msg = Sdn_openflow.Of_codec.Flow_mod sample_flow_mod

let sample_pkt_in_full_msg =
  Sdn_openflow.Of_codec.Packet_in
    (Sdn_openflow.Of_packet_in.make ~buffer_id:Sdn_openflow.Of_wire.no_buffer
       ~in_port:1 ~reason:Sdn_openflow.Of_packet_in.No_match
       ~frame:sample_frame ~miss_send_len:None)

let sample_pkt_in_buffered_msg =
  Sdn_openflow.Of_codec.Packet_in
    (Sdn_openflow.Of_packet_in.make ~buffer_id:7l ~in_port:1
       ~reason:Sdn_openflow.Of_packet_in.No_match ~frame:sample_frame
       ~miss_send_len:(Some 128))

(* Exact 5-tuple rule number [i]: each rule has its own source
   address, so any number of them are pairwise distinct. *)
let exact_rule i =
  let key =
    Sdn_net.Flow_key.make ~proto:17
      ~src_ip:(Sdn_net.Ip.of_int32 (Int32.of_int (0x0A010000 + i)))
      ~dst_ip:ip2 ~src_port:(1000 + (i mod 16384)) ~dst_port:9
  in
  Sdn_switch.Flow_entry.of_flow_mod
    (Sdn_openflow.Of_flow_mod.add
       ~match_:(Sdn_openflow.Of_match.of_flow_key key)
       ~actions:[ Sdn_openflow.Of_action.output 2 ]
       ())
    ~now:0.0

let populated_table ?(wildcards = 0) n =
  let table = Sdn_switch.Flow_table.create ~capacity:(2 * (n + wildcards)) () in
  for i = 0 to n - 1 do
    ignore (Sdn_switch.Flow_table.insert table (exact_rule i))
  done;
  for i = 0 to wildcards - 1 do
    (* Distinct ingress ports no benchmark packet arrives on: scanned
       by every slow-path lookup, matched by none. *)
    let fm =
      Sdn_openflow.Of_flow_mod.add ~priority:0
        ~match_:
          { Sdn_openflow.Of_match.wildcard_all with
            Sdn_openflow.Of_match.in_port = Some (10_000 + i) }
        ~actions:[ Sdn_openflow.Of_action.output 3 ]
        ()
    in
    ignore
      (Sdn_switch.Flow_table.insert table
         (Sdn_switch.Flow_entry.of_flow_mod fm ~now:0.0))
  done;
  table

(* A packet that matches rule 0 of [populated_table]. *)
let hit_packet =
  Sdn_net.Packet.udp ~src_mac:mac1 ~dst_mac:mac2
    ~src_ip:(Sdn_net.Ip.of_int32 0x0A010000l) ~dst_ip:ip2 ~src_port:1000
    ~dst_port:9
    ~payload:(Bytes.of_string "x")
    ()

(* Element type for the raw heap benchmark (tracks its own slot for
   indexed removal, the way engine handles do). *)
type heap_slot = { v : int; mutable idx : int }

let micro_tests () =
  let open Sdn_net in
  let open Sdn_openflow in
  let table1000 = populated_table 1000 in
  [
    Test.make ~name:"packet/encode-1000B"
      (Staged.stage (fun () -> ignore (Packet.encode sample_packet)));
    Test.make ~name:"packet/decode-1000B"
      (Staged.stage (fun () -> ignore (Packet.decode sample_frame)));
    Test.make ~name:"packet/peek-headers"
      (Staged.stage (fun () -> ignore (Packet.peek_headers sample_frame)));
    Test.make ~name:"openflow/encode-pkt_in-no-buffer"
      (Staged.stage (fun () ->
           ignore
             (Of_codec.encode ~xid:1l
                (Of_codec.Packet_in
                   (Of_packet_in.make ~buffer_id:Of_wire.no_buffer ~in_port:1
                      ~reason:Of_packet_in.No_match ~frame:sample_frame
                      ~miss_send_len:None)))));
    Test.make ~name:"openflow/encode-pkt_in-buffered"
      (Staged.stage (fun () ->
           ignore
             (Of_codec.encode ~xid:1l
                (Of_codec.Packet_in
                   (Of_packet_in.make ~buffer_id:7l ~in_port:1
                      ~reason:Of_packet_in.No_match ~frame:sample_frame
                      ~miss_send_len:(Some 128))))));
    Test.make ~name:"openflow/decode-pkt_in-no-buffer"
      (Staged.stage (fun () -> ignore (Of_codec.decode sample_pkt_in_full)));
    Test.make ~name:"openflow/decode-pkt_in-buffered"
      (Staged.stage (fun () -> ignore (Of_codec.decode sample_pkt_in_buffered)));
    Test.make ~name:"openflow/encode-flow_mod"
      (Staged.stage (fun () ->
           ignore (Of_codec.encode ~xid:1l sample_flow_mod_msg)));
    Test.make ~name:"flow-table/lookup-hit-1000-rules"
      (Staged.stage (fun () ->
           ignore (Sdn_switch.Flow_table.lookup table1000 ~in_port:1 hit_packet)));
    Test.make ~name:"flow-table/lookup-miss-1000-rules"
      (Staged.stage
         (let miss_packet =
            Packet.udp ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:(Ip.make 192 168 0 1)
              ~dst_ip:ip2 ~src_port:1 ~dst_port:2 ~payload:Bytes.empty ()
          in
          fun () ->
            ignore (Sdn_switch.Flow_table.lookup table1000 ~in_port:1 miss_packet)));
    Test.make ~name:"buffer/packet-granularity-alloc-take"
      (Staged.stage
         (let engine = Sdn_sim.Engine.create () in
          let pool =
            Sdn_switch.Buffer_pool.create engine ~capacity:256 ~reclaim_lag:0.0
              ~resend_timeout:1e9 ~max_resends:0 ()
          in
          fun () ->
            match Sdn_switch.Buffer_pool.add pool ~in_port:1 sample_frame with
            | Sdn_switch.Buffer_pool.First id ->
                ignore (Sdn_switch.Buffer_pool.take pool id);
                (* Drain the engine so reclaim events do not pile up. *)
                Sdn_sim.Engine.run engine
            | Sdn_switch.Buffer_pool.Appended _ | Sdn_switch.Buffer_pool.No_space
              ->
                ()));
    Test.make ~name:"buf-policy/dt-admit-release"
      (Staged.stage
         (let engine = Sdn_sim.Engine.create () in
          let pool =
            Sdn_switch.Buf_policy.create
              ~kind:(Sdn_switch.Buf_policy.Dt { alpha = 2.0 })
              ~name:"bench" engine
          in
          let cls =
            Sdn_switch.Buf_policy.register pool ~name:"cls" ~quota:256
              ~priority:1
          in
          fun () ->
            if Sdn_switch.Buf_policy.admit cls then
              Sdn_switch.Buf_policy.release cls));
    Test.make ~name:"buf-policy/tdt-note_delay"
      (Staged.stage
         (let engine = Sdn_sim.Engine.create () in
          let pool =
            Sdn_switch.Buf_policy.create
              ~kind:
                (Sdn_switch.Buf_policy.Tdt
                   { alpha0 = 2.0; target_delay = 2e-3 })
              ~name:"bench" engine
          in
          let cls =
            Sdn_switch.Buf_policy.register pool ~name:"cls" ~quota:256
              ~priority:1
          in
          fun () -> Sdn_switch.Buf_policy.note_delay cls 1e-3));
    Test.make ~name:"buffer/flow-granularity-add-take_all"
      (Staged.stage
         (let engine = Sdn_sim.Engine.create () in
          let pool =
            Sdn_switch.Buffer_pool.create engine ~capacity:256 ~reclaim_lag:0.0
              ~resend_timeout:1e9 ~max_resends:0 ()
          in
          let key = Option.get (Sdn_net.Packet.flow_key sample_packet) in
          fun () ->
            match
              Sdn_switch.Buffer_pool.add pool ~key ~in_port:1 sample_frame
            with
            | Sdn_switch.Buffer_pool.First id ->
                ignore
                  (Sdn_switch.Buffer_pool.add pool ~key ~in_port:1 sample_frame);
                ignore (Sdn_switch.Buffer_pool.take pool id);
                Sdn_sim.Engine.run engine
            | Sdn_switch.Buffer_pool.Appended _ | Sdn_switch.Buffer_pool.No_space
              ->
                ()));
    Test.make ~name:"engine/schedule-run-event"
      (Staged.stage
         (let engine = Sdn_sim.Engine.create () in
          fun () ->
            ignore (Sdn_sim.Engine.schedule engine ~delay:1e-9 (fun () -> ()));
            ignore (Sdn_sim.Engine.step engine)));
    (* ---- Hot-path subjects: fast vs slow classification, the
       allocation-free codec, and O(log n) cancellation. ---- *)
    Test.make ~name:"flow-table/lookup-cached-1k-mixed"
      (Staged.stage
         (let table = populated_table ~wildcards:32 968 in
          fun () ->
            ignore (Sdn_switch.Flow_table.lookup table ~in_port:1 hit_packet)));
    Test.make ~name:"flow-table/lookup-uncached-1k-mixed"
      (Staged.stage
         (let table = populated_table ~wildcards:32 968 in
          let headers = Sdn_net.Packet.headers_of hit_packet in
          fun () ->
            ignore
              (Sdn_switch.Flow_table.lookup_uncached table ~in_port:1 headers)));
    Test.make ~name:"openflow/encode-pkt_in-no-buffer-scratch"
      (Staged.stage
         (let scratch = Sdn_openflow.Of_wire.Scratch.create () in
          fun () ->
            ignore
              (Of_codec.encode_scratch scratch ~xid:1l
                 sample_pkt_in_full_msg)));
    Test.make ~name:"openflow/encode-pkt_in-buffered-scratch"
      (Staged.stage
         (let scratch = Sdn_openflow.Of_wire.Scratch.create () in
          fun () ->
            ignore
              (Of_codec.encode_scratch scratch ~xid:1l
                 sample_pkt_in_buffered_msg)));
    Test.make ~name:"openflow/encode-flow_mod-scratch"
      (Staged.stage
         (let scratch = Sdn_openflow.Of_wire.Scratch.create () in
          fun () ->
            ignore
              (Of_codec.encode_scratch scratch ~xid:1l sample_flow_mod_msg)));
    Test.make ~name:"openflow/decode_sub-pkt_in-buffered"
      (Staged.stage (fun () ->
           ignore
             (Of_codec.decode_sub sample_pkt_in_buffered ~pos:0
                ~len:(Bytes.length sample_pkt_in_buffered))));
    Test.make ~name:"engine/schedule-cancel"
      (Staged.stage
         (let engine = Sdn_sim.Engine.create () in
          fun () ->
            Sdn_sim.Engine.cancel
              (Sdn_sim.Engine.schedule engine ~delay:1.0 (fun () -> ()))));
    Test.make ~name:"heap/push-remove-1k"
      (Staged.stage
         (let heap =
            Sdn_sim.Heap.create ~capacity:2048
              ~set_index:(fun s i -> s.idx <- i)
              ~cmp:(fun a b -> Int.compare a.v b.v)
              ()
          in
          for i = 0 to 1022 do
            Sdn_sim.Heap.push heap { v = 2 * i; idx = -1 }
          done;
          let probe = { v = 1001; idx = -1 } in
          fun () ->
            Sdn_sim.Heap.push heap probe;
            ignore (Sdn_sim.Heap.remove heap probe.idx)));
    (* A pop from a 30,000-deep heap and the push that refills it: the
       pop hands back the cell its push allocated and the sifts move
       cells, so the pair allocates exactly one 2-word cell. *)
    Test.make ~name:"heap/pop-push-30k"
      (Staged.stage
         (let heap = Sdn_sim.Heap.create ~cmp:Int.compare () in
          for i = 1 to 30_000 do
            Sdn_sim.Heap.push heap ((i * 7919) mod 30011)
          done;
          fun () ->
            match Sdn_sim.Heap.pop heap with
            | Some v -> Sdn_sim.Heap.push heap (v + 30011)
            | None -> ()));
    (* The datapath's per-frame classification: the header view of a
       1000-byte UDP frame, then a flow-table lookup answered by the
       microflow cache. Replaces a full decode (packet/decode-1000B). *)
    Test.make ~name:"packet/classify-1000B"
      (Staged.stage
         (let table = populated_table 1000 in
          fun () ->
            match Sdn_net.Packet.peek_headers sample_frame with
            | Ok headers ->
                ignore
                  (Sdn_switch.Flow_table.classify table ~in_port:1 headers)
            | Error _ -> ()));
    (* The analytical oracle's full evaluation for one operating point:
       the three-station Jackson solve, the feedback model, and the
       Erlang-B loss recursion at buffer-16. Pure closed-form float
       work — the gate pins its cost so the validation suite's
       prediction side stays negligible next to the simulator runs. *)
    Test.make ~name:"model/oracle-eval-point"
      (Staged.stage
         (let kernel =
            { Sdn_model.Jackson.name = "kernel"; service = 2e-6; servers = 1 }
          in
          let userspace =
            { Sdn_model.Jackson.name = "userspace"; service = 8e-6; servers = 1 }
          in
          let controller =
            {
              Sdn_model.Jackson.name = "controller";
              service = 250e-6;
              servers = 2;
            }
          in
          let params =
            {
              Sdn_model.Feedback.lambda = 2000.0;
              packet_in_prob = 0.5;
              switch_service = 10e-6;
              switch_servers = 1;
              controller_service = 250e-6;
              controller_servers = 2;
              loop_delay = 400e-6;
            }
          in
          fun () ->
            let net =
              Sdn_model.Jackson.solve ~arrival_rate:2000.0
                [ (kernel, 4.0); (userspace, 3.0); (controller, 1.0) ]
            in
            let fb = Sdn_model.Feedback.eval params in
            let b = Sdn_model.Mm1.erlang_b ~servers:16 ~offered_load:8.0 in
            ignore (Sdn_model.Jackson.response_time net);
            ignore fb.Sdn_model.Feedback.sojourn;
            ignore b));
    (* ---- Crash–restart subjects: what a cold restart costs. The
       wipe/rebuild cycle is the switch-side snapshot loss (buffered
       packets expired, flow entries cleared, then state re-grown);
       the stats round-trip is the reconciliation audit's wire work
       (one wildcard FLOW reply carrying the switch's table). ---- *)
    Test.make ~name:"crash/cold-wipe-restore-16"
      (Staged.stage
         (let engine = Sdn_sim.Engine.create () in
          let pool =
            Sdn_switch.Buffer_pool.create engine ~capacity:32 ~reclaim_lag:0.0
              ~resend_timeout:1e9 ~max_resends:0 ()
          in
          let table = Sdn_switch.Flow_table.create ~capacity:64 () in
          let mods =
            List.init 16 (fun i ->
                let key =
                  Sdn_net.Flow_key.make ~proto:17
                    ~src_ip:
                      (Sdn_net.Ip.of_int32 (Int32.of_int (0x0A020000 + i)))
                    ~dst_ip:ip2 ~src_port:(2000 + i) ~dst_port:9
                in
                Sdn_openflow.Of_flow_mod.add
                  ~match_:(Sdn_openflow.Of_match.of_flow_key key)
                  ~actions:[ Sdn_openflow.Of_action.output 2 ]
                  ())
          in
          fun () ->
            List.iter
              (fun fm ->
                ignore
                  (Sdn_switch.Buffer_pool.add pool ~in_port:1 sample_frame);
                ignore
                  (Sdn_switch.Flow_table.insert table
                     (Sdn_switch.Flow_entry.of_flow_mod fm ~now:0.0)))
              mods;
            ignore (Sdn_switch.Buffer_pool.wipe pool);
            ignore (Sdn_switch.Flow_table.clear table)));
    Test.make ~name:"crash/reconcile-flow-stats-64"
      (Staged.stage
         (let stats =
            List.init 64 (fun i ->
                let key =
                  Sdn_net.Flow_key.make ~proto:17
                    ~src_ip:
                      (Sdn_net.Ip.of_int32 (Int32.of_int (0x0A030000 + i)))
                    ~dst_ip:ip2 ~src_port:(3000 + i) ~dst_port:9
                in
                {
                  Sdn_openflow.Of_stats.table_id = 0;
                  match_ = Sdn_openflow.Of_match.of_flow_key key;
                  duration_sec = 1l;
                  duration_nsec = 0l;
                  priority = 32768;
                  idle_timeout = 0;
                  hard_timeout = 0;
                  cookie = 0L;
                  packet_count = 10L;
                  byte_count = 10_000L;
                  actions = [ Sdn_openflow.Of_action.output 2 ];
                })
          in
          let reply =
            Sdn_openflow.Of_codec.Stats_reply
              (Sdn_openflow.Of_stats.Flow_reply stats)
          in
          fun () ->
            ignore
              (Sdn_openflow.Of_codec.decode
                 (Sdn_openflow.Of_codec.encode ~xid:1l reply))));
  ]

(* Bechamel's stock [Instance.minor_allocated] reads
   [(Gc.quick_stat ()).minor_words], which on OCaml 5.1 only advances
   at minor collections — sample windows short enough to fit in the
   young heap read an exact zero.  The dedicated [Gc.minor_words]
   primitive includes in-flight young-heap allocation, so register our
   own measure on top of it. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "mnw"
end

let minor_words =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

let bench_raw ~instances =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let tests = Test.make_grouped ~name:"micro" (micro_tests ()) in
  Benchmark.all cfg instances tests

let analyze raw instance =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  Analyze.all ols instance raw

(* Per-subject per-run OLS estimates, name-sorted for determinism. *)
let collect_estimates results =
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (e :: _) -> (name, e) :: acc
      | Some [] | None -> acc)
    results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let run_micro () =
  print_endline "== Micro-benchmarks (Bechamel, ns/run) ==";
  let raw = bench_raw ~instances:Instance.[ monotonic_clock ] in
  let results = analyze raw Instance.monotonic_clock in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> Printf.sprintf "%12.1f" e
        | Some [] | None -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "n/a"
      in
      rows := (name, estimate, r2) :: !rows)
    results;
  let rows =
    List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !rows
  in
  Printf.printf "%-50s %14s %8s\n" "benchmark" "ns/run" "r^2";
  List.iter
    (fun (name, est, r2) -> Printf.printf "%-50s %14s %8s\n" name est r2)
    rows;
  print_newline ()

(* ---- Sweep throughput: the macro subject behind [--jobs]. ----

   A deliberately small Exp-A grid (4 rates x 2 reps = 8 independent
   replications, 60 flows each) run to completion at jobs = 1, 2 and
   4.  Bechamel's per-run OLS model fits ns-scale subjects, not a
   multi-millisecond macro job, so whole sweeps are timed directly
   against the monotonic clock, best of three after a warm-up.  The
   derived speedups are the portable metrics: absolute wall-clock
   cancels out of the ratio, leaving the Task_pool scaling factor.
   On a single-core host the ratio sits below 1 (extra domains only
   add stop-the-world minor-GC synchronisation); on a multi-core CI
   runner it must not regress below the recorded baseline. *)

let sweep_config ~rate_mbps ~seed =
  {
    (Sdn_core.Config.exp_a ~mechanism:Sdn_core.Config.Packet_granularity
       ~buffer_capacity:256 ~rate_mbps ~seed)
    with
    Sdn_core.Config.workload = Sdn_core.Config.Exp_a { n_flows = 60 };
  }

let time_sweep ~jobs =
  let run () =
    ignore
      (Sdn_core.Sweep.run ~label:"bench-sweep"
         ~rates:[ 20.0; 40.0; 60.0; 80.0 ] ~reps:2 ~jobs sweep_config)
  in
  run ();
  let now () = Monotonic_clock.get () in
  let best = ref Float.infinity in
  for _ = 1 to 3 do
    let t0 = now () in
    run ();
    let dt = now () -. t0 in
    if Float.compare dt !best < 0 then best := dt
  done;
  !best

let sweep_metrics () =
  let timings = List.map (fun jobs -> (jobs, time_sweep ~jobs)) [ 1; 2; 4 ] in
  let absolute =
    List.map
      (fun (jobs, ns) -> (Printf.sprintf "sweep/exp_a-small/jobs%d/ns" jobs, ns))
      timings
  in
  let t1 = List.assoc 1 timings in
  let speedups =
    List.filter_map
      (fun (jobs, ns) ->
        if jobs = 1 || Float.compare ns 1e-9 <= 0 then None
        else
          Some (Printf.sprintf "derived/sweep_speedup_jobs%d" jobs, t1 /. ns))
      timings
  in
  (absolute, speedups)

(* ---- Flow-table install scaling: ns per insert while filling an empty
   table with 4000 distinct exact rules, over the same at 1000, both
   timed in this process so the host cancels out of the ratio.  Linear
   install cost keeps it near 1; a whole-table scan per insert makes it
   about 4.  Lower is better (the name has no "speedup"). *)
let insert_scaling_metrics () =
  let ns_per_insert n =
    let rules = Array.init n exact_rule in
    let fill () =
      let table = Sdn_switch.Flow_table.create ~capacity:n () in
      Array.iter (fun r -> ignore (Sdn_switch.Flow_table.insert table r)) rules
    in
    fill ();
    let best = ref Float.infinity in
    for _ = 1 to 10 do
      (* Start each fill from a collected heap: otherwise major-GC
         slices owed by earlier allocation land inside the timing. *)
      Gc.full_major ();
      let t0 = Monotonic_clock.get () in
      fill ();
      let dt = Monotonic_clock.get () -. t0 in
      if Float.compare dt !best < 0 then best := dt
    done;
    !best /. float_of_int n
  in
  let small = ns_per_insert 1000 in
  let large = ns_per_insert 4000 in
  [ ("derived/flow_table_insert_scaling_4x", large /. small) ]

(* ---- The massive scenario, scaled down to bench size: the sharded
   full pipeline.  The ns rate is informational (host-dependent); the
   event count is deterministic. *)
let massive_metrics () =
  let t0 = Monotonic_clock.get () in
  let pl = Sdn_core.Massive.run_pipeline ~flows:20_000 ~shards:4 () in
  let pl_ns = Monotonic_clock.get () -. t0 in
  [
    ("massive/pipeline-small/ns-per-event",
     pl_ns /. float_of_int pl.Sdn_core.Massive.pl_sim_events);
    ("massive/pipeline-small/sim-events",
     float_of_int pl.Sdn_core.Massive.pl_sim_events);
  ]

(* ---- Machine-readable benchmark snapshot (the regression gate's
   input): every subject's ns/run and minor-words/run, plus derived
   higher-is-better ratios that are stable across machines. ---- *)

let find_metric metrics suffix =
  List.find_map
    (fun (name, v) ->
      let ls = String.length suffix and ln = String.length name in
      if ln >= ls && String.equal (String.sub name (ln - ls) ls) suffix then
        Some v
      else None)
    metrics

let run_json path =
  let raw = bench_raw ~instances:[ Instance.monotonic_clock; minor_words ] in
  let ns = collect_estimates (analyze raw Instance.monotonic_clock) in
  let words = collect_estimates (analyze raw minor_words) in
  let ratio num den =
    match (num, den) with
    | Some a, Some b when Float.compare b 1e-9 > 0 -> Some (a /. b)
    | Some _, Some _ | Some _, None | None, Some _ | None, None -> None
  in
  let derived =
    (* How much faster the microflow fast path answers a warm lookup
       than the full classification on a 1k-entry table. *)
    match
      ratio
        (find_metric ns "flow-table/lookup-uncached-1k-mixed")
        (find_metric ns "flow-table/lookup-cached-1k-mixed")
    with
    | Some v -> [ ("derived/flow_table_cache_speedup", v) ]
    | None -> []
  in
  let sweep_absolute, sweep_speedups = sweep_metrics () in
  let massive = massive_metrics () in
  let insert_scaling = insert_scaling_metrics () in
  let metrics =
    List.map (fun (n, v) -> (n ^ "/ns", v)) ns
    @ List.map (fun (n, v) -> (n ^ "/minor-words", v)) words
    @ sweep_absolute @ derived @ sweep_speedups @ massive
    @ insert_scaling
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\n  \"schema\": \"sdn-buffer-bench/1\",\n";
      Printf.fprintf oc "  \"metrics\": {\n";
      let n = List.length metrics in
      List.iteri
        (fun i (name, v) ->
          Printf.fprintf oc "    \"%s\": %.6g%s\n" name v
            (if i = n - 1 then "" else ","))
        metrics;
      Printf.fprintf oc "  }\n}\n");
  List.iter
    (fun (name, v) -> Printf.printf "%-60s %14.3f\n" name v)
    (derived @ sweep_speedups @ massive @ insert_scaling);
  Printf.printf "wrote %d metrics to %s\n" (List.length metrics) path

(* ---- Figure harness ---- *)

let run_figures ?reps () = Sdn_core.Figures.run_all ?reps ()

let run_one_figure id ?reps () =
  match List.assoc_opt id Sdn_core.Figures.exp_a_figures with
  | Some f -> f (Sdn_core.Figures.run_exp_a ?reps ())
  | None -> (
      match List.assoc_opt id Sdn_core.Figures.exp_b_figures with
      | Some f -> f (Sdn_core.Figures.run_exp_b ?reps ())
      | None -> Printf.eprintf "unknown figure %S\n" id)

let () =
  let args = Array.to_list Sys.argv in
  match args with
  | [ _ ] | [ _; "all" ] ->
      run_micro ();
      run_figures ();
      Sdn_core.Ablations.run_all ()
  | [ _; "micro" ] -> run_micro ()
  | [ _; "json" ] -> run_json "BENCH_pr12.json"
  | [ _; "json"; path ] -> run_json path
  | [ _; "ablations" ] -> Sdn_core.Ablations.run_all ()
  | [ _; "figures" ] -> run_figures ()
  | [ _; "figures"; reps ] -> run_figures ~reps:(int_of_string reps) ()
  | [ _; id ] -> run_one_figure id ()
  | [ _; id; reps ] -> run_one_figure id ~reps:(int_of_string reps) ()
  | _ ->
      prerr_endline
        "usage: main.exe [all|micro|figures [reps]|figN [reps]|ablations|json \
         [path]]";
      exit 2
