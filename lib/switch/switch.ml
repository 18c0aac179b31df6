open Sdn_sim
open Sdn_net
open Sdn_openflow

type mechanism = No_buffer | Packet_granularity | Flow_granularity

let mechanism_to_string = function
  | No_buffer -> "no-buffer"
  | Packet_granularity -> "packet-granularity"
  | Flow_granularity -> "flow-granularity"

type config = {
  datapath_id : int64;
  mechanism : mechanism;
  buffer_capacity : int;
  miss_send_len : int;
  buffer_expiry : float;
  reclaim_lag : float;
  resend_timeout : float;
  resend_multiplier : float;
  resend_cap : float;
  resend_jitter : float;
  max_resends : int;
  flow_table_capacity : int;
  flow_table_eviction : bool;
  table_sweep_interval : float;
  echo_interval : float;
  echo_misses : int;
  fail_mode : Session.fail_mode;
  overload_watermark : float;
  buf_policy : Buf_policy.kind option;
  shared_headroom : int;
}

let default_config =
  {
    datapath_id = 0x00_00_00_00_00_00_00_01L;
    mechanism = Packet_granularity;
    buffer_capacity = 256;
    miss_send_len = Of_packet_in.default_miss_send_len;
    buffer_expiry = 1.0;
    reclaim_lag = 3.2e-3;
    resend_timeout = 50e-3;
    (* Exponential backoff with mild jitter: 50, ~100, ~200 ms. The
       paper's fixed period is multiplier 1 / cap = timeout. *)
    resend_multiplier = 2.0;
    resend_cap = 400e-3;
    resend_jitter = 0.1;
    max_resends = 3;
    flow_table_capacity = 2048;
    flow_table_eviction = true;
    table_sweep_interval = 1.0;
    (* Echo keepalive is opt-in: interval 0 keeps the control channel
       byte-identical to the pre-session behaviour. *)
    echo_interval = 0.0;
    echo_misses = 3;
    fail_mode = Session.Fail_secure;
    (* 1.0 disables the admission guard: the pool only sheds at true
       exhaustion, exactly the pre-guard behaviour. *)
    overload_watermark = 1.0;
    (* No shared-buffer policy: the pools keep their private static
       partitions and every run stays byte-identical to before the
       policy layer existed. *)
    buf_policy = None;
    shared_headroom = 0;
  }

type counters = {
  mutable frames_received : int;
  mutable frames_forwarded : int;
  mutable frames_dropped : int;
  mutable table_misses : int;
  mutable pkt_ins_sent : int;
  mutable pkt_in_resends : int;
  mutable full_packet_fallbacks : int;
  mutable pkt_outs_handled : int;
  mutable flow_mods_handled : int;
  mutable errors_sent : int;
  mutable errors_received : int;
  mutable decode_failures : int;
  mutable decode_truncated : int;
  mutable decode_bad_version : int;
  mutable decode_bad_type : int;
  mutable standalone_frames : int;
  mutable fail_secure_drops : int;
  mutable crashes : int;
  mutable crash_lost_frames : int;
  mutable crash_lost_messages : int;
  mutable crash_wiped_packets : int;
  mutable overload_sheds : int;
}

type t = {
  engine : Engine.t;
  config : config;
  costs : Costs.t;
  check : Sdn_check.Check.t option;
  (* Per-switch prefix for checker pool / session names, so ledgers of
     different datapaths never collide in multi-switch topologies. *)
  name : string;
  resend_rng : Rng.t;
  mutable mechanism : mechanism;
  mutable miss_send_len : int;
  kernel : Cpu.t;
  userspace : Cpu.t;
  bus : (unit -> unit) Link.t option ref;
  table : Flow_table.t;
  mutable pkt_pool : Buffer_pool.t option;
  mutable flow_pool : Buffer_pool.t option;
  mutable shared_pool : Buf_policy.t option;
  ports : (int, Bytes.t Link.t) Hashtbl.t;
  port_schedulers : (int, Egress_queue.t) Hashtbl.t;
  down_ports : (int, unit) Hashtbl.t;
  mutable controller_link : Bytes.t Link.t option;
  mutable next_xid : int32;
  mutable session : Session.t option;
  (* MAC -> port map learned only while fail-standalone forwarding is
     active; reset at each outage so stale locations don't survive. *)
  standalone_table : (Mac.t, int) Hashtbl.t;
  c : counters;  (* live; [counters] hands out copies *)
  (* Crash–restart fault injection: while [dead] the datapath neither
     forwards nor speaks OpenFlow; everything arriving is lost. *)
  mutable dead : bool;
}

let the_session t =
  match t.session with
  | Some s -> s
  | None -> invalid_arg "Switch: session not initialised"

let fresh_xid t =
  let xid = t.next_xid in
  t.next_xid <-
    (if Int32.equal t.next_xid Int32.max_int then 1l else Int32.add t.next_xid 1l);
  xid

let shared_pool_name t = t.name ^ "/shared"

(* The switch-wide shared buffer pool, created on first demand when a
   sharing policy is configured. The packet-buffer pool and every
   port scheduler's classes all draw on it. *)
let ensure_shared_pool t =
  match t.config.buf_policy with
  | None -> None
  | Some kind -> (
      match t.shared_pool with
      | Some _ as pool -> pool
      | None ->
          let pool =
            Buf_policy.create ?check:t.check
              ~headroom:t.config.shared_headroom ~kind
              ~name:(shared_pool_name t) t.engine
          in
          t.shared_pool <- Some pool;
          Some pool)

(* Report a PACKET_IN emission decision to the invariant checker. Noted
   at the decision point (miss handler / resend timer), not at the
   asynchronous send, so expiry racing bus and CPU delays cannot
   produce false violations. *)
let note_pkt_in t ~pool ~id ~resend =
  match t.check with
  | Some check ->
      Sdn_check.Check.note_packet_in check ~time:(Engine.now t.engine) ~pool
        ~id ~resend
  | None -> ()

(* The pool serving the current mechanism, once created. *)
let active_pool t =
  match t.mechanism with
  | Flow_granularity -> t.flow_pool
  | Packet_granularity | No_buffer -> t.pkt_pool

let make_pkt_pool t =
  let policy =
    match ensure_shared_pool t with
    | None -> None
    | Some pool ->
        Some
          (Buf_policy.register pool ~name:"ingress"
             ~quota:t.config.buffer_capacity ~priority:0)
  in
  (* Under a sharing policy the physical slot array carries headroom
     beyond the static quota — the policy, not the array, is the
     admission limit. Static (and no policy) keeps the exact legacy
     geometry. *)
  let capacity =
    match t.config.buf_policy with
    | None | Some Buf_policy.Static -> t.config.buffer_capacity
    | Some _ ->
        Int.min 0xFFFF (t.config.buffer_capacity + t.config.shared_headroom)
  in
  (* A packet-granularity unit is a one-frame chain whose timer fires
     once, at expiry, and drops it. *)
  Buffer_pool.create t.engine ?check:t.check ?policy
    ~pool_name:(t.name ^ "/pkt_pool") ~capacity
    ~reclaim_lag:t.config.reclaim_lag ~resend_timeout:t.config.buffer_expiry
    ~max_resends:0 ()

(* The flow pool's resend callback needs the switch, so it is created
   lazily once [t] exists. *)
let rec ensure_flow_pool t =
  match t.flow_pool with
  | Some pool -> pool
  | None ->
      let pool_name = t.name ^ "/flow_pool" in
      let pool =
        Buffer_pool.create t.engine ?check:t.check ~pool_name
          ~capacity:t.config.buffer_capacity
          ~reclaim_lag:t.config.reclaim_lag
          ~resend_timeout:t.config.resend_timeout
          ~resend_multiplier:t.config.resend_multiplier
          ~resend_cap:t.config.resend_cap
          ~resend_jitter:t.config.resend_jitter ~rng:t.resend_rng
          ~max_resends:t.config.max_resends
          ~on_resend:(fun ~buffer_id ~in_port ~first_frame ->
            t.c.pkt_in_resends <- t.c.pkt_in_resends + 1;
            note_pkt_in t ~pool:pool_name ~id:buffer_id ~resend:true;
            (* The repeated request retraces the miss path: bus, then
               userspace, then the control link (Algorithm 1 line 13). *)
            send_pkt_in t ~buffer_id ~frame:first_frame ~in_port
              ~truncate:(Some t.miss_send_len) ~extra_cost:0.0)
          ()
      in
      t.flow_pool <- Some pool;
      pool

and ensure_pkt_pool t =
  match t.pkt_pool with
  | Some pool -> pool
  | None ->
      let pool = make_pkt_pool t in
      t.pkt_pool <- Some pool;
      pool

(* Transfer [bytes] across the half-duplex ASIC<->CPU bus, then run
   [k]. The bus is the contended resource behind the paper's Fig. 7. *)
and bus_transfer t ~bytes k =
  match !(t.bus) with
  | Some bus -> Link.send bus ~size:(bytes + t.costs.Costs.bus_descriptor_bytes) k
  | None -> k ()

and send_to_controller ?xid ?fresh t msg =
  if t.dead then ()
    (* In-flight work completing while the process is down emits
       nothing; the message evaporates with the process. *)
  else
  match t.controller_link with
  | Some link ->
      (* Replies echo the request's transaction id, per the OpenFlow
         specification; switch-initiated messages get fresh ids. *)
      let fresh =
        match fresh with Some f -> f | None -> Option.is_none xid
      in
      let xid = match xid with Some x -> x | None -> fresh_xid t in
      let encoded = Of_codec.encode ~xid msg in
      (match t.check with
      | Some check ->
          Sdn_check.Check.note_emit check ~time:(Engine.now t.engine)
            ~session:t.name ~fresh ~xid ~msg ~encoded
      | None -> ());
      Link.send link ~size:(Bytes.length encoded) encoded
  | None -> ()

(* Generate a PACKET_IN: bus crossing (carrying [truncate] bytes of the
   frame, or all of it), then userspace processing, then the control
   link. *)
and send_pkt_in t ~buffer_id ~frame ~in_port ~truncate ~extra_cost =
  let carried =
    match truncate with
    | None -> Bytes.length frame
    | Some n -> min n (Bytes.length frame)
  in
  bus_transfer t ~bytes:carried (fun () ->
      let work =
        t.costs.Costs.upcall_base_cost
        +. (t.costs.Costs.upcall_per_byte *. float_of_int carried)
        +. extra_cost
      in
      Cpu.submit t.userspace ~work_s:work (fun () ->
          let pkt_in =
            Of_packet_in.make ~buffer_id ~in_port
              ~reason:Of_packet_in.No_match ~frame
              ~miss_send_len:truncate
          in
          t.c.pkt_ins_sent <- t.c.pkt_ins_sent + 1;
          send_to_controller t (Of_codec.Packet_in pkt_in)))

let forward_frame t ~port ~queue_id frame =
  if t.dead then begin
    t.c.frames_dropped <- t.c.frames_dropped + 1;
    t.c.crash_lost_frames <- t.c.crash_lost_frames + 1
  end
  else if Hashtbl.mem t.down_ports port then
    t.c.frames_dropped <- t.c.frames_dropped + 1
  else
  match Hashtbl.find_opt t.port_schedulers port with
  | Some scheduler ->
      t.c.frames_forwarded <- t.c.frames_forwarded + 1;
      Egress_queue.send scheduler ~queue_id frame
  | None -> (
      match Hashtbl.find_opt t.ports port with
      | Some link ->
          t.c.frames_forwarded <- t.c.frames_forwarded + 1;
          Link.send link ~size:(Bytes.length frame) frame
      | None -> t.c.frames_dropped <- t.c.frames_dropped + 1)

let resolve_outputs t ~in_port outputs =
  let all_but_ingress queue_id =
    (* Flood replication order must not depend on hash-table iteration:
       ascending port number. *)
    Hashtbl.fold
      (fun p _ acc ->
        if p = in_port || Hashtbl.mem t.down_ports p then acc
        else { Of_action.out_port = p; queue_id } :: acc)
      t.ports []
    |> List.sort (fun (a : Of_action.output_spec) b ->
           Int.compare a.Of_action.out_port b.Of_action.out_port)
  in
  List.concat_map
    (fun (o : Of_action.output_spec) ->
      let p = o.Of_action.out_port in
      if p = Of_wire.Port.flood || p = Of_wire.Port.all then
        all_but_ingress o.Of_action.queue_id
      else if p = Of_wire.Port.in_port then
        [ { o with Of_action.out_port = in_port } ]
      else if p = Of_wire.Port.controller || p = Of_wire.Port.none then []
      else [ o ])
    outputs

(* Resolve [outputs] against the ports, then either drop the frame (no
   port left) or run one kernel forwarding job that sends it to every
   output. *)
let forward_to_outputs t ~in_port outputs frame =
  match resolve_outputs t ~in_port outputs with
  | [] -> t.c.frames_dropped <- t.c.frames_dropped + 1
  | outputs ->
      Cpu.submit t.kernel ~work_s:t.costs.Costs.kernel_fwd_cost (fun () ->
          List.iter
            (fun (o : Of_action.output_spec) ->
              forward_frame t ~port:o.Of_action.out_port
                ~queue_id:o.Of_action.queue_id frame)
            outputs)

(* Forward [frame] per [actions]. Classification never decodes; a
   structured packet is built only when an action rewrites a header,
   and the frame is re-encoded only if a rewrite changed it. *)
let egress t ~in_port ~actions frame =
  let outputs = Of_action.outputs actions in
  if not (List.exists Of_action.rewrites_header actions) then
    forward_to_outputs t ~in_port outputs frame
  else begin
    match Packet.decode frame with
    | Error _ ->
        t.c.decode_failures <- t.c.decode_failures + 1;
        t.c.frames_dropped <- t.c.frames_dropped + 1
    | Ok pkt ->
        let rewritten = Of_action.apply actions pkt in
        forward_to_outputs t ~in_port outputs
          (if rewritten == pkt then frame else Packet.encode rewritten)
  end

(* ---- Miss handling, per mechanism ---- *)

let miss_no_buffer t ~in_port frame =
  t.c.full_packet_fallbacks <- t.c.full_packet_fallbacks + 1;
  send_pkt_in t ~buffer_id:Of_wire.no_buffer ~frame ~in_port ~truncate:None
    ~extra_cost:0.0

(* Admission control: past the high watermark the switch sheds {e new}
   work instead of letting it crowd the pool — in-flight chains keep
   their units and their controller round-trips; fresh arrivals are
   dropped with a typed reason. Watermark 1.0 (the default) disables
   the guard entirely. *)
let overload_guard_active t ~in_use ~capacity =
  t.config.overload_watermark < 1.0
  && float_of_int in_use
     >= t.config.overload_watermark *. float_of_int capacity

let shed_overload t =
  t.c.overload_sheds <- t.c.overload_sheds + 1;
  t.c.frames_dropped <- t.c.frames_dropped + 1

let miss_packet_granularity t ~in_port frame =
  let pool = ensure_pkt_pool t in
  if
    overload_guard_active t ~in_use:(Buffer_pool.units_in_use pool)
      ~capacity:(Buffer_pool.capacity pool)
  then shed_overload t
  else
  match Buffer_pool.add pool ~in_port frame with
  | Buffer_pool.No_space -> miss_no_buffer t ~in_port frame
  | Buffer_pool.First buffer_id | Buffer_pool.Appended buffer_id ->
      note_pkt_in t ~pool:(Buffer_pool.name pool) ~id:buffer_id ~resend:false;
      send_pkt_in t ~buffer_id ~frame ~in_port
        ~truncate:(Some t.miss_send_len)
        ~extra_cost:t.costs.Costs.buffer_alloc_cost

let miss_flow_granularity t ~in_port headers frame =
  match Packet.flow_key_of_headers headers with
  | None ->
      (* Non-flow traffic (e.g. ARP) cannot share a buffer unit; it is
         handled like an unbuffered miss. *)
      miss_no_buffer t ~in_port frame
  | Some key -> (
      let pool = ensure_flow_pool t in
      if
        overload_guard_active t ~in_use:(Buffer_pool.units_in_use pool)
          ~capacity:(Buffer_pool.capacity pool)
        (* Appends ride an existing unit: admitting them favours
           completing in-flight chains over starting new ones. *)
        && not (Buffer_pool.has_chain pool ~key)
      then shed_overload t
      else
      match Buffer_pool.add pool ~key ~in_port frame with
      | Buffer_pool.No_space -> miss_no_buffer t ~in_port frame
      | Buffer_pool.First buffer_id ->
          note_pkt_in t ~pool:(Buffer_pool.name pool) ~id:buffer_id
            ~resend:false;
          send_pkt_in t ~buffer_id ~frame ~in_port
            ~truncate:(Some t.miss_send_len)
            ~extra_cost:t.costs.Costs.flow_buffer_first_cost
      | Buffer_pool.Appended _ ->
          (* Algorithm 1 line 11: buffered silently, but the chaining
             work still occupies the datapath CPU, which is what delays
             PACKET_IN generation in the paper's Fig. 12(a). *)
          Cpu.submit t.kernel ~work_s:t.costs.Costs.flow_buffer_append_cost
            (fun () -> ()))

(* ---- Degraded miss handling while the controller session is down ---- *)

(* Fail-standalone (OpenFlow 1.0 §6.4): the switch keeps the data plane
   alive on its own with an internal L2 learning path — learn the source
   location, forward to the learned destination port or flood. Installed
   rules keep matching in the fast path; only misses come through here. *)
let miss_standalone t ~in_port headers frame =
  t.c.standalone_frames <- t.c.standalone_frames + 1;
  let eth = headers.Packet.h_eth in
  Hashtbl.replace t.standalone_table eth.Ethernet.src in_port;
  let outputs =
    if Mac.is_broadcast eth.Ethernet.dst then
      [ { Of_action.out_port = Of_wire.Port.flood; queue_id = None } ]
    else begin
      match Hashtbl.find_opt t.standalone_table eth.Ethernet.dst with
      | Some p when p <> in_port ->
          [ { Of_action.out_port = p; queue_id = None } ]
      | Some _ -> []
      | None -> [ { Of_action.out_port = Of_wire.Port.flood; queue_id = None } ]
    end
  in
  forward_to_outputs t ~in_port outputs frame

(* Fail-secure (OpenFlow 1.0 §6.4): never forward without controller
   authorization. Flow-granularity chains keep absorbing miss-match
   packets into the (frozen) pool so nothing already accepted is lost;
   everything else is dropped until the session recovers. *)
let miss_fail_secure t ~in_port headers frame =
  let drop () =
    t.c.fail_secure_drops <- t.c.fail_secure_drops + 1;
    t.c.frames_dropped <- t.c.frames_dropped + 1
  in
  match t.mechanism with
  | Flow_granularity -> (
      match Packet.flow_key_of_headers headers with
      | None -> drop ()
      | Some key -> (
          let pool = ensure_flow_pool t in
          if not (Buffer_pool.is_frozen pool) then Buffer_pool.freeze pool;
          match Buffer_pool.add pool ~key ~in_port frame with
          | Buffer_pool.No_space -> drop ()
          | Buffer_pool.First _ | Buffer_pool.Appended _ -> ()))
  | Packet_granularity | No_buffer -> drop ()

let handle_miss t ~in_port headers frame =
  t.c.table_misses <- t.c.table_misses + 1;
  if Session.is_down (the_session t) then
    (* Controller unreachable: degrade per the configured fail mode
       instead of emitting PACKET_INs into a dead channel. *)
    Cpu.submit t.kernel ~work_s:t.costs.Costs.kernel_upcall_cost (fun () ->
        match t.config.fail_mode with
        | Session.Fail_standalone -> miss_standalone t ~in_port headers frame
        | Session.Fail_secure -> miss_fail_secure t ~in_port headers frame)
  else
    (* The kernel side of the upcall (packet copy out of the datapath)
       runs before the transfer crosses the bus. *)
    Cpu.submit t.kernel ~work_s:t.costs.Costs.kernel_upcall_cost (fun () ->
        match t.mechanism with
        | No_buffer -> miss_no_buffer t ~in_port frame
        | Packet_granularity -> miss_packet_granularity t ~in_port frame
        | Flow_granularity -> miss_flow_granularity t ~in_port headers frame)

let handle_frame t ~in_port frame =
  t.c.frames_received <- t.c.frames_received + 1;
  if t.dead then begin
    (* A crashed datapath is a black hole: the frame is counted in and
       immediately lost, with no CPU work burned. *)
    t.c.frames_dropped <- t.c.frames_dropped + 1;
    t.c.crash_lost_frames <- t.c.crash_lost_frames + 1
  end
  else
  Cpu.submit t.kernel ~work_s:t.costs.Costs.kernel_rx_cost (fun () ->
      match Packet.peek_headers frame with
      | Error _ ->
          t.c.decode_failures <- t.c.decode_failures + 1;
          t.c.frames_dropped <- t.c.frames_dropped + 1
      | Ok headers -> (
          match Flow_table.classify t.table ~in_port headers with
          | Some entry ->
              Flow_entry.touch entry ~now:(Engine.now t.engine)
                ~bytes:(Bytes.length frame);
              egress t ~in_port ~actions:entry.Flow_entry.actions frame
          | None -> handle_miss t ~in_port headers frame))

(* ---- Controller-to-switch message handling ---- *)

let send_error ?xid t ~error_type ~code ~offending =
  t.c.errors_sent <- t.c.errors_sent + 1;
  let data = Bytes.sub offending 0 (min 64 (Bytes.length offending)) in
  send_to_controller ?xid t
    (Of_codec.Error_msg (Of_error.make ~error_type ~code ~data ()))

(* Release buffered frames to the datapath (Algorithm 2 lines 4-10):
   one descriptor-sized bus crossing, then one kernel job per frame, in
   chain order. A packet-granularity release is a chain of one. The
   header view is the validity gate here, as in [handle_frame]: a frame
   that does not parse is counted, not forwarded. *)
let release_chain t ~actions frames =
  bus_transfer t ~bytes:0 (fun () ->
      let rec forward_next = function
        | [] -> ()
        | frame :: rest ->
            Cpu.submit t.kernel
              ~work_s:t.costs.Costs.release_per_packet_cost (fun () ->
                (match Packet.peek_headers frame with
                | Error _ -> t.c.decode_failures <- t.c.decode_failures + 1
                | Ok _ -> egress t ~in_port:0 ~actions frame);
                forward_next rest)
      in
      forward_next frames)

let apply_buffer_release t ~buffer_id ~actions ~offending =
  if Int32.equal buffer_id Of_wire.no_buffer then ()
  else begin
    let fail code =
      send_error t ~error_type:Of_error.Bad_request ~code ~offending
    in
    match active_pool t with
    | None -> fail Of_error.Bad_request_code.buffer_empty
    | Some pool -> (
        match Buffer_pool.take pool buffer_id with
        | Buffer_pool.Taken frames -> release_chain t ~actions frames
        | Buffer_pool.Unknown_id -> fail Of_error.Bad_request_code.buffer_unknown)
  end

let handle_flow_mod t (fm : Of_flow_mod.t) ~offending =
  t.c.flow_mods_handled <- t.c.flow_mods_handled + 1;
  let work = t.costs.Costs.flow_mod_install_cost in
  Cpu.submit t.userspace ~work_s:work (fun () ->
      match fm.Of_flow_mod.command with
      | Of_flow_mod.Add | Of_flow_mod.Modify | Of_flow_mod.Modify_strict ->
          (* The rule takes effect only after the datapath programming
             latency; packets arriving in between still miss. The
             buffered packet (if the FLOW_MOD names one) is released
             immediately, as OVS does. *)
          ignore
            (Engine.schedule t.engine
               ~delay:t.costs.Costs.flow_mod_apply_latency (fun () ->
                 let entry =
                   Flow_entry.of_flow_mod fm ~now:(Engine.now t.engine)
                 in
                 match Flow_table.insert t.table entry with
                 | Flow_table.Installed | Flow_table.Replaced
                 | Flow_table.Evicted _ ->
                     ()
                 | Flow_table.Table_full ->
                     send_error t ~error_type:Of_error.Flow_mod_failed
                       ~code:Of_error.Flow_mod_failed_code.all_tables_full
                       ~offending));
          apply_buffer_release t ~buffer_id:fm.Of_flow_mod.buffer_id
            ~actions:fm.Of_flow_mod.actions ~offending
      | Of_flow_mod.Delete ->
          ignore
            (Flow_table.delete t.table ~strict:false
               ~out_port:fm.Of_flow_mod.out_port ~match_:fm.Of_flow_mod.match_
               ~priority:fm.Of_flow_mod.priority ())
      | Of_flow_mod.Delete_strict ->
          ignore
            (Flow_table.delete t.table ~strict:true
               ~out_port:fm.Of_flow_mod.out_port ~match_:fm.Of_flow_mod.match_
               ~priority:fm.Of_flow_mod.priority ()))

let handle_packet_out t (po : Of_packet_out.t) ~offending =
  t.c.pkt_outs_handled <- t.c.pkt_outs_handled + 1;
  let data_len = Bytes.length po.Of_packet_out.data in
  let work =
    t.costs.Costs.pkt_out_base_cost
    +. (t.costs.Costs.pkt_out_per_byte *. float_of_int data_len)
  in
  Cpu.submit t.userspace ~work_s:work (fun () ->
      if Int32.equal po.Of_packet_out.buffer_id Of_wire.no_buffer then begin
        if data_len = 0 then
          send_error t ~error_type:Of_error.Bad_request
            ~code:Of_error.Bad_request_code.bad_len ~offending
        else begin
          (* The full frame must cross the bus back to the datapath. *)
          let frame = po.Of_packet_out.data in
          bus_transfer t ~bytes:data_len (fun () ->
              match Packet.peek_headers frame with
              | Error _ -> t.c.decode_failures <- t.c.decode_failures + 1
              | Ok _ ->
                  egress t ~in_port:po.Of_packet_out.in_port
                    ~actions:po.Of_packet_out.actions frame)
        end
      end
      else
        apply_buffer_release t ~buffer_id:po.Of_packet_out.buffer_id
          ~actions:po.Of_packet_out.actions ~offending)

let buffer_stats t =
  match active_pool t with
  | Some pool ->
      {
        Of_ext.units_in_use = Buffer_pool.units_in_use pool;
        units_total = Buffer_pool.capacity pool;
        flows_buffered = Buffer_pool.flows_buffered pool;
        packets_buffered = Buffer_pool.packets_buffered pool;
        resends = Buffer_pool.resends pool;
      }
  | None ->
      {
        Of_ext.units_in_use = 0;
        units_total = t.config.buffer_capacity;
        flows_buffered = 0;
        packets_buffered = 0;
        resends = 0;
      }

let handle_vendor t ~xid (v : Of_ext.t) =
  match v with
  | Of_ext.Flow_buffer_enable b ->
      t.mechanism <- Flow_granularity;
      (* The controller dictates the re-request policy; it applies to
         the live pool from the next timer arming. *)
      Buffer_pool.set_backoff (ensure_flow_pool t)
        ~resend_timeout:b.Of_ext.timeout
        ~resend_multiplier:b.Of_ext.multiplier ~resend_cap:b.Of_ext.cap
        ~max_resends:b.Of_ext.max_resends
  | Of_ext.Flow_buffer_disable -> t.mechanism <- Packet_granularity
  | Of_ext.Flow_buffer_stats_request ->
      send_to_controller ~xid t
        (Of_codec.Vendor (Of_ext.Flow_buffer_stats_reply (buffer_stats t)))
  | Of_ext.Flow_buffer_stats_reply _ -> ()

let features_reply t =
  let ports =
    (* Port list goes on the wire: ascending port number, not
       hash-table iteration order. *)
    Hashtbl.fold
      (fun port _ acc ->
        {
          Of_features.port_no = port;
          hw_addr = Mac.of_octets 0x02 0 0 0 0 port;
          name = Printf.sprintf "eth%d" port;
        }
        :: acc)
      t.ports []
    |> List.sort (fun (a : Of_features.phy_port) b ->
           Int.compare a.Of_features.port_no b.Of_features.port_no)
  in
  Of_features.make ~datapath_id:t.config.datapath_id
    ~n_buffers:
      (match t.mechanism with No_buffer -> 0 | _ -> t.config.buffer_capacity)
    ~n_tables:1 ~ports

let handle_stats_request t ~xid (req : Of_stats.request) =
  let now = Engine.now t.engine in
  let reply =
    match req with
    | Of_stats.Desc_request ->
        Of_stats.Desc_reply
          {
            Of_stats.mfr_desc = "sdn-buffer reproduction";
            hw_desc = "simulated datapath";
            sw_desc = "sdn_switch (OCaml)";
            serial_num = "0";
            dp_desc = mechanism_to_string t.mechanism;
          }
    | Of_stats.Flow_request _ ->
        (* A big table cannot be reported in one frame (16-bit wire
           length, no multipart continuation in this codec): answer
           with the prefix that fits rather than framing garbage. *)
        Of_stats.Flow_reply
          (Of_stats.truncate_flow_entries (Flow_table.to_stats t.table ~now))
    | Of_stats.Aggregate_request _ ->
        let entries = Flow_table.entries t.table in
        let packets, bytes =
          List.fold_left
            (fun (p, b) (e : Flow_entry.t) ->
              (Int64.add p e.Flow_entry.packets, Int64.add b e.Flow_entry.bytes))
            (0L, 0L) entries
        in
        Of_stats.Aggregate_reply
          {
            packet_count = packets;
            byte_count = bytes;
            flow_count = Int32.of_int (List.length entries);
          }
    | Of_stats.Port_request { port_no } ->
        let one port (link : Bytes.t Link.t) =
          {
            Of_stats.port_no = port;
            rx_packets = 0L;
            tx_packets = Int64.of_int (Link.messages_sent link);
            rx_bytes = 0L;
            tx_bytes = Int64.of_int (Link.bytes_sent link);
            rx_dropped = 0L;
            tx_dropped = 0L;
            rx_errors = 0L;
            tx_errors = 0L;
          }
        in
        let entries =
          if port_no = Of_wire.Port.none || port_no = Of_wire.Port.all then
            (* Stats reply goes on the wire: ascending port number. *)
            Hashtbl.fold (fun p l acc -> one p l :: acc) t.ports []
            |> List.sort (fun (a : Of_stats.port_stats) b ->
                   Int.compare a.Of_stats.port_no b.Of_stats.port_no)
          else begin
            match Hashtbl.find_opt t.ports port_no with
            | Some l -> [ one port_no l ]
            | None -> []
          end
        in
        Of_stats.Port_reply entries
  in
  send_to_controller ~xid t (Of_codec.Stats_reply reply)

let handle_of_message t buf =
  if t.dead then
    (* The OpenFlow agent is down with the rest of the process. *)
    t.c.crash_lost_messages <- t.c.crash_lost_messages + 1
  else
  match Of_codec.decode buf with
  | Error _ ->
      t.c.decode_failures <- t.c.decode_failures + 1;
      (* Per the 1.0 spec, the reply code depends on what exactly was
         wrong with the frame (satellite of the wire-format story):
         truncation is a length problem, an unknown type byte a type
         problem, and a foreign version a failed version negotiation. *)
      let error_type, code =
        match Of_codec.error_kind buf with
        | Of_codec.Truncated | Of_codec.Bad_body ->
            t.c.decode_truncated <- t.c.decode_truncated + 1;
            (Of_error.Bad_request, Of_error.Bad_request_code.bad_len)
        | Of_codec.Bad_version _ ->
            t.c.decode_bad_version <- t.c.decode_bad_version + 1;
            (Of_error.Hello_failed, Of_error.Hello_failed_code.incompatible)
        | Of_codec.Bad_type _ ->
            t.c.decode_bad_type <- t.c.decode_bad_type + 1;
            (Of_error.Bad_request, Of_error.Bad_request_code.bad_type)
      in
      send_error ~xid:(Of_codec.peek_xid buf) t ~error_type ~code
        ~offending:buf
  | Ok (xid, msg) -> (
      (* Any well-formed message is proof of liveness; echo replies
         additionally settle an outstanding keepalive or reconnect
         probe by xid. A message arriving while Down restores the
         session (and resumes frozen chains) before being handled. *)
      (match msg with
      | Of_codec.Echo_reply _ -> Session.note_echo_reply (the_session t) ~xid
      | _ -> Session.note_activity (the_session t));
      match msg with
      | Of_codec.Flow_mod fm -> handle_flow_mod t fm ~offending:buf
      | Of_codec.Packet_out po -> handle_packet_out t po ~offending:buf
      | Of_codec.Hello -> send_to_controller t Of_codec.Hello
      | Of_codec.Echo_request payload ->
          send_to_controller ~xid t (Of_codec.Echo_reply payload)
      | Of_codec.Features_request ->
          send_to_controller ~xid t (Of_codec.Features_reply (features_reply t))
      | Of_codec.Barrier_request ->
          send_to_controller ~xid t Of_codec.Barrier_reply
      | Of_codec.Vendor v -> handle_vendor t ~xid v
      | Of_codec.Stats_request req -> handle_stats_request t ~xid req
      | Of_codec.Get_config_request ->
          send_to_controller ~xid t
            (Of_codec.Get_config_reply
               { Of_config.flags = 0; miss_send_len = t.miss_send_len })
      | Of_codec.Set_config c ->
          (* The controller configures how much of a buffered packet
             rides in the PACKET_IN (paper, Section IV). *)
          t.miss_send_len <- max 0 (min 0xFFFF c.Of_config.miss_send_len)
      | Of_codec.Error_msg _ -> t.c.errors_received <- t.c.errors_received + 1
      | Of_codec.Echo_reply _ | Of_codec.Features_reply _
      | Of_codec.Get_config_reply _ | Of_codec.Packet_in _
      | Of_codec.Flow_removed _ | Of_codec.Port_status _
      | Of_codec.Stats_reply _ | Of_codec.Barrier_reply ->
          (* Controller-bound messages are ignored if echoed back;
             echo replies were consumed by the session above. *)
          ())

(* Session-down: stop burning re-request budgets into a dead link (the
   frozen chains survive for the post-reconnect resync), and start
   standalone forwarding from an empty learning table. *)
let on_session_down t =
  (match t.mechanism with
  | Flow_granularity -> Buffer_pool.freeze (ensure_flow_pool t)
  | Packet_granularity | No_buffer -> ());
  Hashtbl.reset t.standalone_table

(* Session restored: thaw the pool — chains that still fit their resend
   budget re-enter the backoff machinery and re-request; the rest
   expire. *)
let on_session_restore t =
  match t.flow_pool with
  | Some pool when Buffer_pool.is_frozen pool -> Buffer_pool.resume pool
  | Some _ | None -> ()

(* ---- Crash–restart fault injection ---- *)

let crash t ~mode =
  if not t.dead then begin
    t.dead <- true;
    t.c.crashes <- t.c.crashes + 1;
    (* The process dies with all its timers; Session.force_down fires
       on_down from live states, which freezes a flow-granularity pool
       and resets the standalone table. *)
    Session.force_down (the_session t);
    Hashtbl.reset t.standalone_table;
    match mode with
    | Faults.Warm -> (
        (* Soft state survives the reboot: buffered chains freeze (if
           the session was already down they may not be yet) and replay
           through the normal resume path on reconnection. *)
        match t.flow_pool with
        | Some pool when not (Buffer_pool.is_frozen pool) ->
            Buffer_pool.freeze pool
        | Some _ | None -> ())
    | Faults.Cold ->
        (* Full state loss. The pools report every held chain as
           expired to the conservation ledger, then the wipe invariant
           confirms nothing survived. Flow table, learned MACs and the
           vendor-negotiated configuration all reset to power-on
           defaults; the controller's resync handshake re-pushes them. *)
        List.iter
          (fun pool ->
            t.c.crash_wiped_packets <-
              t.c.crash_wiped_packets + Buffer_pool.wipe pool;
            match t.check with
            | Some check ->
                Sdn_check.Check.note_crash_wipe check
                  ~time:(Engine.now t.engine) ~pool:(Buffer_pool.name pool)
            | None -> ())
          (List.filter_map Fun.id [ t.pkt_pool; t.flow_pool ]);
        ignore (Flow_table.clear t.table);
        t.mechanism <-
          (if t.config.buffer_capacity = 0 then No_buffer
           else t.config.mechanism);
        t.miss_send_len <- t.config.miss_send_len
  end

let restart t =
  if t.dead then begin
    t.dead <- false;
    (* Rejoin the controller through the ordinary reconnect machinery:
       the first answered probe restores the session, resumes any
       frozen chains and triggers the controller's resync (and, after
       a crash, its reconciliation pass). *)
    Session.revive (the_session t)
  end

let is_dead t = t.dead

let create engine ?check ~config ~costs ~rng () =
  let noise = Costs.noise costs rng in
  let amortize ~queue_len = Costs.amortization costs ~queue_len in
  let mechanism =
    if config.buffer_capacity = 0 then No_buffer else config.mechanism
  in
  let name = Printf.sprintf "sw-%Lx" config.datapath_id in
  let t =
    {
      engine;
      config;
      costs;
      check;
      name;
      (* A dedicated stream for re-request jitter, so backoff draws do
         not perturb the service-noise sequence. *)
      resend_rng = Rng.split rng;
      mechanism;
      miss_send_len = config.miss_send_len;
      kernel =
        Cpu.create engine ~name:"switch-kernel" ~cores:costs.Costs.kernel_cores
          ~noise ();
      userspace =
        Cpu.create engine ~name:"switch-userspace"
          ~cores:costs.Costs.userspace_cores ~service_scale:amortize ~noise ();
      bus = ref None;
      table =
        Flow_table.create ~eviction:config.flow_table_eviction ?check
          ~name:(name ^ "/table")
          ~clock:(fun () -> Engine.now engine)
          ~capacity:config.flow_table_capacity ();
      pkt_pool = None;
      flow_pool = None;
      shared_pool = None;
      ports = Hashtbl.create 8;
      port_schedulers = Hashtbl.create 8;
      down_ports = Hashtbl.create 4;
      controller_link = None;
      (* Each datapath gets its own xid block so transaction ids stay
         unique controller-wide in multi-switch topologies (the delay
         tracker pairs responses by xid). *)
      next_xid =
        Int32.add 1l
          (Int32.shift_left
             (Int32.of_int (Int64.to_int (Int64.rem config.datapath_id 1024L)))
             20);
      dead = false;
      session = None;
      standalone_table = Hashtbl.create 16;
      c =
        {
          frames_received = 0;
          frames_forwarded = 0;
          frames_dropped = 0;
          table_misses = 0;
          pkt_ins_sent = 0;
          pkt_in_resends = 0;
          full_packet_fallbacks = 0;
          pkt_outs_handled = 0;
          flow_mods_handled = 0;
          errors_sent = 0;
          errors_received = 0;
          decode_failures = 0;
          decode_truncated = 0;
          decode_bad_version = 0;
          decode_bad_type = 0;
          standalone_frames = 0;
          fail_secure_drops = 0;
          crashes = 0;
          crash_lost_frames = 0;
          crash_lost_messages = 0;
          crash_wiped_packets = 0;
          overload_sheds = 0;
        };
    }
  in
  (* The reconnect probe schedule reuses the re-request backoff knobs:
     both are "retry into a possibly-dead control channel" timers. *)
  t.session <-
    Some
      (Session.create engine ?check ~name:t.name
         ~config:
           {
             Session.echo_interval = config.echo_interval;
             echo_misses = config.echo_misses;
             reconnect_delay = config.resend_timeout;
             reconnect_multiplier = Float.max 1.0 config.resend_multiplier;
             reconnect_cap = config.resend_cap;
           }
         ~fresh_xid:(fun () -> fresh_xid t)
         ~send_echo:(fun ~xid ->
           (* The session allocated this xid itself: it counts as fresh
              for the uniqueness invariant. *)
           send_to_controller ~xid ~fresh:true t
             (Of_codec.Echo_request Bytes.empty))
         ~on_down:(fun () -> on_session_down t)
         ~on_restore:(fun ~downtime:_ -> on_session_restore t)
         ());
  (* The internal bus delivers transfer-completion thunks. *)
  t.bus :=
    Some
      (Link.create engine ~name:"asic-cpu-bus"
         ~bandwidth_bps:costs.Costs.bus_bandwidth_bps ~propagation_s:0.0
         ~receiver:(fun k -> k ())
         ());
  (* Pre-create the pool matching the configured mechanism so occupancy
     statistics start at time zero. *)
  (match t.mechanism with
  | Packet_granularity -> ignore (ensure_pkt_pool t)
  | Flow_granularity -> ignore (ensure_flow_pool t)
  | No_buffer -> ());
  t

let start t =
  let rec sweep () =
    let now = Engine.now t.engine in
    let expired = Flow_table.expire t.table ~now in
    (* Rules installed with the send_flow_rem flag notify the
       controller of their demise. *)
    List.iter
      (fun (entry : Flow_entry.t) ->
        if entry.Flow_entry.send_flow_rem then begin
          let reason =
            Option.value
              (Flow_entry.expiry_reason entry ~now)
              ~default:Of_flow_removed.Idle_timeout
          in
          send_to_controller t
            (Of_codec.Flow_removed (Flow_entry.to_flow_removed entry ~now ~reason))
        end)
      expired;
    ignore (Engine.schedule t.engine ~delay:t.config.table_sweep_interval sweep)
  in
  ignore (Engine.schedule t.engine ~delay:t.config.table_sweep_interval sweep);
  Session.start (the_session t)

let config t = t.config
let mechanism t = t.mechanism
let miss_send_len t = t.miss_send_len
let set_port t ~port link = Hashtbl.replace t.ports port link

let set_port_state t ~port ~up =
  let was_down = Hashtbl.mem t.down_ports port in
  if up then Hashtbl.remove t.down_ports port
  else Hashtbl.replace t.down_ports port ();
  if was_down <> not up then begin
    (* Notify the controller asynchronously, as a real switch does. *)
    let port_desc =
      {
        Of_features.port_no = port;
        hw_addr = Mac.of_octets 0x02 0 0 0 0 port;
        name = Printf.sprintf "eth%d" port;
      }
    in
    send_to_controller t
      (Of_codec.Port_status
         {
           Of_port_status.reason = Of_port_status.Modify;
           port = port_desc;
           link_down = not up;
         })
  end

let port_is_up t ~port = not (Hashtbl.mem t.down_ports port)

let set_port_scheduler t ~port ~policy ~queues =
  match Hashtbl.find_opt t.ports port with
  | None -> invalid_arg "Switch.set_port_scheduler: no such port"
  | Some link ->
      let shared =
        match ensure_shared_pool t with
        | None -> None
        | Some pool -> Some (pool, Printf.sprintf "port%d" port)
      in
      Hashtbl.replace t.port_schedulers port
        (Egress_queue.create ?shared t.engine ~link ~policy ~queues)

let port_scheduler t ~port = Hashtbl.find_opt t.port_schedulers port
let shared_pool t = t.shared_pool

let egress_misrouted t =
  (* Sum is order-independent, but fold-to-list + sort keeps the
     traversal deterministic (the sort discharges the hashtbl-order
     rule). *)
  Hashtbl.fold
    (fun port q acc -> (port, Egress_queue.misrouted q) :: acc)
    t.port_schedulers []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.fold_left (fun acc (_, m) -> acc + m) 0
let set_controller_link t link = t.controller_link <- Some link
let kernel_cpu t = t.kernel
let userspace_cpu t = t.userspace
let flow_table t = t.table

let counters t = { t.c with frames_received = t.c.frames_received }

let session t = the_session t

(* Active-pool statistics read [none] until the pool exists. *)
let of_active_pool t ~none stat =
  match active_pool t with Some pool -> stat pool | None -> none

let buffer_units_in_use t = of_active_pool t ~none:0 Buffer_pool.units_in_use

let buffer_mean_in_use t ~until =
  of_active_pool t ~none:0.0 (Buffer_pool.mean_units_in_use ~until)

let buffer_max_in_use t = of_active_pool t ~none:0 Buffer_pool.max_units_in_use

(* Flow-pool statistics read [none] until the pool exists. *)
let of_flow_pool t ~none stat =
  match t.flow_pool with Some pool -> stat pool | None -> none

let flows_abandoned t = of_flow_pool t ~none:0 Buffer_pool.abandoned_flows
let flows_recovered t = of_flow_pool t ~none:0 Buffer_pool.recovered_flows

let recovery_delays t =
  of_flow_pool t ~none:(Stats.create ()) Buffer_pool.recovery_delays

let chains_frozen t = of_flow_pool t ~none:0 Buffer_pool.chains_frozen
let chains_resumed t = of_flow_pool t ~none:0 Buffer_pool.chains_resumed

let chains_expired_on_resume t =
  of_flow_pool t ~none:0 Buffer_pool.expired_on_resume

let cpu_busy_core_seconds t =
  Cpu.busy_core_seconds t.kernel +. Cpu.busy_core_seconds t.userspace
