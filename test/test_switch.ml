(* Behavioural tests of the switch: miss paths for the three
   mechanisms, rule installation, buffered release, handshake replies,
   errors, fallback on exhaustion. *)

open Sdn_sim
open Sdn_net
open Sdn_openflow
open Sdn_switch

let mac1 = Mac.of_octets 0x02 0 0 0 0 1
let mac2 = Mac.of_octets 0x02 0 0 0 0 2
let ip1 = Ip.make 10 0 0 1
let ip2 = Ip.make 10 0 0 2

let frame ?(src_port = 1000) ?(size = 200) () =
  Packet.encode
    (Packet.udp_frame_of_size ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:ip1
       ~dst_ip:ip2 ~src_port ~dst_port:9 ~frame_size:size
       ~payload_fill:(fun _ -> ()))

(* A quiet cost model so tests reason about behaviour, not timing. *)
let fast_costs =
  {
    Costs.default with
    Costs.service_noise_sigma = 0.0;
    flow_mod_apply_latency = 1e-6;
  }

type harness = {
  engine : Engine.t;
  switch : Switch.t;
  egress1 : Bytes.t list ref;  (** frames sent out port 1 *)
  egress2 : Bytes.t list ref;  (** frames sent out port 2 *)
  to_controller : (int32 * Of_codec.msg) list ref;  (** decoded, in order *)
}

let make_harness ?(config = Switch.default_config) () =
  let engine = Engine.create () in
  let switch =
    Switch.create engine ~config ~costs:fast_costs ~rng:(Rng.of_int 1) ()
  in
  let egress1 = ref [] and egress2 = ref [] and to_controller = ref [] in
  let data_link store =
    Link.create engine ~name:"egress" ~bandwidth_bps:1e9 ~propagation_s:0.0
      ~receiver:(fun frame -> store := frame :: !store)
      ()
  in
  let ctrl_link =
    Link.create engine ~name:"ctrl" ~bandwidth_bps:1e9 ~propagation_s:0.0
      ~receiver:(fun buf ->
        match Of_codec.decode buf with
        | Ok decoded -> to_controller := decoded :: !to_controller
        | Error e -> Alcotest.fail e)
      ()
  in
  Switch.set_port switch ~port:1 (data_link egress1);
  Switch.set_port switch ~port:2 (data_link egress2);
  Switch.set_controller_link switch ctrl_link;
  { engine; switch; egress1; egress2; to_controller }

let messages h = List.rev !(h.to_controller)

let pkt_ins h =
  List.filter_map
    (function _, Of_codec.Packet_in p -> Some p | _ -> None)
    (messages h)

let send_of h msg = Switch.handle_of_message h.switch (Of_codec.encode ~xid:7l msg)

let test_miss_no_buffer_sends_full_packet () =
  let config = { Switch.default_config with Switch.mechanism = Switch.No_buffer } in
  let h = make_harness ~config () in
  let f = frame ~size:300 () in
  Switch.handle_frame h.switch ~in_port:1 f;
  Engine.run h.engine;
  match pkt_ins h with
  | [ p ] ->
      Alcotest.(check int32) "NO_BUFFER id" Of_wire.no_buffer p.Of_packet_in.buffer_id;
      Alcotest.(check int) "full frame carried" 300
        (Bytes.length p.Of_packet_in.data);
      Alcotest.(check int) "in_port" 1 p.Of_packet_in.in_port
  | l -> Alcotest.fail (Printf.sprintf "expected 1 packet_in, got %d" (List.length l))

let test_miss_packet_granularity_truncates () =
  let h = make_harness () in
  Switch.handle_frame h.switch ~in_port:1 (frame ~size:500 ());
  (* Stop before the pool's 1 s ageing would drop the unit. *)
  Engine.run ~until:0.01 h.engine;
  match pkt_ins h with
  | [ p ] ->
      Alcotest.(check bool) "valid buffer id" true
        (not (Int32.equal p.Of_packet_in.buffer_id Of_wire.no_buffer));
      Alcotest.(check int) "miss_send_len bytes" 128 (Bytes.length p.Of_packet_in.data);
      Alcotest.(check int) "total_len is full frame" 500 p.Of_packet_in.total_len;
      Alcotest.(check int) "one unit held" 1 (Switch.buffer_units_in_use h.switch)
  | _ -> Alcotest.fail "expected one packet_in"

let test_packet_out_releases_buffered () =
  let h = make_harness () in
  let f = frame () in
  Switch.handle_frame h.switch ~in_port:1 f;
  Engine.run ~until:0.01 h.engine;
  let p = List.hd (pkt_ins h) in
  send_of h
    (Of_codec.Packet_out
       (Of_packet_out.release ~buffer_id:p.Of_packet_in.buffer_id ~out_port:2));
  Engine.run ~until:0.02 h.engine;
  (match !(h.egress2) with
  | [ out ] -> Alcotest.(check bytes) "original frame egressed" f out
  | _ -> Alcotest.fail "expected the buffered frame on port 2");
  Alcotest.(check int) "forwarded counter" 1
    (Switch.counters h.switch).Switch.frames_forwarded

let test_flow_mod_installs_rule () =
  let h = make_harness () in
  let f = frame ~src_port:42 () in
  let key = Option.get (Packet.peek_flow_key f) in
  send_of h
    (Of_codec.Flow_mod
       (Of_flow_mod.add ~match_:(Of_match.of_flow_key key)
          ~actions:[ Of_action.output 2 ] ()));
  Engine.run h.engine;
  Alcotest.(check int) "rule installed" 1 (Flow_table.length (Switch.flow_table h.switch));
  (* A matching packet now forwards without any packet_in. *)
  Switch.handle_frame h.switch ~in_port:1 f;
  Engine.run h.engine;
  Alcotest.(check int) "no packet_in" 0 (List.length (pkt_ins h));
  Alcotest.(check int) "egressed" 1 (List.length !(h.egress2))

let test_flow_mod_with_buffer_id_releases () =
  let h = make_harness () in
  let f = frame ~src_port:43 () in
  Switch.handle_frame h.switch ~in_port:1 f;
  Engine.run ~until:0.01 h.engine;
  let p = List.hd (pkt_ins h) in
  let key = Option.get (Packet.peek_flow_key f) in
  send_of h
    (Of_codec.Flow_mod
       (Of_flow_mod.add ~buffer_id:p.Of_packet_in.buffer_id
          ~match_:(Of_match.of_flow_key key)
          ~actions:[ Of_action.output 2 ] ()));
  Engine.run ~until:0.02 h.engine;
  Alcotest.(check int) "rule installed" 1 (Flow_table.length (Switch.flow_table h.switch));
  Alcotest.(check int) "buffered frame released via flow_mod" 1
    (List.length !(h.egress2))

let test_buffer_exhaustion_falls_back () =
  let config = { Switch.default_config with Switch.buffer_capacity = 2 } in
  let h = make_harness ~config () in
  for p = 1 to 3 do
    Switch.handle_frame h.switch ~in_port:1 (frame ~src_port:p ())
  done;
  Engine.run h.engine;
  let ps = pkt_ins h in
  Alcotest.(check int) "three packet_ins" 3 (List.length ps);
  let fallbacks =
    List.filter
      (fun p -> Int32.equal p.Of_packet_in.buffer_id Of_wire.no_buffer)
      ps
  in
  Alcotest.(check int) "one fell back to full packet" 1 (List.length fallbacks);
  Alcotest.(check int) "counter agrees" 1
    (Switch.counters h.switch).Switch.full_packet_fallbacks

let test_flow_granularity_one_request_per_flow () =
  let config = { Switch.default_config with Switch.mechanism = Switch.Flow_granularity } in
  let h = make_harness ~config () in
  (* Four packets of one flow, two of another, all before any reply. *)
  for _ = 1 to 4 do
    Switch.handle_frame h.switch ~in_port:1 (frame ~src_port:100 ())
  done;
  for _ = 1 to 2 do
    Switch.handle_frame h.switch ~in_port:1 (frame ~src_port:200 ())
  done;
  Engine.run ~until:0.01 h.engine;
  let ps = pkt_ins h in
  Alcotest.(check int) "one request per flow" 2 (List.length ps);
  let stats = Switch.buffer_stats h.switch in
  Alcotest.(check int) "six packets buffered" 6 stats.Of_ext.packets_buffered;
  Alcotest.(check int) "two units" 2 stats.Of_ext.units_in_use

let test_flow_granularity_release_chain () =
  let config = { Switch.default_config with Switch.mechanism = Switch.Flow_granularity } in
  let h = make_harness ~config () in
  for _ = 1 to 3 do
    Switch.handle_frame h.switch ~in_port:1 (frame ~src_port:100 ())
  done;
  Engine.run ~until:0.01 h.engine;
  let p = List.hd (pkt_ins h) in
  send_of h
    (Of_codec.Packet_out
       (Of_packet_out.release ~buffer_id:p.Of_packet_in.buffer_id ~out_port:2));
  Engine.run ~until:0.02 h.engine;
  Alcotest.(check int) "whole chain egressed" 3 (List.length !(h.egress2));
  Alcotest.(check int) "pool drained" 0
    (Switch.buffer_stats h.switch).Of_ext.packets_buffered

let test_flow_granularity_timeout_resend () =
  let config =
    {
      Switch.default_config with
      Switch.mechanism = Switch.Flow_granularity;
      resend_timeout = 0.02;
      max_resends = 1;
    }
  in
  let h = make_harness ~config () in
  Switch.handle_frame h.switch ~in_port:1 (frame ~src_port:100 ());
  Engine.run ~until:0.1 h.engine;
  Alcotest.(check int) "original + resend" 2 (List.length (pkt_ins h));
  Alcotest.(check int) "resend counter" 1
    (Switch.counters h.switch).Switch.pkt_in_resends

(* A re-request reports the port the chain's first frame came in on,
   not port 1: the controller learns host locations from it. *)
let test_flow_granularity_resend_keeps_in_port () =
  let config =
    {
      Switch.default_config with
      Switch.mechanism = Switch.Flow_granularity;
      resend_timeout = 0.02;
      max_resends = 1;
    }
  in
  let h = make_harness ~config () in
  Switch.handle_frame h.switch ~in_port:2 (frame ~src_port:100 ());
  Engine.run ~until:0.1 h.engine;
  match pkt_ins h with
  | [ first; resent ] ->
      Alcotest.(check int32) "same unit re-requested"
        first.Of_packet_in.buffer_id resent.Of_packet_in.buffer_id;
      Alcotest.(check (list int)) "both report the ingress port" [ 2; 2 ]
        [ first.Of_packet_in.in_port; resent.Of_packet_in.in_port ]
  | ps -> Alcotest.failf "expected original + resend, got %d" (List.length ps)

let test_stale_buffer_id_error () =
  let h = make_harness () in
  send_of h (Of_codec.Packet_out (Of_packet_out.release ~buffer_id:12345l ~out_port:2));
  Engine.run h.engine;
  let errors =
    List.filter_map
      (function _, Of_codec.Error_msg e -> Some e | _ -> None)
      (messages h)
  in
  match errors with
  | [ e ] ->
      Alcotest.(check bool) "bad_request" true (e.Of_error.error_type = Of_error.Bad_request);
      Alcotest.(check int) "buffer_unknown" Of_error.Bad_request_code.buffer_unknown
        e.Of_error.code
  | _ -> Alcotest.fail "expected one error"

let test_handshake_replies () =
  let h = make_harness () in
  send_of h Of_codec.Hello;
  send_of h Of_codec.Features_request;
  send_of h (Of_codec.Echo_request (Bytes.of_string "x"));
  send_of h Of_codec.Barrier_request;
  Engine.run h.engine;
  let kinds = List.map (fun (_, m) -> Of_codec.msg_type m) (messages h) in
  Alcotest.(check (list string)) "reply sequence"
    [ "HELLO"; "FEATURES_REPLY"; "ECHO_REPLY"; "BARRIER_REPLY" ]
    (List.map Of_wire.Msg_type.to_string kinds);
  match messages h with
  | [ _; (_, Of_codec.Features_reply fr); _; _ ] ->
      Alcotest.(check int32) "advertises buffer pool" 256l fr.Of_features.n_buffers;
      Alcotest.(check int) "two ports" 2 (List.length fr.Of_features.ports)
  | _ -> Alcotest.fail "unexpected message shapes"

let test_vendor_switches_mechanism () =
  let h = make_harness () in
  Alcotest.(check string) "starts packet-granularity" "packet-granularity"
    (Switch.mechanism_to_string (Switch.mechanism h.switch));
  send_of h
    (Of_codec.Vendor
       (Of_ext.Flow_buffer_enable (Of_ext.default_backoff ~timeout:0.05)));
  Engine.run h.engine;
  Alcotest.(check string) "flow-granularity enabled" "flow-granularity"
    (Switch.mechanism_to_string (Switch.mechanism h.switch));
  send_of h (Of_codec.Vendor Of_ext.Flow_buffer_disable);
  Engine.run h.engine;
  Alcotest.(check string) "back to packet-granularity" "packet-granularity"
    (Switch.mechanism_to_string (Switch.mechanism h.switch))

let test_stats_replies () =
  let h = make_harness () in
  send_of h (Of_codec.Stats_request Of_stats.Desc_request);
  send_of h (Of_codec.Stats_request (Of_stats.Port_request { port_no = Of_wire.Port.none }));
  Engine.run h.engine;
  let replies =
    List.filter_map (function _, Of_codec.Stats_reply r -> Some r | _ -> None) (messages h)
  in
  match replies with
  | [ Of_stats.Desc_reply desc; Of_stats.Port_reply ports ] ->
      Alcotest.(check string) "dp_desc names mechanism" "packet-granularity"
        desc.Of_stats.dp_desc;
      Alcotest.(check int) "both ports reported" 2 (List.length ports)
  | _ -> Alcotest.fail "expected desc + port replies"

let test_table_sweep_expires_rules () =
  let h = make_harness () in
  Switch.start h.switch;
  let f = frame ~src_port:42 () in
  let key = Option.get (Packet.peek_flow_key f) in
  send_of h
    (Of_codec.Flow_mod
       (Of_flow_mod.add ~idle_timeout:2
          ~match_:(Of_match.of_flow_key key)
          ~actions:[ Of_action.output 2 ] ()));
  Engine.run ~until:1.0 h.engine;
  Alcotest.(check int) "installed" 1 (Flow_table.length (Switch.flow_table h.switch));
  Engine.run ~until:4.0 h.engine;
  Alcotest.(check int) "swept after idle timeout" 0
    (Flow_table.length (Switch.flow_table h.switch))

(* A released unit still waiting out its reclaim lag is in use but
   holds no packet: the stats reply must not count it as buffered. *)
let test_stats_reply_excludes_reclaiming () =
  let config = { Switch.default_config with Switch.reclaim_lag = 0.1 } in
  let h = make_harness ~config () in
  Switch.handle_frame h.switch ~in_port:1 (frame ());
  Engine.run ~until:0.01 h.engine;
  let p = List.hd (pkt_ins h) in
  send_of h
    (Of_codec.Packet_out
       (Of_packet_out.release ~buffer_id:p.Of_packet_in.buffer_id ~out_port:2));
  Engine.run ~until:0.02 h.engine;
  Alcotest.(check int) "released frame egressed" 1 (List.length !(h.egress2));
  send_of h (Of_codec.Vendor Of_ext.Flow_buffer_stats_request);
  Engine.run ~until:0.03 h.engine;
  match
    List.filter_map
      (function
        | _, Of_codec.Vendor (Of_ext.Flow_buffer_stats_reply s) -> Some s
        | _ -> None)
      (messages h)
  with
  | [ s ] ->
      Alcotest.(check int) "unit still reclaiming" 1 s.Of_ext.units_in_use;
      Alcotest.(check int) "no packet buffered" 0 s.Of_ext.packets_buffered
  | _ -> Alcotest.fail "expected one buffer stats reply"

let suite =
  [
    Alcotest.test_case "no-buffer miss carries full packet" `Quick
      test_miss_no_buffer_sends_full_packet;
    Alcotest.test_case "packet-granularity miss truncates" `Quick
      test_miss_packet_granularity_truncates;
    Alcotest.test_case "packet_out releases buffered frame" `Quick
      test_packet_out_releases_buffered;
    Alcotest.test_case "flow_mod installs a working rule" `Quick
      test_flow_mod_installs_rule;
    Alcotest.test_case "flow_mod with buffer_id releases" `Quick
      test_flow_mod_with_buffer_id_releases;
    Alcotest.test_case "exhaustion falls back to full packets" `Quick
      test_buffer_exhaustion_falls_back;
    Alcotest.test_case "flow granularity: one request per flow" `Quick
      test_flow_granularity_one_request_per_flow;
    Alcotest.test_case "flow granularity: chain release" `Quick
      test_flow_granularity_release_chain;
    Alcotest.test_case "flow granularity: timeout re-request" `Quick
      test_flow_granularity_timeout_resend;
    Alcotest.test_case "flow granularity: re-request keeps in_port" `Quick
      test_flow_granularity_resend_keeps_in_port;
    Alcotest.test_case "stale buffer id raises an error" `Quick
      test_stale_buffer_id_error;
    Alcotest.test_case "handshake replies" `Quick test_handshake_replies;
    Alcotest.test_case "vendor message switches mechanism" `Quick
      test_vendor_switches_mechanism;
    Alcotest.test_case "stats replies" `Quick test_stats_replies;
    Alcotest.test_case "housekeeping sweep expires rules" `Quick
      test_table_sweep_expires_rules;
    Alcotest.test_case "stats reply excludes reclaiming units" `Quick
      test_stats_reply_excludes_reclaiming;
  ]
