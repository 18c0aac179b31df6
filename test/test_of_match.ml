(* Tests for the OpenFlow 1.0 match structure and wildcards. *)

open Sdn_net
open Sdn_openflow

let mac1 = Mac.of_octets 0x02 0 0 0 0 1
let mac2 = Mac.of_octets 0x02 0 0 0 0 2
let ip1 = Ip.make 10 0 0 1
let ip2 = Ip.make 10 0 0 2

let udp_pkt ?(src_ip = ip1) ?(src_port = 1000) () =
  Packet.udp ~src_mac:mac1 ~dst_mac:mac2 ~src_ip ~dst_ip:ip2 ~src_port
    ~dst_port:9 ~payload:(Bytes.of_string "x") ()

(* Classify as the switch does: on the header view of the encoded
   frame. *)
let matches m ~in_port pkt =
  match Packet.peek_headers (Packet.encode pkt) with
  | Ok headers -> Of_match.matches m ~in_port headers
  | Error msg -> Alcotest.fail msg

let test_wildcard_all_matches_everything () =
  let pkt = udp_pkt () in
  Alcotest.(check bool) "matches udp" true
    (matches Of_match.wildcard_all ~in_port:1 pkt);
  let arp =
    Packet.arp ~src_mac:mac1 ~dst_mac:Mac.broadcast
      (Arp.request ~sender_mac:mac1 ~sender_ip:ip1 ~target_ip:ip2)
  in
  Alcotest.(check bool) "matches arp" true
    (matches Of_match.wildcard_all ~in_port:7 arp)

let test_exact_match_self () =
  let pkt = udp_pkt () in
  let m = Of_match.exact_of_packet ~in_port:1 pkt in
  Alcotest.(check bool) "matches itself" true (matches m ~in_port:1 pkt);
  Alcotest.(check bool) "wrong in_port" false (matches m ~in_port:2 pkt);
  Alcotest.(check bool) "different src port" false
    (matches m ~in_port:1 (udp_pkt ~src_port:1001 ()))

let test_flow_key_match () =
  let pkt = udp_pkt () in
  let key = Option.get (Packet.flow_key pkt) in
  let m = Of_match.of_flow_key key in
  Alcotest.(check bool) "matches on any port" true
    (matches m ~in_port:5 pkt);
  Alcotest.(check bool) "rejects other flow" false
    (matches m ~in_port:5 (udp_pkt ~src_ip:(Ip.make 10 9 9 9) ()))

let test_prefix_wildcard () =
  let m =
    {
      Of_match.wildcard_all with
      Of_match.dl_type = Some Ethernet.ethertype_ipv4;
      nw_src = Some (Ip.make 10 0 0 0, 8);
    }
  in
  Alcotest.(check bool) "10.x matches /8" true
    (matches m ~in_port:1 (udp_pkt ~src_ip:(Ip.make 10 200 3 4) ()));
  let other =
    Packet.udp ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:(Ip.make 11 0 0 1)
      ~dst_ip:ip2 ~src_port:1 ~dst_port:2 ~payload:Bytes.empty ()
  in
  Alcotest.(check bool) "11.x does not" false (matches m ~in_port:1 other)

let test_wire_roundtrip_exact () =
  let m = Of_match.exact_of_packet ~in_port:3 (udp_pkt ()) in
  let buf = Bytes.make Of_match.size '\000' in
  Of_match.write m buf 0;
  match Of_match.read buf 0 with
  | Ok m' -> Alcotest.(check bool) "equal" true (Of_match.equal m m')
  | Error msg -> Alcotest.fail msg

let test_wire_roundtrip_wildcards () =
  let m =
    {
      Of_match.wildcard_all with
      Of_match.dl_type = Some Ethernet.ethertype_ipv4;
      nw_dst = Some (Ip.make 10 1 0 0, 16);
      nw_proto = Some 17;
    }
  in
  let buf = Bytes.make Of_match.size '\000' in
  Of_match.write m buf 0;
  match Of_match.read buf 0 with
  | Ok m' -> Alcotest.(check bool) "equal incl. prefix bits" true (Of_match.equal m m')
  | Error msg -> Alcotest.fail msg

let test_wire_roundtrip_all_wildcard () =
  let buf = Bytes.make Of_match.size '\000' in
  Of_match.write Of_match.wildcard_all buf 0;
  match Of_match.read buf 0 with
  | Ok m' ->
      Alcotest.(check bool) "still matches everything" true
        (Of_match.equal Of_match.wildcard_all m')
  | Error msg -> Alcotest.fail msg

let test_subsumption () =
  let pkt = udp_pkt () in
  let exact = Of_match.exact_of_packet ~in_port:1 pkt in
  let key = Of_match.of_flow_key (Option.get (Packet.flow_key pkt)) in
  Alcotest.(check bool) "wildcard subsumes exact" true
    (Of_match.subsumes ~general:Of_match.wildcard_all ~specific:exact);
  Alcotest.(check bool) "5-tuple subsumes exact" true
    (Of_match.subsumes ~general:key ~specific:exact);
  Alcotest.(check bool) "exact does not subsume 5-tuple" false
    (Of_match.subsumes ~general:exact ~specific:key);
  Alcotest.(check bool) "subsumes self" true
    (Of_match.subsumes ~general:exact ~specific:exact)

let test_prefix_subsumption () =
  let wide =
    { Of_match.wildcard_all with Of_match.nw_src = Some (Ip.make 10 0 0 0, 8) }
  in
  let narrow =
    { Of_match.wildcard_all with Of_match.nw_src = Some (Ip.make 10 1 0 0, 16) }
  in
  Alcotest.(check bool) "/8 subsumes /16 inside it" true
    (Of_match.subsumes ~general:wide ~specific:narrow);
  Alcotest.(check bool) "/16 does not subsume /8" false
    (Of_match.subsumes ~general:narrow ~specific:wide)

let prop_match_roundtrip =
  let arbitrary =
    let gen =
      QCheck.Gen.(
        map
          (fun (use_port, port, a, bits) ->
            {
              Of_match.wildcard_all with
              Of_match.in_port = (if use_port then Some (port land 0xffff) else None);
              dl_type = Some Ethernet.ethertype_ipv4;
              nw_proto = Some 17;
              nw_src = Some (Ip.make 10 (a land 0xff) 0 0, 1 + (bits mod 32));
              tp_dst = Some (port land 0xffff);
            })
          (quad bool nat nat nat))
    in
    QCheck.make gen
  in
  QCheck.Test.make ~name:"match wire roundtrip" ~count:200 arbitrary (fun m ->
      let buf = Bytes.make Of_match.size '\000' in
      Of_match.write m buf 0;
      match Of_match.read buf 0 with
      | Ok m' -> Of_match.equal m m'
      | Error _ -> false)

let prop_exact_always_matches_source =
  let arbitrary =
    QCheck.make
      QCheck.Gen.(
        map2
          (fun port src_port ->
            (1 + (port mod 16), udp_pkt ~src_port:(1 + (src_port land 0x7fff)) ()))
          nat nat)
  in
  QCheck.Test.make ~name:"exact_of_packet matches its packet" ~count:100
    arbitrary (fun (in_port, pkt) ->
      matches (Of_match.exact_of_packet ~in_port pkt) ~in_port pkt)

(* ---- Header-view classification against the decode reference ----

   Random well-formed frames (UDP, TCP, ARP, raw L4, raw L3) built from
   small address and port pools, so random matches hit as well as miss,
   classified by [Of_match.matches] on [Packet.peek_headers] and by a
   naive matcher over the fully decoded [Packet.t]. *)

let mac_pool = [| mac1; mac2; Mac.broadcast; Mac.of_octets 0x9e 0x80 0xff 0 0xc1 7 |]
let ip_pool = [| ip1; ip2; Ip.make 10 0 1 9; Ip.make 192 168 200 17 |]
let port_pool = [| 9; 1000; 1001; 65535 |]
let tos_pool = [| 0; 0x10; 0xb8 |]

let gen_frame =
  let open QCheck.Gen in
  let pick pool = map (fun i -> pool.(i)) (int_bound (Array.length pool - 1)) in
  let ipv4 ~proto l4 =
    map2
      (fun (tos, ttl) (src, dst) ->
        Packet.Ipv4
          ( { Ipv4.tos; ident = 7; dont_fragment = true; ttl; proto; src; dst },
            l4 ))
      (pair (pick tos_pool) (int_range 1 255))
      (pair (pick ip_pool) (pick ip_pool))
  in
  let payload = map Bytes.of_string (string_size ~gen:printable (int_bound 24)) in
  let udp =
    map3
      (fun src_port dst_port p -> Packet.Udp ({ Udp.src_port; dst_port }, p))
      (pick port_pool) (pick port_pool) payload
  in
  let tcp =
    map3
      (fun src_port dst_port p ->
        Packet.Tcp
          ( {
              Tcp.src_port;
              dst_port;
              seq = 1l;
              ack_seq = 0l;
              flags = Tcp.flags_syn;
              window = 512;
            },
            p ))
      (pick port_pool) (pick port_pool) payload
  in
  let l3 =
    frequency
      [
        (4, udp >>= ipv4 ~proto:Ipv4.proto_udp);
        (2, tcp >>= ipv4 ~proto:Ipv4.proto_tcp);
        (1, payload >>= fun p -> ipv4 ~proto:Ipv4.proto_icmp (Packet.Raw_l4 (Ipv4.proto_icmp, p)));
        ( 1,
          map3
            (fun sender_ip target_ip reply ->
              let req = Arp.request ~sender_mac:mac1 ~sender_ip ~target_ip in
              Packet.Arp (if reply then Arp.reply req ~responder_mac:mac2 else req))
            (pick ip_pool) (pick ip_pool) bool );
        (2, map (fun p -> Packet.Raw_l3 p) payload);
      ]
  in
  map3
    (fun src dst l3 ->
      let ethertype =
        match l3 with
        | Packet.Ipv4 _ -> Ethernet.ethertype_ipv4
        | Packet.Arp _ -> Ethernet.ethertype_arp
        | Packet.Raw_l3 _ -> 0x86dd
      in
      { Packet.eth = { Ethernet.src; dst; ethertype }; l3 })
    (pick mac_pool) (pick mac_pool) l3

let gen_match =
  let open QCheck.Gen in
  let pick pool = map (fun i -> pool.(i)) (int_bound (Array.length pool - 1)) in
  (* Mostly-wildcard matches, so a fair share of pairs match. *)
  let opt g = frequency [ (5, return None); (1, map Option.some g) ] in
  let prefix = pair (pick ip_pool) (oneofl [ 1; 8; 16; 24; 31; 32 ]) in
  let l2 =
    map3
      (fun in_port (dl_src, dl_dst) (dl_vlan, dl_type) ->
        {
          Of_match.wildcard_all with
          Of_match.in_port;
          dl_src;
          dl_dst;
          dl_vlan;
          dl_type;
        })
      (opt (int_range 1 2))
      (pair (opt (pick mac_pool)) (opt (pick mac_pool)))
      (pair
         (frequency [ (9, return None); (1, return (Some 5)) ])
         (opt (oneofl [ Ethernet.ethertype_ipv4; Ethernet.ethertype_arp; 0x86dd ])))
  in
  map3
    (fun m (nw_tos, nw_proto) ((nw_src, nw_dst), (tp_src, tp_dst)) ->
      { m with Of_match.nw_tos; nw_proto; nw_src; nw_dst; tp_src; tp_dst })
    l2
    (pair (opt (pick tos_pool)) (opt (oneofl [ 1; 2; 6; 17 ])))
    (pair (pair (opt prefix) (opt prefix))
       (pair (opt (pick port_pool)) (opt (pick port_pool))))

(* The reference: OpenFlow 1.0 field semantics over the decoded packet
   (ARP reuses nw_proto for the opcode and nw_src/nw_dst for its
   addresses; a simulated frame has no VLAN tag). *)
let reference_matches (m : Of_match.t) ~in_port frame =
  match Packet.decode frame with
  | Error msg -> QCheck.Test.fail_report msg
  | Ok pkt ->
      let eth = pkt.Packet.eth in
      let nw_tos, nw_proto, nw_addrs, ports =
        match pkt.Packet.l3 with
        | Packet.Ipv4 (ip, l4) ->
            ( Some ip.Ipv4.tos,
              Some ip.Ipv4.proto,
              Some (ip.Ipv4.src, ip.Ipv4.dst),
              match l4 with
              | Packet.Udp (u, _) -> Some (u.Udp.src_port, u.Udp.dst_port)
              | Packet.Tcp (t, _) -> Some (t.Tcp.src_port, t.Tcp.dst_port)
              | Packet.Raw_l4 _ -> None )
        | Packet.Arp a ->
            ( None,
              Some (match a.Arp.oper with Arp.Request -> 1 | Arp.Reply -> 2),
              Some (a.Arp.sender_ip, a.Arp.target_ip),
              None )
        | Packet.Raw_l3 _ -> (None, None, None, None)
      in
      let field want have eq =
        match (want, have) with
        | None, _ -> true
        | Some w, Some h -> eq w h
        | Some _, None -> false
      in
      let prefix want addr =
        field want addr (fun (p, bits) a -> Ip.matches_prefix ~prefix:p ~bits a)
      in
      field m.Of_match.in_port (Some in_port) Int.equal
      && field m.Of_match.dl_src (Some eth.Ethernet.src) Mac.equal
      && field m.Of_match.dl_dst (Some eth.Ethernet.dst) Mac.equal
      && field m.Of_match.dl_vlan None Int.equal
      && field m.Of_match.dl_vlan_pcp None Int.equal
      && field m.Of_match.dl_type (Some eth.Ethernet.ethertype) Int.equal
      && field m.Of_match.nw_tos nw_tos Int.equal
      && field m.Of_match.nw_proto nw_proto Int.equal
      && prefix m.Of_match.nw_src (Option.map fst nw_addrs)
      && prefix m.Of_match.nw_dst (Option.map snd nw_addrs)
      && field m.Of_match.tp_src (Option.map fst ports) Int.equal
      && field m.Of_match.tp_dst (Option.map snd ports) Int.equal

let prop_view_classification_matches_decode =
  QCheck.Test.make ~name:"header-view classification agrees with decode"
    ~count:3000
    (QCheck.make
       ~print:(fun (pkt, m, in_port) ->
         Format.asprintf "%a / %a / in_port=%d" Packet.pp pkt Of_match.pp m
           in_port)
       QCheck.Gen.(triple gen_frame gen_match (int_range 1 2)))
    (fun (pkt, m, in_port) ->
      let frame = Packet.encode pkt in
      match Packet.peek_headers frame with
      | Error msg -> QCheck.Test.fail_report msg
      | Ok headers ->
          Of_match.matches m ~in_port headers
          = reference_matches m ~in_port frame
          && Packet.equal_headers headers (Packet.headers_of pkt))

let suite =
  [
    Alcotest.test_case "wildcard matches everything" `Quick
      test_wildcard_all_matches_everything;
    Alcotest.test_case "exact match" `Quick test_exact_match_self;
    Alcotest.test_case "5-tuple match" `Quick test_flow_key_match;
    Alcotest.test_case "prefix wildcard" `Quick test_prefix_wildcard;
    Alcotest.test_case "wire roundtrip (exact)" `Quick test_wire_roundtrip_exact;
    Alcotest.test_case "wire roundtrip (wildcards)" `Quick
      test_wire_roundtrip_wildcards;
    Alcotest.test_case "wire roundtrip (all-wildcard)" `Quick
      test_wire_roundtrip_all_wildcard;
    Alcotest.test_case "subsumption" `Quick test_subsumption;
    Alcotest.test_case "prefix subsumption" `Quick test_prefix_subsumption;
    QCheck_alcotest.to_alcotest prop_match_roundtrip;
    QCheck_alcotest.to_alcotest prop_exact_always_matches_source;
    QCheck_alcotest.to_alcotest prop_view_classification_matches_decode;
  ]
