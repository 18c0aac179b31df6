(* Tests for MAC and IPv4 address types, and unit conversions. *)

open Sdn_net
open Sdn_sim

let test_mac_string_roundtrip () =
  let mac = Mac.of_octets 0xde 0xad 0xbe 0xef 0x00 0x42 in
  Alcotest.(check string) "to_string" "de:ad:be:ef:00:42" (Mac.to_string mac);
  Alcotest.(check bool) "of_string roundtrip" true
    (Mac.equal mac (Mac.of_string_exn (Mac.to_string mac)))

let test_mac_parse_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "reject %S" s)
        true
        (Result.is_error (Mac.of_string s)))
    [ "aa:bb:cc"; "aa:bb:cc:dd:ee:zz"; ""; "aa:bb:cc:dd:ee:ff:00"; "1ff:00:00:00:00:00" ]

let test_mac_bytes_roundtrip () =
  let mac = Mac.of_octets 1 2 3 4 5 6 in
  let buf = Bytes.make 8 '\xff' in
  Mac.write mac buf 1;
  Alcotest.(check bool) "read back" true (Mac.equal mac (Mac.read buf 1));
  (* Bytes outside the field untouched. *)
  Alcotest.(check char) "prefix" '\xff' (Bytes.get buf 0);
  Alcotest.(check char) "suffix" '\xff' (Bytes.get buf 7)

let test_mac_broadcast () =
  Alcotest.(check bool) "broadcast" true (Mac.is_broadcast Mac.broadcast);
  Alcotest.(check bool) "zero not broadcast" false (Mac.is_broadcast Mac.zero);
  Alcotest.(check string) "broadcast text" "ff:ff:ff:ff:ff:ff"
    (Mac.to_string Mac.broadcast)

let test_mac_rejects_bad_octet () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Mac.of_octets 256 0 0 0 0 0);
       false
     with Invalid_argument _ -> true)

let test_ip_string_roundtrip () =
  let ip = Ip.make 192 168 1 200 in
  Alcotest.(check string) "to_string" "192.168.1.200" (Ip.to_string ip);
  Alcotest.(check bool) "roundtrip" true
    (Ip.equal ip (Ip.of_string_exn "192.168.1.200"))

let test_ip_parse_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "reject %S" s)
        true
        (Result.is_error (Ip.of_string s)))
    [ "1.2.3"; "1.2.3.4.5"; "1.2.3.256"; "a.b.c.d"; "" ]

let test_ip_unsigned_compare () =
  let low = Ip.make 1 0 0 0 and high = Ip.make 200 0 0 0 in
  (* 200.0.0.0 has the sign bit set in int32; unsigned compare must
     still put it above 1.0.0.0. *)
  Alcotest.(check bool) "unsigned order" true (Ip.compare low high < 0)

let test_ip_prefix_match () =
  let prefix = Ip.make 10 1 0 0 in
  Alcotest.(check bool) "inside /16" true
    (Ip.matches_prefix ~prefix ~bits:16 (Ip.make 10 1 200 3));
  Alcotest.(check bool) "outside /16" false
    (Ip.matches_prefix ~prefix ~bits:16 (Ip.make 10 2 0 1));
  Alcotest.(check bool) "/0 matches all" true
    (Ip.matches_prefix ~prefix ~bits:0 (Ip.make 8 8 8 8));
  Alcotest.(check bool) "/32 exact" false
    (Ip.matches_prefix ~prefix ~bits:32 (Ip.make 10 1 0 1))

let test_ip_bytes_roundtrip () =
  let ip = Ip.make 172 16 254 1 in
  let buf = Bytes.create 4 in
  Ip.write ip buf 0;
  Alcotest.(check bool) "roundtrip" true (Ip.equal ip (Ip.read buf 0))

let test_units () =
  Alcotest.(check (float 1e-9)) "mbps" 5e6 (Units.mbps_to_bps 5.0);
  Alcotest.(check (float 1e-9)) "bps" 5.0 (Units.bps_to_mbps 5e6);
  Alcotest.(check (float 1e-12)) "tx time" 80e-6
    (Units.transmission_time ~bytes:1000 ~bandwidth_bps:100e6);
  Alcotest.(check (float 1e-12)) "ms" 2e-3 (Units.ms 2.0);
  Alcotest.(check (float 1e-12)) "us" 3e-6 (Units.us 3.0);
  Alcotest.(check (float 1e-9)) "pps of 1000B at 100Mbps" 12500.0
    (Units.packets_per_second ~rate_mbps:100.0 ~frame_bytes:1000)

(* Naive oracle for the 16-bit-access MAC codec: one octet at a time,
   most significant first. *)
let reference_octets v = List.init 6 (fun i -> (v lsr (8 * (5 - i))) land 0xFF)

let reference_write v buf off =
  List.iteri (fun i o -> Bytes.set_uint8 buf (off + i) o) (reference_octets v)

let reference_read buf off =
  List.fold_left (fun acc i -> (acc lsl 8) lor Bytes.get_uint8 buf (off + i)) 0
    [ 0; 1; 2; 3; 4; 5 ]

(* Random 48-bit values, with broadcast, zero and all-octets-high
   (every octet >= 0x80) values mixed in. *)
let gen_mac48 =
  QCheck.Gen.(
    let halves = map2 (fun hi lo -> (hi lsl 24) lor lo) (int_bound 0xFFFFFF) (int_bound 0xFFFFFF) in
    frequency
      [
        (1, return 0xFFFF_FFFF_FFFF);
        (1, return 0);
        (2, map (fun v -> v lor 0x8080_8080_8080) halves);
        (6, halves);
      ])

let prop_mac_codec_matches_octetwise =
  QCheck.Test.make ~name:"mac read/write agree with the octet-wise reference"
    ~count:500
    (QCheck.make
       ~print:(fun (v, off) -> Printf.sprintf "0x%012x at %d" v off)
       QCheck.Gen.(pair gen_mac48 (int_bound 4)))
    (fun (v, off) ->
      let mac = Mac.of_int64 (Int64.of_int v) in
      let ours = Bytes.make 10 '\x5a' and theirs = Bytes.make 10 '\x5a' in
      Mac.write mac ours off;
      reference_write v theirs off;
      Bytes.equal ours theirs
      && Int64.to_int (Mac.to_int64 (Mac.read theirs off)) = v
      && reference_read ours off = v
      && Mac.is_broadcast mac = (v = 0xFFFF_FFFF_FFFF))

let suite =
  [
    Alcotest.test_case "mac string roundtrip" `Quick test_mac_string_roundtrip;
    Alcotest.test_case "mac parse errors" `Quick test_mac_parse_errors;
    Alcotest.test_case "mac bytes roundtrip" `Quick test_mac_bytes_roundtrip;
    Alcotest.test_case "mac broadcast" `Quick test_mac_broadcast;
    Alcotest.test_case "mac rejects bad octet" `Quick test_mac_rejects_bad_octet;
    Alcotest.test_case "ip string roundtrip" `Quick test_ip_string_roundtrip;
    Alcotest.test_case "ip parse errors" `Quick test_ip_parse_errors;
    Alcotest.test_case "ip unsigned compare" `Quick test_ip_unsigned_compare;
    Alcotest.test_case "ip prefix matching" `Quick test_ip_prefix_match;
    Alcotest.test_case "ip bytes roundtrip" `Quick test_ip_bytes_roundtrip;
    Alcotest.test_case "unit conversions" `Quick test_units;
    QCheck_alcotest.to_alcotest prop_mac_codec_matches_octetwise;
  ]
