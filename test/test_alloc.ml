(* Allocation regression tests: minor-heap words per operation on the
   per-event and per-frame hot paths. Counts, not time, so they hold on
   any host; they are measured on native code only, where the compiler
   unboxes what these budgets assume. *)

open Sdn_sim
open Sdn_net

let native = Sys.backend_type = Sys.Native

(* Mean minor words per call of [f] over [n] calls. *)
let words_per_call ?(n = 1000) f =
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let check_budget what ~budget words =
  if native then
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.2f words <= %.0f" what words budget)
      true (words <= budget)

let pending = 30_000

(* Pseudo-random but fixed delays, so the queue is a real heap rather
   than an append-only sequence. *)
let delay i = float_of_int ((i * 7919) mod 30011) *. 1e-3

let nothing () = ()

(* A push allocates the event handle, its boxed time and the one heap
   cell the handle lives in; sifting it into place allocates nothing. *)
let test_schedule () =
  let engine = Engine.create () in
  for i = 1 to pending do
    ignore (Engine.schedule engine ~delay:(delay i) nothing)
  done;
  (* The delays are boxed up front (list elements), so the count is the
     engine's own and not the caller's boxing of its argument. *)
  let delays = ref (List.init 1000 (fun k -> delay (pending + k))) in
  let words =
    words_per_call (fun () ->
        match !delays with
        | d :: rest ->
            delays := rest;
            ignore (Engine.schedule engine ~delay:d nothing)
        | [] -> ())
  in
  check_budget "Engine.schedule at 30,000 pending" ~budget:12.0 words

(* A pop hands back the cell its push allocated. *)
let test_pop () =
  let heap = Heap.create ~cmp:Int.compare () in
  for i = 1 to pending do
    Heap.push heap ((i * 7919) mod 30011)
  done;
  let words = words_per_call (fun () -> ignore (Heap.pop heap)) in
  check_budget "Heap.pop at 30,000 elements" ~budget:0.0 words

let test_mac_read () =
  let buf = Bytes.of_string "\x9e\x80\xff\x00\xc1\x07" in
  let words =
    words_per_call (fun () -> ignore (Sys.opaque_identity (Mac.read buf 0)))
  in
  check_budget "Mac.read" ~budget:3.0 words

(* The datapath's per-frame classification of a 1000-byte UDP frame:
   the header view, then a flow-table lookup answered by the microflow
   cache. No payload is copied and no transport checksum is summed. *)
let test_classify_frame () =
  let pkt =
    Packet.udp_frame_of_size ~src_mac:(Mac.of_octets 2 0 0 0 0 1)
      ~dst_mac:(Mac.of_octets 2 0 0 0 0 2) ~src_ip:(Ip.make 10 0 0 1)
      ~dst_ip:(Ip.make 10 0 0 2) ~src_port:1000 ~dst_port:9 ~frame_size:1000
      ~payload_fill:(fun _ -> ())
  in
  let frame = Packet.encode pkt in
  let table = Sdn_switch.Flow_table.create ~capacity:64 () in
  ignore
    (Sdn_switch.Flow_table.insert table
       (Sdn_switch.Flow_entry.of_flow_mod
          (Sdn_openflow.Of_flow_mod.add
             ~match_:
               (Sdn_openflow.Of_match.of_flow_key
                  (Option.get (Packet.flow_key pkt)))
             ~actions:[] ())
          ~now:0.0));
  let classify () =
    match Packet.peek_headers frame with
    | Ok headers ->
        ignore
          (Sys.opaque_identity
             (Sdn_switch.Flow_table.classify table ~in_port:1 headers))
    | Error msg -> Alcotest.fail msg
  in
  classify ();
  Alcotest.(check int) "classified" 1 (Sdn_switch.Flow_table.hits table);
  let words = words_per_call classify in
  check_budget "classifying a 1000-byte UDP frame" ~budget:48.0 words

let suite =
  [
    Alcotest.test_case "Engine.schedule words at 30,000 pending" `Quick
      test_schedule;
    Alcotest.test_case "Heap.pop allocates no cell" `Quick test_pop;
    Alcotest.test_case "Mac.read words" `Quick test_mac_read;
    Alcotest.test_case "frame classification words" `Quick test_classify_frame;
  ]
