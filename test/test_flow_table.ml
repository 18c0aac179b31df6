(* Tests for the flow table: priority lookup, replacement, deletion,
   timeouts, eviction, counters. *)

open Sdn_net
open Sdn_openflow
open Sdn_switch

let mac1 = Mac.of_octets 0x02 0 0 0 0 1
let mac2 = Mac.of_octets 0x02 0 0 0 0 2
let ip2 = Ip.make 10 0 0 2

let udp_pkt ~src_port =
  Packet.udp ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:(Ip.make 10 0 0 1) ~dst_ip:ip2
    ~src_port ~dst_port:9 ~payload:(Bytes.of_string "x") ()

let entry_for ?(priority = 1) ?(idle = 0) ?(hard = 0) ~out_port pkt ~now =
  let match_ = Of_match.of_flow_key (Option.get (Packet.flow_key pkt)) in
  Flow_entry.of_flow_mod
    (Of_flow_mod.add ~priority ~idle_timeout:idle ~hard_timeout:hard ~match_
       ~actions:[ Of_action.output out_port ] ())
    ~now

let wildcard_entry ?(priority = 0) ~out_port ~now () =
  Flow_entry.of_flow_mod
    (Of_flow_mod.add ~priority ~match_:Of_match.wildcard_all
       ~actions:[ Of_action.output out_port ] ())
    ~now

let out_port_of entry =
  match entry.Flow_entry.actions with
  | [ Of_action.Output { port; _ } ] -> port
  | _ -> -1

let test_miss_on_empty () =
  let table = Flow_table.create ~capacity:10 () in
  Alcotest.(check bool) "miss" true
    (Flow_table.lookup table ~in_port:1 (udp_pkt ~src_port:1) = None);
  Alcotest.(check int) "lookups" 1 (Flow_table.lookups table);
  Alcotest.(check int) "misses" 1 (Flow_table.misses table)

let test_insert_and_hit () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  ignore (Flow_table.insert table (entry_for ~out_port:2 pkt ~now:0.0));
  (match Flow_table.lookup table ~in_port:1 pkt with
  | Some e -> Alcotest.(check int) "right entry" 2 (out_port_of e)
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check bool) "other flow misses" true
    (Flow_table.lookup table ~in_port:1 (udp_pkt ~src_port:2) = None)

let test_priority_wins () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  ignore (Flow_table.insert table (wildcard_entry ~priority:0 ~out_port:9 ~now:0.0 ()));
  ignore (Flow_table.insert table (entry_for ~priority:5 ~out_port:2 pkt ~now:0.0));
  (match Flow_table.lookup table ~in_port:1 pkt with
  | Some e -> Alcotest.(check int) "high priority" 2 (out_port_of e)
  | None -> Alcotest.fail "expected hit");
  (* A different flow falls through to the wildcard. *)
  match Flow_table.lookup table ~in_port:1 (udp_pkt ~src_port:7) with
  | Some e -> Alcotest.(check int) "wildcard" 9 (out_port_of e)
  | None -> Alcotest.fail "expected wildcard hit"

let test_replace_same_match_priority () =
  let pkt = udp_pkt ~src_port:1 in
  List.iter
    (fun (kind, entry) ->
      let table = Flow_table.create ~capacity:10 () in
      (* An unrelated rule stays put through the replacement. *)
      ignore
        (Flow_table.insert table
           (entry_for ~priority:7 ~out_port:9 (udp_pkt ~src_port:2) ~now:0.0));
      ignore (Flow_table.insert table (entry ~out_port:2 ~now:0.0));
      let result = Flow_table.insert table (entry ~out_port:3 ~now:1.0) in
      Alcotest.(check bool) (kind ^ ": replaced") true
        (result = Flow_table.Replaced);
      Alcotest.(check int) (kind ^ ": length") 2 (Flow_table.length table);
      match Flow_table.lookup table ~in_port:1 pkt with
      | Some e ->
          Alcotest.(check int) (kind ^ ": new actions") 3 (out_port_of e)
      | None -> Alcotest.fail "expected hit")
    [
      ("exact", fun ~out_port ~now -> entry_for ~out_port pkt ~now);
      ("wildcard", fun ~out_port ~now -> wildcard_entry ~out_port ~now ());
    ]

let test_capacity_eviction () =
  let table = Flow_table.create ~eviction:true ~capacity:3 () in
  for p = 1 to 3 do
    ignore (Flow_table.insert table (entry_for ~out_port:2 (udp_pkt ~src_port:p) ~now:(float_of_int p)))
  done;
  (* Touch flows 2 and 3 so flow 1 is LRU. *)
  List.iter
    (fun p ->
      match Flow_table.lookup table ~in_port:1 (udp_pkt ~src_port:p) with
      | Some e -> Flow_entry.touch e ~now:10.0 ~bytes:100
      | None -> Alcotest.fail "expected hit")
    [ 2; 3 ];
  let result = Flow_table.insert table (entry_for ~out_port:2 (udp_pkt ~src_port:4) ~now:11.0) in
  (match result with
  | Flow_table.Evicted victim ->
      (* The evicted entry is the untouched one (flow 1). *)
      Alcotest.(check bool) "victim is LRU" true
        (Of_match.matches victim.Flow_entry.match_ ~in_port:1
           (Packet.headers_of (udp_pkt ~src_port:1)))
  | _ -> Alcotest.fail "expected eviction");
  Alcotest.(check int) "length stays at capacity" 3 (Flow_table.length table);
  Alcotest.(check int) "eviction counted" 1 (Flow_table.evictions table);
  Alcotest.(check bool) "evicted flow now misses" true
    (Flow_table.lookup table ~in_port:1 (udp_pkt ~src_port:1) = None)

let test_table_full_without_eviction () =
  let table = Flow_table.create ~eviction:false ~capacity:1 () in
  ignore (Flow_table.insert table (entry_for ~out_port:2 (udp_pkt ~src_port:1) ~now:0.0));
  let result = Flow_table.insert table (entry_for ~out_port:2 (udp_pkt ~src_port:2) ~now:0.0) in
  Alcotest.(check bool) "rejected" true (result = Flow_table.Table_full)

let test_idle_timeout_expiry () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  ignore (Flow_table.insert table (entry_for ~idle:5 ~out_port:2 pkt ~now:0.0));
  Alcotest.(check int) "not expired yet" 0
    (List.length (Flow_table.expire table ~now:4.9));
  (* A touch at 4 pushes idle expiry to 9. *)
  (match Flow_table.lookup table ~in_port:1 pkt with
  | Some e -> Flow_entry.touch e ~now:4.0 ~bytes:100
  | None -> Alcotest.fail "hit expected");
  Alcotest.(check int) "still alive at 8" 0
    (List.length (Flow_table.expire table ~now:8.0));
  Alcotest.(check int) "expires at 9" 1
    (List.length (Flow_table.expire table ~now:9.0));
  Alcotest.(check int) "expirations counter" 1 (Flow_table.expirations table);
  Alcotest.(check bool) "gone" true (Flow_table.lookup table ~in_port:1 pkt = None)

let test_hard_timeout_expiry () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  ignore (Flow_table.insert table (entry_for ~hard:3 ~out_port:2 pkt ~now:0.0));
  (* Touching does not save a hard-timed-out rule. *)
  (match Flow_table.lookup table ~in_port:1 pkt with
  | Some e -> Flow_entry.touch e ~now:2.9 ~bytes:100
  | None -> Alcotest.fail "hit expected");
  Alcotest.(check int) "hard expiry" 1 (List.length (Flow_table.expire table ~now:3.0))

let test_delete_strict_and_loose () =
  let table = Flow_table.create ~capacity:10 () in
  let p1 = udp_pkt ~src_port:1 and p2 = udp_pkt ~src_port:2 in
  ignore (Flow_table.insert table (entry_for ~priority:1 ~out_port:2 p1 ~now:0.0));
  ignore (Flow_table.insert table (entry_for ~priority:2 ~out_port:2 p2 ~now:0.0));
  (* Strict delete with wrong priority removes nothing. *)
  let m1 = Of_match.of_flow_key (Option.get (Packet.flow_key p1)) in
  Alcotest.(check int) "strict wrong priority" 0
    (Flow_table.delete table ~strict:true ~match_:m1 ~priority:9 ());
  Alcotest.(check int) "strict right priority" 1
    (Flow_table.delete table ~strict:true ~match_:m1 ~priority:1 ());
  (* Loose delete with a wildcard removes the rest. *)
  Alcotest.(check int) "loose wildcard" 1
    (Flow_table.delete table ~strict:false ~match_:Of_match.wildcard_all ~priority:0 ());
  Alcotest.(check int) "empty" 0 (Flow_table.length table)

let test_stats_counters () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  ignore (Flow_table.insert table (entry_for ~out_port:2 pkt ~now:0.0));
  (match Flow_table.lookup table ~in_port:1 pkt with
  | Some e ->
      Flow_entry.touch e ~now:1.0 ~bytes:1000;
      Flow_entry.touch e ~now:2.0 ~bytes:1000
  | None -> Alcotest.fail "hit");
  match Flow_table.to_stats table ~now:3.0 with
  | [ stats ] ->
      Alcotest.(check int64) "packets" 2L stats.Of_stats.packet_count;
      Alcotest.(check int64) "bytes" 2000L stats.Of_stats.byte_count;
      Alcotest.(check int32) "duration" 3l stats.Of_stats.duration_sec
  | _ -> Alcotest.fail "expected one stats entry"

(* ---- Microflow fast path ---- *)

let test_microflow_counters () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  ignore (Flow_table.insert table (entry_for ~out_port:2 pkt ~now:0.0));
  for _ = 1 to 5 do
    ignore (Flow_table.lookup table ~in_port:1 pkt)
  done;
  Alcotest.(check int) "one cold miss" 1 (Flow_table.microflow_misses table);
  Alcotest.(check int) "rest served from cache" 4
    (Flow_table.microflow_hits table);
  Alcotest.(check int) "one cached entry" 1 (Flow_table.microflow_length table)

let test_microflow_invalidated_by_mutations () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  ignore (Flow_table.insert table (entry_for ~out_port:2 pkt ~now:0.0));
  ignore (Flow_table.lookup table ~in_port:1 pkt);
  ignore (Flow_table.lookup table ~in_port:1 pkt);
  Alcotest.(check int) "warm" 1 (Flow_table.microflow_hits table);
  (* Replacing the rule must flush the cache and serve the new actions. *)
  ignore (Flow_table.insert table (entry_for ~out_port:7 pkt ~now:1.0));
  (match Flow_table.lookup table ~in_port:1 pkt with
  | Some e -> Alcotest.(check int) "new actions after insert" 7 (out_port_of e)
  | None -> Alcotest.fail "expected hit");
  (* Deleting it must flush again: a stale hit would forward into a
     void. *)
  let m = Of_match.of_flow_key (Option.get (Packet.flow_key pkt)) in
  ignore (Flow_table.delete table ~strict:false ~match_:m ~priority:0 ());
  Alcotest.(check bool) "miss after delete" true
    (Flow_table.lookup table ~in_port:1 pkt = None);
  Alcotest.(check bool) "flushes counted" true
    (Flow_table.microflow_flushes table >= 2)

let test_microflow_expiry_invalidates () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  ignore (Flow_table.insert table (entry_for ~hard:3 ~out_port:2 pkt ~now:0.0));
  ignore (Flow_table.lookup table ~in_port:1 pkt);
  ignore (Flow_table.lookup table ~in_port:1 pkt);
  ignore (Flow_table.expire table ~now:3.0);
  Alcotest.(check bool) "miss after expiry" true
    (Flow_table.lookup table ~in_port:1 pkt = None)

let test_microflow_negative_cache_invalidated () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  (* Cache a negative result, then install a matching rule: the flush
     on insert must clear the cached miss. *)
  Alcotest.(check bool) "cold miss" true
    (Flow_table.lookup table ~in_port:1 pkt = None);
  Alcotest.(check bool) "cached miss" true
    (Flow_table.lookup table ~in_port:1 pkt = None);
  Alcotest.(check int) "negative result cached" 1
    (Flow_table.microflow_hits table);
  ignore (Flow_table.insert table (entry_for ~out_port:2 pkt ~now:0.0));
  match Flow_table.lookup table ~in_port:1 pkt with
  | Some e -> Alcotest.(check int) "rule found after install" 2 (out_port_of e)
  | None -> Alcotest.fail "stale negative cache entry"

let test_microflow_keyed_on_in_port () =
  let table = Flow_table.create ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  (* A rule that pins the ingress port: the same frame on another port
     must not reuse the cached result. *)
  let key_match = Of_match.of_flow_key (Option.get (Packet.flow_key pkt)) in
  let match_ = { key_match with Of_match.in_port = Some 1 } in
  ignore
    (Flow_table.insert table
       (Flow_entry.of_flow_mod
          (Of_flow_mod.add ~priority:1 ~match_
             ~actions:[ Of_action.output 2 ] ())
          ~now:0.0));
  Alcotest.(check bool) "hits on port 1" true
    (Flow_table.lookup table ~in_port:1 pkt <> None);
  Alcotest.(check bool) "misses on port 3" true
    (Flow_table.lookup table ~in_port:3 pkt = None)

let test_microflow_disabled () =
  let table = Flow_table.create ~microflow:false ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  ignore (Flow_table.insert table (entry_for ~out_port:2 pkt ~now:0.0));
  for _ = 1 to 3 do
    Alcotest.(check bool) "still hits" true
      (Flow_table.lookup table ~in_port:1 pkt <> None)
  done;
  Alcotest.(check int) "no cache hits" 0 (Flow_table.microflow_hits table);
  Alcotest.(check int) "no cache misses" 0 (Flow_table.microflow_misses table)

let test_microflow_audit_clean () =
  let check = Sdn_check.Check.create () in
  let table = Flow_table.create ~check ~capacity:10 () in
  let pkt = udp_pkt ~src_port:1 in
  ignore (Flow_table.insert table (entry_for ~out_port:2 pkt ~now:0.0));
  for _ = 1 to 10 do
    ignore (Flow_table.lookup table ~in_port:1 pkt)
  done;
  Alcotest.(check int) "hits audited clean" 0
    (Sdn_check.Check.violation_count check);
  Alcotest.(check bool) "audits recorded" true
    (Sdn_check.Check.events_seen check > 0)

(* The fast path must be semantically invisible: a cached table and an
   uncached one driven through an identical randomized trace of
   inserts, deletes, expiries and lookups answer every lookup the same
   way. *)
let prop_microflow_equivalence =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun p -> `Lookup p) (int_range 1 40));
          (3, map2 (fun p prio -> `Insert (p, prio)) (int_range 1 40)
                (int_range 1 3));
          (1, map (fun p -> `Delete p) (int_range 1 40));
          (1, map (fun t -> `Expire t) (float_bound_exclusive 100.0));
        ])
  in
  QCheck.Test.make ~name:"microflow-cached table behaves like uncached"
    ~count:120
    QCheck.(make ~print:(fun l -> string_of_int (List.length l))
       Gen.(list_size (int_range 1 120) op_gen))
    (fun ops ->
      let cached = Flow_table.create ~capacity:16 () in
      let plain = Flow_table.create ~microflow:false ~capacity:16 () in
      let now = ref 0.0 in
      List.for_all
        (fun op ->
          now := !now +. 0.5;
          match op with
          | `Insert (p, prio) ->
              let entry () =
                entry_for ~priority:prio ~idle:30 ~out_port:p
                  (udp_pkt ~src_port:p) ~now:!now
              in
              ignore (Flow_table.insert cached (entry ()));
              ignore (Flow_table.insert plain (entry ()));
              true
          | `Delete p ->
              let m =
                Of_match.of_flow_key
                  (Option.get (Packet.flow_key (udp_pkt ~src_port:p)))
              in
              let a =
                Flow_table.delete cached ~strict:false ~match_:m ~priority:0 ()
              in
              let b =
                Flow_table.delete plain ~strict:false ~match_:m ~priority:0 ()
              in
              a = b
          | `Expire t ->
              List.length (Flow_table.expire cached ~now:t)
              = List.length (Flow_table.expire plain ~now:t)
          | `Lookup p ->
              let pkt = udp_pkt ~src_port:p in
              let a = Flow_table.lookup cached ~in_port:1 pkt in
              let b = Flow_table.lookup plain ~in_port:1 pkt in
              let c =
                Flow_table.lookup_uncached cached ~in_port:1
                  (Packet.headers_of pkt)
              in
              (match (a, b) with
              | None, None -> c = None
              | Some ea, Some eb ->
                  out_port_of ea = out_port_of eb
                  && ea.Flow_entry.priority = eb.Flow_entry.priority
                  && (match c with Some ec -> ec == ea | None -> false)
              | Some _, None | None, Some _ -> false))
        ops)

let prop_inserted_flow_is_found =
  QCheck.Test.make ~name:"every inserted 5-tuple rule is found" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (int_range 1 60000))
    (fun ports ->
      let ports = List.sort_uniq compare ports in
      let table = Flow_table.create ~capacity:100 () in
      List.iter
        (fun p -> ignore (Flow_table.insert table (entry_for ~out_port:2 (udp_pkt ~src_port:p) ~now:0.0)))
        ports;
      List.for_all
        (fun p -> Flow_table.lookup table ~in_port:1 (udp_pkt ~src_port:p) <> None)
        ports)

(* ---- Model-based check against a naive whole-table reference ---- *)

(* The oracle: every rule in install order, each operation a scan of
   the whole list. The indexed table must keep exactly these
   semantics. *)
module Model = struct
  type t = {
    capacity : int;
    eviction : bool;
    mutable rules : Flow_entry.t list;
  }

  let remove t r = t.rules <- List.filter (fun x -> x != r) t.rules
  let append t r = t.rules <- t.rules @ [ r ]

  let insert t (e : Flow_entry.t) =
    let identical (r : Flow_entry.t) =
      r.Flow_entry.priority = e.Flow_entry.priority
      && Of_match.equal r.Flow_entry.match_ e.Flow_entry.match_
    in
    match (List.find_opt identical t.rules, t.rules) with
    | Some old, _ ->
        remove t old;
        append t e;
        Flow_table.Replaced
    | None, _ when List.length t.rules < t.capacity ->
        append t e;
        Flow_table.Installed
    | None, [] -> Flow_table.Table_full
    | None, _ when not t.eviction -> Flow_table.Table_full
    | None, first :: _ ->
        (* Lowest priority, then least recently used, then oldest. *)
        let before (a : Flow_entry.t) (b : Flow_entry.t) =
          a.Flow_entry.priority < b.Flow_entry.priority
          || a.Flow_entry.priority = b.Flow_entry.priority
             && a.Flow_entry.last_used < b.Flow_entry.last_used
        in
        let victim =
          List.fold_left (fun v r -> if before r v then r else v) first t.rules
        in
        remove t victim;
        append t e;
        Flow_table.Evicted victim

  let delete t ~strict ~out_port ~match_ ~priority =
    let doomed (r : Flow_entry.t) =
      (if strict then
         r.Flow_entry.priority = priority
         && Of_match.equal r.Flow_entry.match_ match_
       else Of_match.subsumes ~general:match_ ~specific:r.Flow_entry.match_)
      && (out_port = Of_wire.Port.none
         || List.exists
              (function
                | Of_action.Output { port; _ } -> port = out_port
                | _ -> false)
              r.Flow_entry.actions)
    in
    let gone, kept = List.partition doomed t.rules in
    t.rules <- kept;
    List.length gone

  let expire t ~now =
    let gone, kept = List.partition (Flow_entry.is_expired ~now) t.rules in
    t.rules <- kept;
    gone

  let lookup t ~in_port headers =
    List.fold_left
      (fun best (r : Flow_entry.t) ->
        if not (Of_match.matches r.Flow_entry.match_ ~in_port headers) then best
        else
          match best with
          | Some (b : Flow_entry.t)
            when b.Flow_entry.priority >= r.Flow_entry.priority -> best
          | Some _ | None -> Some r)
      None t.rules
end

(* The match pool: exact 5-tuples (three of them, each also pinned to
   ingress port 1 or 2 — same index bucket, different rule) and
   wildcards, one of which is a 5-tuple with the source port left
   open. *)
let model_matches =
  let exact src_port in_port =
    {
      (Of_match.of_flow_key (Option.get (Packet.flow_key (udp_pkt ~src_port))))
      with
      Of_match.in_port;
    }
  in
  let wild = Of_match.wildcard_all in
  Array.of_list
    (List.concat_map
       (fun p -> [ exact p None; exact p (Some 1); exact p (Some 2) ])
       [ 1; 2; 3 ]
    @ [
        wild;
        { wild with Of_match.in_port = Some 1 };
        { wild with Of_match.dl_type = Some Ethernet.ethertype_ipv4;
          nw_proto = Some 17 };
        { (exact 1 None) with Of_match.tp_src = None };
      ])

type model_op =
  | Insert of { m : int; prio : int; idle : int; hard : int; out : int }
  | Delete of { m : int; strict : bool; prio : int; out : int option }
  | Expire
  | Lookup of { in_port : int; src_port : int }
  | Tick

let show_model_op = function
  | Insert { m; prio; idle; hard; out } ->
      Printf.sprintf "insert m%d p%d idle=%d hard=%d out=%d" m prio idle hard
        out
  | Delete { m; strict; prio; out } ->
      Printf.sprintf "delete%s m%d p%d out=%s"
        (if strict then "-strict" else "") m prio
        (match out with Some o -> string_of_int o | None -> "any")
  | Expire -> "expire"
  | Lookup { in_port; src_port } ->
      Printf.sprintf "lookup in=%d src=%d" in_port src_port
  | Tick -> "tick"

let model_op_gen =
  let open QCheck.Gen in
  let m = int_bound (Array.length model_matches - 1) and prio = int_range 1 3 in
  frequency
    [
      ( 5,
        map3
          (fun (m, prio) (idle, hard) out ->
            Insert { m; prio; idle; hard; out })
          (pair m prio)
          (pair (oneofl [ 0; 2; 5 ]) (oneofl [ 0; 4 ]))
          (int_range 1 3) );
      ( 1,
        map3
          (fun (m, prio) strict out -> Delete { m; strict; prio; out })
          (pair m prio) bool
          (opt (int_range 1 3)) );
      (1, return Expire);
      ( 4,
        map2
          (fun in_port src_port -> Lookup { in_port; src_port })
          (int_range 1 2) (int_range 1 4) );
      (2, return Tick);
    ]

let prop_flow_table_model =
  QCheck.Test.make ~name:"flow table agrees with a naive whole-table model"
    ~count:300
    QCheck.(
      make
        ~print:(fun (eviction, ops) ->
          Printf.sprintf "eviction=%b\n%s" eviction
            (String.concat "\n" (List.map show_model_op ops)))
        ~shrink:Shrink.(pair bool list)
        Gen.(pair bool (list_size (int_range 1 80) model_op_gen)))
    (fun (eviction, ops) ->
      let capacity = 5 in
      let table = Flow_table.create ~eviction ~capacity () in
      let model = { Model.capacity; eviction; rules = [] } in
      let now = ref 0.0 in
      let same_list a b =
        List.length a = List.length b && List.for_all2 ( == ) a b
      in
      let step op =
        match op with
        | Insert { m; prio; idle; hard; out } -> (
            let entry =
              Flow_entry.of_flow_mod
                (Of_flow_mod.add ~priority:prio ~idle_timeout:idle
                   ~hard_timeout:hard ~match_:model_matches.(m)
                   ~actions:[ Of_action.output out ] ())
                ~now:!now
            in
            match (Flow_table.insert table entry, Model.insert model entry) with
            | Flow_table.Installed, Flow_table.Installed
            | Flow_table.Replaced, Flow_table.Replaced
            | Flow_table.Table_full, Flow_table.Table_full -> true
            | Flow_table.Evicted a, Flow_table.Evicted b -> a == b
            | ( ( Flow_table.Installed | Flow_table.Replaced
                | Flow_table.Evicted _ | Flow_table.Table_full ),
                _ ) ->
                false)
        | Delete { m; strict; prio; out } ->
            let out_port = Option.value out ~default:Of_wire.Port.none in
            Flow_table.delete table ~strict ~out_port ~match_:model_matches.(m)
              ~priority:prio ()
            = Model.delete model ~strict ~out_port ~match_:model_matches.(m)
                ~priority:prio
        | Expire ->
            same_list (Flow_table.expire table ~now:!now)
              (Model.expire model ~now:!now)
        | Lookup { in_port; src_port } -> (
            let headers = Packet.headers_of (udp_pkt ~src_port) in
            match
              (Flow_table.lookup_uncached table ~in_port headers,
               Model.lookup model ~in_port headers)
            with
            | None, None -> true
            | Some a, Some b ->
                (* Ties at the top priority may resolve to a different
                   rule; the answer must still be a live matching rule
                   of the winning priority. *)
                let ok =
                  a.Flow_entry.priority = b.Flow_entry.priority
                  && List.memq a model.Model.rules
                  && Of_match.matches a.Flow_entry.match_ ~in_port headers
                in
                Flow_entry.touch a ~now:!now ~bytes:100;
                ok
            | Some _, None | None, Some _ -> false)
        | Tick ->
            now := !now +. 0.75;
            true
      in
      List.for_all
        (fun op ->
          step op
          && Flow_table.length table = List.length model.Model.rules
          && same_list (Flow_table.entries table) model.Model.rules)
        ops)

let suite =
  [
    Alcotest.test_case "miss on empty table" `Quick test_miss_on_empty;
    Alcotest.test_case "insert and hit" `Quick test_insert_and_hit;
    Alcotest.test_case "priority wins" `Quick test_priority_wins;
    Alcotest.test_case "replace on equal match+priority" `Quick
      test_replace_same_match_priority;
    Alcotest.test_case "LRU eviction at capacity" `Quick test_capacity_eviction;
    Alcotest.test_case "table full without eviction" `Quick
      test_table_full_without_eviction;
    Alcotest.test_case "idle timeout" `Quick test_idle_timeout_expiry;
    Alcotest.test_case "hard timeout" `Quick test_hard_timeout_expiry;
    Alcotest.test_case "strict and loose delete" `Quick test_delete_strict_and_loose;
    Alcotest.test_case "per-rule counters" `Quick test_stats_counters;
    Alcotest.test_case "microflow hit/miss counters" `Quick
      test_microflow_counters;
    Alcotest.test_case "microflow invalidated by mutations" `Quick
      test_microflow_invalidated_by_mutations;
    Alcotest.test_case "microflow invalidated by expiry" `Quick
      test_microflow_expiry_invalidates;
    Alcotest.test_case "negative cache entry invalidated" `Quick
      test_microflow_negative_cache_invalidated;
    Alcotest.test_case "microflow keyed on ingress port" `Quick
      test_microflow_keyed_on_in_port;
    Alcotest.test_case "microflow disabled" `Quick test_microflow_disabled;
    Alcotest.test_case "checker audits cache hits clean" `Quick
      test_microflow_audit_clean;
    QCheck_alcotest.to_alcotest prop_microflow_equivalence;
    QCheck_alcotest.to_alcotest prop_inserted_flow_is_found;
    QCheck_alcotest.to_alcotest prop_flow_table_model;
  ]
