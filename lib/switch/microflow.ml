open Sdn_net

type key = { in_port : int; headers : Packet.headers }

(* The key must cover every packet field Of_match.matches can consult:
   in_port plus the whole header view (both MACs, ethertype, ToS and
   the 5-tuple). dl_vlan never matches a simulated packet (frames carry
   no VLAN tag), so two packets with equal keys are indistinguishable
   to every rule. Only IPv4 TCP/UDP packets (the ones with ports) are
   cached. *)
let key_of_headers ~in_port (h : Packet.headers) =
  if h.Packet.h_tp_src < 0 then None else Some { in_port; headers = h }

let key_equal a b = a.in_port = b.in_port && Packet.equal_headers a.headers b.headers

let key_hash k = ((k.in_port * 131) + Packet.hash_headers k.headers) land max_int

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal = key_equal
  let hash = key_hash
end)

type 'v t = {
  capacity : int;
  table : 'v Key_tbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
}

let create ?(capacity = 8192) () =
  if capacity <= 0 then invalid_arg "Microflow.create: capacity";
  { capacity; table = Key_tbl.create 256; hits = 0; misses = 0; flushes = 0 }

let find t key =
  match Key_tbl.find_opt t.table key with
  | Some _ as v ->
      t.hits <- t.hits + 1;
      v
  | None ->
      t.misses <- t.misses + 1;
      None

let flush t =
  if Key_tbl.length t.table > 0 then begin
    Key_tbl.reset t.table;
    t.flushes <- t.flushes + 1
  end

let add t key v =
  (* Whole-cache reset on overflow: crude but deterministic, and the
     steady state (a working set far below capacity) never hits it. *)
  if Key_tbl.length t.table >= t.capacity then flush t;
  Key_tbl.replace t.table key v

let length t = Key_tbl.length t.table
let capacity t = t.capacity
let hits t = t.hits
let misses t = t.misses
let flushes t = t.flushes
