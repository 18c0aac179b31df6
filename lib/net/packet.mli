(** Whole Ethernet frames: construction, binary encoding, parsing.

    A [Packet.t] is a structured view of a frame. [encode] produces the
    exact on-wire bytes — the byte counts that drive every
    control-path-load number in the reproduction — and [decode] parses
    them back (used when a [packet_out] carries a full packet that the
    switch must re-forward). *)

type l4 =
  | Udp of Udp.t * Bytes.t  (** header, application payload *)
  | Tcp of Tcp.t * Bytes.t
  | Raw_l4 of int * Bytes.t
      (** unparsed transport: protocol number, payload bytes *)

type l3 =
  | Ipv4 of Ipv4.t * l4
  | Arp of Arp.t
  | Raw_l3 of Bytes.t  (** unparsed network payload *)

type t = { eth : Ethernet.t; l3 : l3 }

val size : t -> int
(** Exact encoded size in bytes (without recomputing the encoding). *)

val encode : t -> Bytes.t
(** Serialize to wire format, computing all checksums. *)

val decode : Bytes.t -> (t, string) result
(** Parse a frame. Transport layers of IPv4 packets are parsed for UDP
    and TCP; other protocols come back as [Raw_l4]. *)

val udp :
  src_mac:Mac.t ->
  dst_mac:Mac.t ->
  src_ip:Ip.t ->
  dst_ip:Ip.t ->
  src_port:int ->
  dst_port:int ->
  ?ttl:int ->
  ?ident:int ->
  payload:Bytes.t ->
  unit ->
  t
(** Build a UDP-in-IPv4-in-Ethernet frame. *)

val udp_frame_of_size :
  src_mac:Mac.t ->
  dst_mac:Mac.t ->
  src_ip:Ip.t ->
  dst_ip:Ip.t ->
  src_port:int ->
  dst_port:int ->
  frame_size:int ->
  payload_fill:(Bytes.t -> unit) ->
  t
(** Build a UDP frame whose total encoded size is exactly [frame_size]
    bytes (the paper uses 1000-byte frames). [payload_fill] writes the
    application payload in place (e.g. a pktgen-style tag). Raises
    [Invalid_argument] if [frame_size] is smaller than the combined
    headers (42 bytes). *)

val tcp :
  src_mac:Mac.t ->
  dst_mac:Mac.t ->
  src_ip:Ip.t ->
  dst_ip:Ip.t ->
  src_port:int ->
  dst_port:int ->
  ?ttl:int ->
  ?ident:int ->
  ?seq:int32 ->
  ?ack_seq:int32 ->
  ?flags:Tcp.flags ->
  ?window:int ->
  payload:Bytes.t ->
  unit ->
  t

val arp : src_mac:Mac.t -> dst_mac:Mac.t -> Arp.t -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val min_udp_frame : int
(** Header overhead of a UDP frame: Ethernet + IPv4 + UDP = 42 bytes. *)

(** {2 Header view}

    Classification reads only protocol headers, as a datapath does:
    {!peek_headers} reads them in place from a frame (or from the
    [miss_send_len]-byte prefix a buffered [packet_in] carries), with
    no payload copy and no transport checksum. It is the one view the
    flow table, the microflow cache and the controller classify on;
    a full {!decode} runs only where an action rewrites a header. *)

type headers = {
  h_eth : Ethernet.t;
  h_nw_proto : int;
      (** IPv4 protocol, or the ARP operation (1 request, 2 reply);
          [-1] for any other ethertype *)
  h_nw_tos : int;  (** IPv4 ToS byte; [-1] unless IPv4 *)
  h_nw_src : Ip.t;
      (** IPv4 source, or the ARP sender address; [Ip.any] when
          [h_nw_proto < 0] *)
  h_nw_dst : Ip.t;  (** IPv4 destination, or the ARP target address *)
  h_tp_src : int;
      (** UDP/TCP source port; [-1] when absent. Ports are present only
          in IPv4 UDP/TCP headers. *)
  h_tp_dst : int;  (** UDP/TCP destination port; [-1] when absent *)
}

val peek_headers : Bytes.t -> (headers, string) result
(** Read the Ethernet, IPv4 or ARP, and UDP/TCP port headers from a
    possibly-truncated frame. The IPv4 header checksum and the ARP
    header are validated as {!decode} does; payload integrity is not.
    Ports are absent when the prefix ends before them. *)

val headers_of : t -> headers
(** The view of a structured packet: for a well-formed frame,
    [headers_of p] equals [peek_headers (encode p)]. *)

val flow_key_of_headers : headers -> Flow_key.t option
(** The 5-tuple, if the headers carry ports (IPv4 UDP or TCP). *)

val flow_key : t -> Flow_key.t option
(** [flow_key p] is [flow_key_of_headers (headers_of p)]. *)

val peek_flow_key : Bytes.t -> Flow_key.t option
(** The 5-tuple from a possibly-truncated frame prefix. *)

val equal_headers : headers -> headers -> bool
val hash_headers : headers -> int
