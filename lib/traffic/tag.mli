(** Pktgen-style payload tag.

    The generator stamps the first bytes of each UDP payload with a
    magic word, the flow id, the packet's sequence number within the
    flow and the flow's total packet count. The measurement layer reads
    the tag back at the switch's ingress and egress taps to attribute
    delays per flow — exactly the role pktgen sequence numbers play in
    the paper's testbed. *)

type t = { flow_id : int; seq : int; flow_packets : int }

val size : int
(** 16 bytes. *)

val write : t -> Bytes.t -> unit
(** Stamp at offset 0 of a payload buffer (needs {!size} bytes). *)

val read_payload : Bytes.t -> t option
(** Parse from a payload buffer. *)

val read_at : Bytes.t -> int -> t option
(** [read_at buf off] parses the tag stamped at offset [off] of [buf],
    in place. *)

val read_frame : Bytes.t -> t option
(** Parse from a full encoded UDP frame (payload at offset 42). *)

val pp : Format.formatter -> t -> unit
