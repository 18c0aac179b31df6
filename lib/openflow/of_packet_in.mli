(** OpenFlow 1.0 [PACKET_IN] message body — the request a switch sends
    the controller for a miss-match packet.

    The size of this message is the heart of the paper's benefits
    analysis: with no buffer, [buffer_id] is {!Of_wire.no_buffer} and
    [data] carries the whole frame; with a buffer, [buffer_id]
    identifies the stored packet and [data] carries only the first
    [miss_send_len] bytes (128 by default in OpenFlow 1.0). *)

type reason = No_match | Action

type t = {
  buffer_id : int32;
  total_len : int;  (** full length of the original frame *)
  in_port : int;
  reason : reason;
  data : Bytes.t;  (** whole frame, or its first [miss_send_len] bytes *)
}

val default_miss_send_len : int
(** 128 bytes, per the OpenFlow 1.0 default configuration. *)

val make :
  buffer_id:int32 -> in_port:int -> reason:reason -> frame:Bytes.t ->
  miss_send_len:int option -> t
(** Build a [PACKET_IN] for a captured frame. [miss_send_len = None]
    means the whole frame is included (the no-buffer case); [Some n]
    truncates the data to [n] bytes (the buffered case). *)

val body_size : t -> int
(** 10 + data bytes. *)

val fixed_body : int
(** 10: the body bytes before the frame data. *)

val write_body : t -> Bytes.t -> int -> unit
val read_body : Bytes.t -> int -> len:int -> (t, string) result

val body_valid : Bytes.t -> int -> len:int -> bool
(** Would {!read_body} accept the [len]-byte body at the offset? Reads
    in place and copies nothing. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
