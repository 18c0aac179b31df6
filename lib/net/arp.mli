(** ARP for IPv4 over Ethernet (RFC 826). *)

type oper = Request | Reply

type t = {
  oper : oper;
  sender_mac : Mac.t;
  sender_ip : Ip.t;
  target_mac : Mac.t;
  target_ip : Ip.t;
}

val size : int
(** 28 bytes. *)

val request : sender_mac:Mac.t -> sender_ip:Ip.t -> target_ip:Ip.t -> t
(** A who-has request (target MAC zero). *)

val reply : t -> responder_mac:Mac.t -> t
(** Build the reply matching a request. *)

val write : t -> Bytes.t -> int -> unit
val read : Bytes.t -> int -> (t, string) result

val header_error : Bytes.t -> int -> string option
(** [header_error buf off] is the error {!read} would report for the
    packet at [off], without building it; [None] when it is valid.
    Allocates nothing. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
