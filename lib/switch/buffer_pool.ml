open Sdn_sim
open Sdn_net

type state = Free | Held | Reclaiming

(* A unit lives in mutable fields of its preallocated slot, so holding
   one allocates no record of its own. The first frame sits outside
   the append list: a packet-granularity unit never builds one. *)
type slot = {
  index : int;
  mutable generation : int;
  mutable state : state;
  mutable key : Flow_key.t option;  (** [Some] for a flow's chain *)
  mutable first : Bytes.t;
  mutable appended_rev : Bytes.t list;  (** later frames, newest first *)
  mutable packets : int;
  mutable held_at : float;
  mutable resend_count : int;
  mutable timer : Engine.handle option;
      (** while [Held], the re-request timer ([None] while frozen); while
          [Reclaiming], the deferred-reclaim timer — kept so {!wipe} can
          cancel it before the slot's next allocation *)
}

type t = {
  engine : Engine.t;
  check : Sdn_check.Check.t option;
  policy : Buf_policy.cls option;
  pool_name : string;
  capacity : int;
  reclaim_lag : float;
  mutable resend_timeout : float;
  mutable resend_multiplier : float;
  mutable resend_cap : float;
  resend_jitter : float;
  mutable max_resends : int;
  rng : Rng.t option;
  on_resend : buffer_id:int32 -> first_frame:Bytes.t -> unit;
  slots : slot array;
  mutable free : int list;
  by_key : slot Flow_key.Table.t;  (** flow -> its held unit *)
  mutable in_use : int;
  mutable packets : int;
  occupancy : Timeseries.Weighted.w;
  mutable allocations : int;
  mutable alloc_failures : int;
  mutable resends : int;
  mutable drops : int;
  mutable abandoned_flows : int;
  mutable recovered_flows : int;
  recovery_delays : Stats.t;
  mutable stale_takes : int;
  mutable frozen : bool;
  mutable freezes : int;
  mutable chains_frozen : int;
  mutable chains_resumed : int;
  mutable expired_on_resume : int;
}

type add_result = First of int32 | Appended of int32 | No_space

type take_result = Taken of Bytes.t list | Unknown_id

(* buffer_id layout: generation in the high bits, slot index in the low
   16. Generations disambiguate a reused slot from a stale id. *)
let id_of slot =
  Int32.logor
    (Int32.shift_left (Int32.of_int (slot.generation land 0x7FFF)) 16)
    (Int32.of_int slot.index)

let slot_of_id id = Int32.to_int (Int32.logand id 0xFFFFl)
let generation_of_id id =
  Int32.to_int (Int32.shift_right_logical id 16) land 0x7FFF

let create engine ?check ?policy ?(pool_name = "pool") ~capacity ~reclaim_lag
    ~resend_timeout ?(resend_multiplier = 1.0) ?(resend_cap = infinity)
    ?(resend_jitter = 0.0) ?rng ~max_resends
    ?(on_resend = fun ~buffer_id:_ ~first_frame:_ -> ()) () =
  if capacity <= 0 || capacity > 0xFFFF then
    invalid_arg "Buffer_pool.create: capacity out of range";
  if resend_multiplier < 1.0 then
    invalid_arg "Buffer_pool.create: multiplier below 1";
  if resend_jitter < 0.0 || resend_jitter >= 1.0 then
    invalid_arg "Buffer_pool.create: jitter fraction out of [0, 1)";
  if resend_jitter > 0.0 && rng = None then
    invalid_arg "Buffer_pool.create: jitter needs an rng";
  {
    engine;
    check;
    policy;
    pool_name;
    capacity;
    reclaim_lag;
    resend_timeout;
    resend_multiplier;
    resend_cap;
    resend_jitter;
    max_resends;
    rng;
    on_resend;
    slots =
      Array.init capacity (fun index ->
          { index; generation = 0; state = Free; key = None;
            first = Bytes.empty; appended_rev = []; packets = 0;
            held_at = 0.0; resend_count = 0; timer = None });
    free = List.init capacity (fun i -> i);
    by_key = Flow_key.Table.create 64;
    in_use = 0;
    packets = 0;
    occupancy =
      Timeseries.Weighted.create ~start:(Engine.now engine) ~initial:0.0 ();
    allocations = 0;
    alloc_failures = 0;
    resends = 0;
    drops = 0;
    abandoned_flows = 0;
    recovered_flows = 0;
    recovery_delays = Stats.create ();
    stale_takes = 0;
    frozen = false;
    freezes = 0;
    chains_frozen = 0;
    chains_resumed = 0;
    expired_on_resume = 0;
  }

let set_backoff t ~resend_timeout ~resend_multiplier ~resend_cap ~max_resends =
  if resend_multiplier >= 1.0 then begin
    t.resend_timeout <- resend_timeout;
    t.resend_multiplier <- resend_multiplier;
    t.resend_cap <- resend_cap;
    t.max_resends <- max_resends
  end

(* Delay before re-request number [attempt] (0-based): exponential in
   the attempt, capped, with optional multiplicative jitter so that a
   thundering herd of timed-out flows desynchronises. *)
let resend_delay t ~attempt =
  let base =
    t.resend_timeout *. (t.resend_multiplier ** float_of_int attempt)
  in
  let capped = Float.min base t.resend_cap in
  match (t.rng, t.resend_jitter) with
  | Some rng, j when j > 0.0 ->
      capped *. (1.0 +. Rng.uniform rng ~lo:(-.j) ~hi:j)
  | _ -> capped

let note_occupancy t =
  Timeseries.Weighted.update t.occupancy ~time:(Engine.now t.engine)
    ~value:(float_of_int t.in_use)

type ledger_event = Alloc | Append | Release | Expire

(* Report a ledger event on [slot]'s unit to the invariant checker, if
   armed. A release carries the unit's packet count. A tag rather than
   a partially applied [Check] function, so an unchecked run allocates
   nothing here. *)
let note t event (slot : slot) =
  match t.check with
  | None -> ()
  | Some check -> (
      let time = Engine.now t.engine and pool = t.pool_name in
      let id = id_of slot in
      match event with
      | Alloc -> Sdn_check.Check.note_buffer_alloc check ~time ~pool ~id
      | Append -> Sdn_check.Check.note_buffer_append check ~time ~pool ~id
      | Release ->
          Sdn_check.Check.note_buffer_release check ~time ~pool ~id
            ~packets:slot.packets
      | Expire -> Sdn_check.Check.note_buffer_expire check ~time ~pool ~id)

let cancel_timer slot =
  match slot.timer with
  | Some h ->
      Engine.cancel h;
      slot.timer <- None
  | None -> ()

(* The unit's chain leaves the pool (released, abandoned or wiped): its
   packets stop counting and its flow no longer maps to it. *)
let vacate t (slot : slot) =
  t.packets <- t.packets - slot.packets;
  (match slot.key with
  | Some key -> Flow_key.Table.remove t.by_key key
  | None -> ());
  slot.key <- None;
  slot.first <- Bytes.empty;
  slot.appended_rev <- [];
  slot.packets <- 0

let release_slot t slot =
  slot.state <- Free;
  slot.timer <- None;
  slot.generation <- (slot.generation + 1) land 0x7FFF;
  t.free <- slot.index :: t.free;
  t.in_use <- t.in_use - 1;
  (match t.policy with Some cls -> Buf_policy.release cls | None -> ());
  note_occupancy t

(* Expire a held unit: its timer found the resend budget spent. *)
let drop_unit t (slot : slot) =
  cancel_timer slot;
  note t Expire slot;
  t.drops <- t.drops + slot.packets;
  t.abandoned_flows <- t.abandoned_flows + 1;
  vacate t slot;
  release_slot t slot

let rec arm_resend t (slot : slot) ~generation =
  let handle =
    Engine.schedule t.engine ~delay:(resend_delay t ~attempt:slot.resend_count)
      (fun () ->
        match slot.state with
        | Held when slot.generation = generation ->
            if slot.resend_count >= t.max_resends then drop_unit t slot
            else begin
              slot.resend_count <- slot.resend_count + 1;
              t.resends <- t.resends + 1;
              t.on_resend ~buffer_id:(id_of slot) ~first_frame:slot.first;
              arm_resend t slot ~generation
            end
        | Held | Free | Reclaiming -> ())
  in
  slot.timer <- Some handle

let allocate t ~key frame =
  (* Policy admission first: the sharing discipline may refuse even
     when a physical slot is free (its share is exhausted), or grant a
     unit the static quota would have refused. *)
  let admitted =
    match t.policy with Some cls -> Buf_policy.admit cls | None -> true
  in
  match t.free with
  | i :: rest when admitted ->
      t.free <- rest;
      let slot = t.slots.(i) in
      slot.state <- Held;
      slot.key <- key;
      slot.first <- frame;
      slot.packets <- 1;
      slot.held_at <- Engine.now t.engine;
      slot.resend_count <- 0;
      (match key with
      | Some key -> Flow_key.Table.add t.by_key key slot
      | None -> ());
      t.in_use <- t.in_use + 1;
      t.packets <- t.packets + 1;
      t.allocations <- t.allocations + 1;
      note_occupancy t;
      (* While frozen (controller session down, fail-secure mode)
         chains are absorbed silently: no re-request timer burns its
         budget into a dead link. [resume] arms it later. *)
      if not t.frozen then arm_resend t slot ~generation:slot.generation;
      note t Alloc slot;
      First (id_of slot)
  | _ :: _ | [] ->
      (* Refund a claim the policy granted but no slot can back. *)
      (match t.policy with
      | Some cls when admitted -> Buf_policy.release cls
      | Some _ | None -> ());
      t.alloc_failures <- t.alloc_failures + 1;
      No_space

let held_unit t key =
  match key with
  | Some key -> Flow_key.Table.find_opt t.by_key key
  | None -> None

let add t ?key frame =
  match held_unit t key with
  | Some slot ->
      slot.appended_rev <- frame :: slot.appended_rev;
      slot.packets <- slot.packets + 1;
      t.packets <- t.packets + 1;
      note t Append slot;
      Appended (id_of slot)
  | None -> allocate t ~key frame

let take t id =
  let i = slot_of_id id in
  if i < 0 || i >= t.capacity then Unknown_id
  else begin
    let slot = t.slots.(i) in
    match slot.state with
    | Held when slot.generation = generation_of_id id ->
        cancel_timer slot;
        let waited = Engine.now t.engine -. slot.held_at in
        if slot.resend_count > 0 then begin
          (* The flow survived at least one unanswered request: its
             whole wait is the time-to-recovery the chaos report
             histograms. *)
          t.recovered_flows <- t.recovered_flows + 1;
          Stats.add t.recovery_delays waited
        end;
        note t Release slot;
        (match t.policy with
        | Some cls -> Buf_policy.note_delay cls waited
        | None -> ());
        let frames = slot.first :: List.rev slot.appended_rev in
        vacate t slot;
        slot.state <- Reclaiming;
        slot.timer <-
          Some
            (Engine.schedule t.engine ~delay:t.reclaim_lag (fun () ->
                 match slot.state with
                 | Reclaiming -> release_slot t slot
                 | Free | Held -> ()));
        Taken frames
    | Held | Free | Reclaiming ->
        t.stale_takes <- t.stale_takes + 1;
        Unknown_id
  end

let freeze t =
  if not t.frozen then begin
    t.frozen <- true;
    t.freezes <- t.freezes + 1;
    Array.iter
      (fun slot ->
        match slot.state with
        | Held ->
            cancel_timer slot;
            t.chains_frozen <- t.chains_frozen + 1
        | Free | Reclaiming -> ())
      t.slots
  end

let resume t =
  if t.frozen then begin
    t.frozen <- false;
    (* Index order keeps the post-outage re-request schedule
       deterministic. Chains that had already spent their whole resend
       budget before the outage expire here; the rest re-enter the
       normal backoff machinery at their next attempt number. *)
    Array.iter
      (fun slot ->
        match slot.state with
        | Held ->
            if slot.resend_count >= t.max_resends then begin
              t.expired_on_resume <- t.expired_on_resume + 1;
              drop_unit t slot
            end
            else begin
              t.chains_resumed <- t.chains_resumed + 1;
              arm_resend t slot ~generation:slot.generation
            end
        | Free | Reclaiming -> ())
      t.slots
  end

let wipe t =
  let lost = ref 0 in
  (* Index order: the expiry notes reach the checker in a fixed
     sequence, so wiped runs stay byte-reproducible. *)
  Array.iter
    (fun slot ->
      match slot.state with
      | Held ->
          cancel_timer slot;
          note t Expire slot;
          t.drops <- t.drops + slot.packets;
          lost := !lost + slot.packets;
          vacate t slot;
          release_slot t slot
      | Reclaiming ->
          (* Reclaim now, and cancel the deferred timer so it cannot
             fire against a later allocation of this slot and shorten
             that allocation's reclaim lag. *)
          cancel_timer slot;
          release_slot t slot
      | Free -> ())
    t.slots;
  t.frozen <- false;
  !lost

let has_chain t ~key = Flow_key.Table.mem t.by_key key

let is_frozen t = t.frozen
let freezes t = t.freezes
let chains_frozen t = t.chains_frozen
let chains_resumed t = t.chains_resumed
let expired_on_resume t = t.expired_on_resume

let name t = t.pool_name
let capacity t = t.capacity
let units_in_use t = t.in_use
let packets_buffered t = t.packets
let flows_buffered t = Flow_key.Table.length t.by_key
let mean_units_in_use t ~until = Timeseries.Weighted.mean t.occupancy ~until
let max_units_in_use t = int_of_float (Timeseries.Weighted.max_value t.occupancy)
let allocations t = t.allocations
let alloc_failures t = t.alloc_failures
let resends t = t.resends
let drops t = t.drops
let abandoned_flows t = t.abandoned_flows
let recovered_flows t = t.recovered_flows
let recovery_delays t = t.recovery_delays
let stale_takes t = t.stale_takes
