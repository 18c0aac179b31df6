type 'a t = {
  cmp : 'a -> 'a -> int;
  set_index : 'a -> int -> unit;
  min_capacity : int;
  mutable data : 'a option array;
  mutable size : int;
}

let create ?(capacity = 64) ?(set_index = fun _ _ -> ()) ~cmp () =
  let capacity = max capacity 1 in
  {
    cmp;
    set_index;
    min_capacity = capacity;
    data = Array.make capacity None;
    size = 0;
  }

let length t = t.size

let capacity t = Array.length t.data

let is_empty t = t.size = 0

let get t i =
  match t.data.(i) with
  | Some x -> x
  | None ->
      (* Unreachable: callers only index below [size], and every cell
         below [size] is [Some] — push fills the next cell before
         incrementing, pop/remove clear only cells at or past [size]. *)
      assert false (* lint: allow partial-exit *)

(* Cells are moved between slots, never re-wrapped: a push allocates
   the one [Some] cell its element lives in for its whole stay, and
   sifts, pops and removals allocate nothing. *)
let place t i cell =
  t.data.(i) <- cell;
  match cell with Some x -> t.set_index x i | None -> ()

let grow t =
  let data = Array.make (2 * Array.length t.data) None in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

(* Shrink the backing array once occupancy falls to a quarter, so a
   burst (an outage scenario queueing tens of thousands of timers) does
   not pin its high-water memory forever. Halving at one-quarter leaves
   a factor-two hysteresis band, so push/pop around the boundary cannot
   thrash between grow and shrink. *)
let maybe_shrink t =
  let cap = Array.length t.data in
  if cap > t.min_capacity && t.size * 4 <= cap then begin
    let data = Array.make (max t.min_capacity (cap / 2)) None in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

(* Hole-based sifts: the moving element [x] is compared against its
   neighbours, each displaced cell shifts one level, and [x]'s own cell
   is placed once in the slot the hole ends at. Element positions match
   a swap-based sift exactly. *)
let rec hole_up t x i =
  if i = 0 then 0
  else begin
    let parent = (i - 1) / 2 in
    if t.cmp x (get t parent) < 0 then begin
      place t i t.data.(parent);
      hole_up t x parent
    end
    else i
  end

let rec hole_down t x i =
  let l = (2 * i) + 1 in
  if l >= t.size then i
  else begin
    let r = l + 1 in
    let child = if r < t.size && t.cmp (get t r) (get t l) < 0 then r else l in
    if t.cmp (get t child) x < 0 then begin
      place t i t.data.(child);
      hole_down t x child
    end
    else i
  end

let sift_up t i =
  let cell = t.data.(i) in
  place t (hole_up t (get t i) i) cell

let sift_down t i =
  let cell = t.data.(i) in
  place t (hole_down t (get t i) i) cell

let push t x =
  if t.size = Array.length t.data then grow t;
  t.data.(t.size) <- Some x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else t.data.(0)

(* Detach the cell at [i]: the last cell fills the hole and sifts
   whichever way the heap property needs. The detached cell itself is
   returned, so a pop hands back the [Some] its push allocated. *)
let take t i =
  let cell = t.data.(i) in
  t.set_index (get t i) (-1);
  t.size <- t.size - 1;
  let last = t.data.(t.size) in
  t.data.(t.size) <- None;
  if i < t.size then begin
    t.data.(i) <- last;
    (* The displaced element may violate the heap property in either
       direction relative to its new position. *)
    if i > 0 && t.cmp (get t i) (get t ((i - 1) / 2)) < 0 then sift_up t i
    else sift_down t i
  end;
  maybe_shrink t;
  cell

let pop t = if t.size = 0 then None else take t 0

let pop_exn t =
  match pop t with
  | Some x -> x
  | None -> invalid_arg "Heap.pop_exn: empty heap"

let remove t i =
  if i < 0 || i >= t.size then invalid_arg "Heap.remove: index out of bounds";
  let x = get t i in
  ignore (take t i);
  x

let clear t =
  for i = 0 to t.size - 1 do
    t.set_index (get t i) (-1)
  done;
  t.size <- 0;
  if Array.length t.data > t.min_capacity then
    t.data <- Array.make t.min_capacity None
  else Array.fill t.data 0 (Array.length t.data) None

let iter f t =
  for i = 0 to t.size - 1 do
    f (get t i)
  done

let to_list t =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc) t;
  !acc
