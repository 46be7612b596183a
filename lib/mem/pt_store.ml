(* Flat arena backing page-table nodes: all 512-slot tables built over
   one physical memory live in per-chunk int arrays (plus small
   per-node header arrays), and inter-node links are indices, not
   pointers. A radix descent therefore chases no OCaml blocks — each
   step is one int read from one flat chunk — and building or tearing
   down a table allocates nothing on the OCaml heap. The store is owned
   by the Phys_mem the tables translate (interior subtrees are shared
   *across* tables over one memory, so indices must be meaningful to
   all of them). Entry encoding is the owner's business (Sj_paging);
   the store only hands out zeroed 512-int nodes and recycles them.

   Entries live in fixed-size chunks of [chunk_nodes] nodes each:
   growth appends one zeroed chunk instead of reallocating (and
   re-zeroing, and copying) one ever-larger array, so arena growth
   costs exactly the memory it adds. Node [i]'s entries are
   [chunks.(i lsr chunk_shift)], offset [(i land chunk_mask) * 512]. *)

let slots = 512
let chunk_shift = 6
let chunk_nodes = 1 lsl chunk_shift (* 64 nodes = 256 KiB per chunk *)
let chunk_mask = chunk_nodes - 1

type t = {
  mutable chunks : int array array; (* slot [c] is one chunk or [||] *)
  mutable level : int array;
  mutable frame : int array;
  mutable live : int array;
  mutable refs : int array;
  mutable cap : int; (* nodes the allocated chunks can hold *)
  mutable next : int; (* bump cursor: indices >= next never used yet *)
  free : Int_stack.t; (* recycled node indices *)
  mutable free_count : int; (* monotone; bumped on every [free] *)
  mutable alloc_count : int; (* monotone; bumped on every [alloc] *)
}

let initial_chunks = 8

(* No chunk until the first [alloc]: a memory whose store stays empty
   costs only the header. *)
let create () =
  {
    chunks = Array.make initial_chunks [||];
    level = [||];
    frame = [||];
    live = [||];
    refs = [||];
    cap = 0;
    next = 0;
    free = Int_stack.create ();
    free_count = 0;
    alloc_count = 0;
  }

let grow t =
  let c = t.cap lsr chunk_shift in
  if c >= Array.length t.chunks then begin
    (* Only the (tiny) chunk-pointer array is ever copied. *)
    let chunks' = Array.make (2 * Array.length t.chunks) [||] in
    Array.blit t.chunks 0 chunks' 0 (Array.length t.chunks);
    t.chunks <- chunks'
  end;
  t.chunks.(c) <- Array.make (chunk_nodes * slots) 0;
  let cap' = t.cap + chunk_nodes in
  let grow_arr a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  t.level <- grow_arr t.level 0;
  t.frame <- grow_arr t.frame 0;
  t.live <- grow_arr t.live 0;
  t.refs <- grow_arr t.refs 0;
  t.cap <- cap'

let block t idx = Array.unsafe_get t.chunks (idx lsr chunk_shift)
let block_offset idx = (idx land chunk_mask) * slots

(* A node index to hand out, recycled (entries stale) or fresh, set
   up with [refs = 1]. *)
let take t ~level ~frame ~live =
  let idx = Int_stack.pop t.free in
  let idx =
    if idx >= 0 then idx
    else begin
      if t.next >= t.cap then grow t;
      t.next <- t.next + 1;
      t.next - 1
    end
  in
  t.level.(idx) <- level;
  t.frame.(idx) <- frame;
  t.live.(idx) <- live;
  t.refs.(idx) <- 1;
  t.alloc_count <- t.alloc_count + 1;
  idx

let alloc t ~level ~frame =
  let idx = take t ~level ~frame ~live:0 in
  (* Recycled nodes carry stale entries; hand out zeroed tables. *)
  Array.fill (block t idx) (block_offset idx) slots 0;
  idx

let free t idx =
  Int_stack.push t.free idx;
  t.free_count <- t.free_count + 1

let free_count t = t.free_count
let alloc_count t = t.alloc_count
let live_count t = t.alloc_count - t.free_count
let level t idx = Array.unsafe_get t.level idx
let frame t idx = Array.unsafe_get t.frame idx
let live t idx = Array.unsafe_get t.live idx
let set_live t idx v = Array.unsafe_set t.live idx v
let refs t idx = Array.unsafe_get t.refs idx
let set_refs t idx v = Array.unsafe_set t.refs idx v

let get t idx slot =
  Array.unsafe_get
    (Array.unsafe_get t.chunks (idx lsr chunk_shift))
    (((idx land chunk_mask) * slots) + slot)

let set t idx slot v =
  Array.unsafe_set
    (Array.unsafe_get t.chunks (idx lsr chunk_shift))
    (((idx land chunk_mask) * slots) + slot)
    v

(* A typed loop, not [Array.blit]: the runtime's blit into an old
   (major-heap) array goes through the write barrier for every entry.
   No zero-fill first: every slot is overwritten. *)
let clone t src =
  let dst = take t ~level:t.level.(src) ~frame:t.frame.(src) ~live:t.live.(src) in
  let sb = block t src and so = block_offset src in
  let db = block t dst and d = block_offset dst in
  for i = 0 to slots - 1 do
    Array.unsafe_set db (d + i) (Array.unsafe_get sb (so + i))
  done;
  dst
