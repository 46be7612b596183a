open Sj_util
module Machine = Sj_machine.Machine
module Pm = Sj_mem.Phys_mem
module Pt_store = Sj_mem.Pt_store

(* Frames live in chunks of 512 — one leaf table's span — held in the
   chunk arena of the physical memory ([Phys_mem.chunk_store]); an
   object is an array of chunk indices, chunk [k] covering pages
   [k * 512 ..]. A chunk's [refs] counts the objects sharing it, its
   [live] the slots filled. Phys_mem's owner count of a frame is the
   number of chunks holding it, so

     objects holding frame f = sum of refs over the chunks holding f.

   A CoW clone shares every chunk (one refs bump each). The first write
   into a shared chunk privatizes it: a copy of its 512 frame numbers,
   each frame gaining one owner. Only then is the page itself split, and
   only if its frame still has other owners. A frame is released once
   per chunk that dies, so it is freed exactly when its last object
   goes — the same moment, in the same page order, as a per-page count
   would free it. *)

let chunk_shift = 9
let chunk_pages = 1 lsl chunk_shift
let () = assert (chunk_pages = Pt_store.slots)

type t = {
  id : int;
  ctx : Sim_ctx.t; (* id generator for COW clones of this object *)
  name : string option;
  mem : Pm.t;
  store : Pt_store.t; (* [Pm.chunk_store mem] *)
  mutable chunks : int array;
  mutable pages : int;
  mutable destroyed : bool;
}

let frame_of_int f = Pm.frame_of_addr (f * Addr.page_size)

(* Give chunk position [k] a private copy of its (shared) chunk. *)
let privatize t k =
  let store = t.store in
  let c = t.chunks.(k) in
  let c' = Pt_store.clone store c in
  Pm.share_chunk t.mem c';
  Pt_store.set_refs store c (Pt_store.refs store c - 1);
  t.chunks.(k) <- c'

(* Append [frames] (each with one owner, ours) after the last page. *)
let append t frames =
  let store = t.store in
  let n = Array.length frames in
  let have = Array.length t.chunks in
  let need = (t.pages + n + chunk_pages - 1) lsr chunk_shift in
  (* A partly filled last chunk shared with a clone is the clone's too:
     take a private copy before filling it. *)
  if t.pages land (chunk_pages - 1) <> 0 && Pt_store.refs store t.chunks.(have - 1) > 1 then
    privatize t (have - 1);
  if need > have then
    t.chunks <-
      Array.init need (fun k ->
          if k < have then t.chunks.(k) else Pt_store.alloc store ~level:0 ~frame:0);
  Array.iteri
    (fun i f ->
      let p = t.pages + i in
      let c = t.chunks.(p lsr chunk_shift) in
      Pt_store.set store c (p land (chunk_pages - 1)) (f : Pm.frame :> int);
      Pt_store.set_live store c (Pt_store.live store c + 1))
    frames;
  t.pages <- t.pages + n

let create ?name ?node ?contiguous machine ~size ~charge_to =
  if size <= 0 then Sj_abi.Error.fail Invalid ~op:"vm_object_create" "size must be positive";
  let pages = (size + Addr.page_size - 1) / Addr.page_size in
  let frames = Machine.alloc_pages ?node ?contiguous machine ~n:pages ~charge_to in
  let ctx = Machine.sim_ctx machine in
  let mem = Machine.mem machine in
  let t =
    {
      id = Sim_ctx.next_vm_object_id ctx;
      ctx;
      name;
      mem;
      store = Pm.chunk_store mem;
      chunks = [||];
      pages = 0;
      destroyed = false;
    }
  in
  append t frames;
  t

let id t = t.id
let name t = t.name
let pages t = t.pages
let size t = pages t * Addr.page_size

let raw_frame t page =
  Pt_store.get t.store t.chunks.(page lsr chunk_shift) (page land (chunk_pages - 1))

let frame_at t ~page =
  if page < 0 || page >= t.pages then
    Sj_abi.Error.fail Invalid ~op:"vm_object_frame" "page out of range";
  frame_of_int (raw_frame t page)

let iter_runs t ~page ~pages f =
  if page < 0 || pages < 0 || page + pages > t.pages then
    Sj_abi.Error.fail Invalid ~op:"vm_object_runs" "page range outside object";
  let i = ref 0 in
  while !i < pages do
    let p = page + !i in
    let slot = p land (chunk_pages - 1) in
    let n = min (pages - !i) (chunk_pages - slot) in
    f ~off:!i ~n ~chunks:t.store ~chunk:t.chunks.(p lsr chunk_shift) ~slot;
    i := !i + n
  done

let grow ?node machine t ~by_pages ~charge_to =
  if t.destroyed then Sj_abi.Error.fail Stale_handle ~op:"vm_object_grow" "destroyed";
  if by_pages <= 0 then
    Sj_abi.Error.fail Invalid ~op:"vm_object_grow" "by_pages must be positive";
  append t (Machine.alloc_pages ?node machine ~n:by_pages ~charge_to)

let destroy _machine t =
  if not t.destroyed then begin
    let store = t.store in
    Array.iter
      (fun c ->
        let r = Pt_store.refs store c - 1 in
        Pt_store.set_refs store c r;
        if r = 0 then begin
          Pm.release_chunk t.mem c;
          Pt_store.free store c
        end)
      t.chunks;
    t.destroyed <- true;
    t.chunks <- [||];
    t.pages <- 0
  end

let is_destroyed t = t.destroyed

let cow_clone ?name t =
  if t.destroyed then Sj_abi.Error.fail Stale_handle ~op:"vm_object_clone" "destroyed";
  Array.iter (fun c -> Pt_store.set_refs t.store c (Pt_store.refs t.store c + 1)) t.chunks;
  {
    t with
    id = Sim_ctx.next_vm_object_id t.ctx;
    name = (match name with Some _ -> name | None -> t.name);
    chunks = Array.copy t.chunks;
  }

let page_shared t ~page =
  if page < 0 || page >= t.pages then
    Sj_abi.Error.fail Invalid ~op:"vm_object_shared" "page out of range";
  Pt_store.refs t.store t.chunks.(page lsr chunk_shift) > 1
  || Pm.frame_refs t.mem (frame_of_int (raw_frame t page)) > 1

let is_contiguous t =
  t.pages > 0
  &&
  let first = raw_frame t 0 in
  let rec go i = i >= t.pages || (raw_frame t i = first + i && go (i + 1)) in
  go 1

let resolve_cow_write t ~page machine ~charge_to =
  if not (page_shared t ~page) then frame_at t ~page
  else begin
    let k = page lsr chunk_shift in
    if Pt_store.refs t.store t.chunks.(k) > 1 then privatize t k;
    (* The chunk is ours now, and the frame has another owner. *)
    let src = frame_at t ~page in
    let dst = (Machine.alloc_pages machine ~n:1 ~charge_to).(0) in
    Pm.copy_frame t.mem ~src ~dst;
    Pm.release_frame t.mem src;
    Pt_store.set t.store t.chunks.(k) (page land (chunk_pages - 1)) (dst :> int);
    dst
  end
