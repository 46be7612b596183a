open Sj_util

type frame = int

exception Out_of_memory

type node_kind = Performance | Capacity

type node = { first : frame; nframes : int; kind : node_kind }

type t = {
  size : int;
  frames_total : int;
  numa_nodes : int; (* performance-tier node count *)
  nodes : node array;
  (* Per-node allocation state: a bump pointer plus a stack of
     previously released frames, popped last-freed-first. That order
     decides frame numbers, and with them simulated addresses and
     cycles. *)
  bump : int array;
  free : Int_stack.t array;
  (* One byte per frame: its owner count. 0 = free, 1..254 = that many
     owners, [overflow_mark] = the count lives in [overflow]. Allocation
     membership is checked on every simulated access, and setup maps
     tens of thousands of frames, so this is a flat table rather than a
     hashtable. *)
  owners : Bytes.t;
  overflow : (int, int) Hashtbl.t;
  (* Node indices in default allocation preference order (performance
     tier first), precomputed so [alloc_frame] builds no lists. *)
  default_order : int array;
  contents : (frame, bytes) Hashtbl.t; (* lazily materialized *)
  (* Buffers of freed or zeroed frames, reused before allocating: a
     4 KiB buffer is a major-heap block, and CoW churn (split, then free
     at teardown) would otherwise allocate one per copied page. Bounded
     by [spare_max]. *)
  spare : bytes array;
  mutable spare_n : int;
  mutable n_allocated : int;
  (* Last-frame memo for the machine's fast path: when [memo_frame]
     is non-negative it is an allocated frame whose backing bytes are
     [memo_bytes], so repeated accesses inside one frame skip both
     hashtable probes. Invalidated on free and zero. *)
  mutable memo_frame : frame;
  mutable memo_bytes : bytes;
  (* Structural-change epoch for the page tables built over this
     memory; see {!bump_pt_epoch}. *)
  mutable pt_epoch : int;
  (* Node arena for the page tables built over this memory. Lives here
     (like the epoch) because grafting shares interior nodes across
     tables, so their indices must resolve in one common store. *)
  pt_store : Pt_store.t;
  (* Arena of the VM objects' 512-frame chunks over this memory (the
     frame-ownership twin of [pt_store]: CoW clones share chunks the way
     forked page tables share subtrees). *)
  chunk_store : Pt_store.t;
  (* Roots and extracted-subtree handles of the live page tables over
     this memory, as raw node indices (registered by
     [Sj_paging.Page_table]). Per-memory — not global — so concurrent
     simulations in different domains never share the lists. The
     refcount audit walks them to compute each node's expected
     indegree. *)
  mutable pt_roots : int list;
  mutable pt_handles : int list;
}

let spare_max = 64

let create_tiered ~size ~numa_nodes ~capacity_size =
  if size <= 0 || size mod Addr.page_size <> 0 then
    invalid_arg "Phys_mem.create: size must be a positive multiple of 4KiB";
  if capacity_size < 0 || capacity_size mod Addr.page_size <> 0 then
    invalid_arg "Phys_mem.create: capacity size must be a multiple of 4KiB";
  if numa_nodes <= 0 then invalid_arg "Phys_mem.create: numa_nodes";
  let perf_frames = size / Addr.page_size in
  if perf_frames mod numa_nodes <> 0 then
    invalid_arg "Phys_mem.create: size not divisible across NUMA nodes";
  let per_node = perf_frames / numa_nodes in
  let capacity_frames = capacity_size / Addr.page_size in
  let perf =
    Array.init numa_nodes (fun i ->
        { first = i * per_node; nframes = per_node; kind = Performance })
  in
  let nodes =
    if capacity_frames > 0 then
      Array.append perf [| { first = perf_frames; nframes = capacity_frames; kind = Capacity } |]
    else perf
  in
  let n = Array.length nodes in
  {
    size = size + capacity_size;
    frames_total = perf_frames + capacity_frames;
    numa_nodes;
    nodes;
    bump = Array.make n 0;
    free = Array.init n (fun _ -> Int_stack.create ());
    owners = Bytes.make (perf_frames + capacity_frames) '\000';
    overflow = Hashtbl.create 16;
    default_order =
      Array.append
        (Array.init numa_nodes Fun.id)
        (if capacity_frames > 0 then [| numa_nodes |] else [||]);
    contents = Hashtbl.create 4096;
    spare = Array.make spare_max Bytes.empty;
    spare_n = 0;
    n_allocated = 0;
    memo_frame = -1;
    memo_bytes = Bytes.empty;
    pt_epoch = 0;
    pt_store = Pt_store.create ();
    chunk_store = Pt_store.create ();
    pt_roots = [];
    pt_handles = [];
  }

let create ~size ~numa_nodes = create_tiered ~size ~numa_nodes ~capacity_size:0
let size t = t.size
let frames_total t = t.frames_total
let frames_allocated t = t.n_allocated
let base_of_frame f = f * Addr.page_size
let frame_of_addr pa = pa / Addr.page_size
let node_count t = Array.length t.nodes
let node_kind t n = t.nodes.(n).kind

let capacity_node t =
  let n = Array.length t.nodes in
  if n > 0 && t.nodes.(n - 1).kind = Capacity then Some (n - 1) else None

let node_of_frame t f =
  let rec go i =
    if i >= Array.length t.nodes then invalid_arg "Phys_mem.node_of_frame: out of range"
    else
      let nd = t.nodes.(i) in
      if f >= nd.first && f < nd.first + nd.nframes then i else go (i + 1)
  in
  go 0

let is_allocated t f =
  f >= 0 && f < t.frames_total && Bytes.unsafe_get t.owners f <> '\000'
let pt_epoch t = t.pt_epoch
let bump_pt_epoch t = t.pt_epoch <- t.pt_epoch + 1
let pt_store t = t.pt_store
let chunk_store t = t.chunk_store

let remove_first x l =
  let rec go acc = function
    | [] -> List.rev acc
    | y :: rest when y = x -> List.rev_append acc rest
    | y :: rest -> go (y :: acc) rest
  in
  go [] l

let pt_roots t = t.pt_roots
let pt_handles t = t.pt_handles
let pt_register_root t n = t.pt_roots <- n :: t.pt_roots
let pt_unregister_root t n = t.pt_roots <- remove_first n t.pt_roots
let pt_register_handle t n = t.pt_handles <- n :: t.pt_handles
let pt_unregister_handle t n = t.pt_handles <- remove_first n t.pt_handles

(* Next frame of [node], or -1 when the node is exhausted. *)
let alloc_on_node t node =
  let f = Int_stack.pop t.free.(node) in
  if f >= 0 then f
  else
    let nd = t.nodes.(node) in
    if t.bump.(node) < nd.nframes then begin
      let f = nd.first + t.bump.(node) in
      t.bump.(node) <- t.bump.(node) + 1;
      f
    end
    else -1

(* Node preference: the requested node first, then the default order
   (performance tier before capacity) skipping the duplicate. *)
let alloc_frame ?node t =
  let f =
    match node with
    | Some n ->
      if n < 0 || n >= Array.length t.nodes then invalid_arg "Phys_mem.alloc_frame: bad node";
      let f = alloc_on_node t n in
      if f >= 0 then f
      else
        let rec go i =
          if i >= Array.length t.nodes then raise Out_of_memory
          else if i = n then go (i + 1)
          else
            let f = alloc_on_node t i in
            if f >= 0 then f else go (i + 1)
        in
        go 0
    | None ->
      (* Unpinned allocations stay in the performance tier; the capacity
         tier is only used when explicitly requested or when DRAM is
         exhausted. *)
      let order = t.default_order in
      let rec go i =
        if i >= Array.length order then raise Out_of_memory
        else
          let f = alloc_on_node t order.(i) in
          if f >= 0 then f else go (i + 1)
      in
      go 0
  in
  Bytes.unsafe_set t.owners f '\001';
  t.n_allocated <- t.n_allocated + 1;
  f

let alloc_frames ?node t ~n = Array.init n (fun _ -> alloc_frame ?node t)

let alloc_frames_contiguous ?node ?(align = 1) t ~n =
  if n <= 0 then invalid_arg "Phys_mem.alloc_frames_contiguous: n";
  if align < 1 then invalid_arg "Phys_mem.alloc_frames_contiguous: align";
  let all = List.init (Array.length t.nodes) Fun.id in
  let try_nodes =
    match node with
    | Some nd ->
      if nd < 0 || nd >= Array.length t.nodes then invalid_arg "Phys_mem: bad node";
      nd :: List.filter (fun m -> m <> nd) all
    | None ->
      List.filter (fun m -> t.nodes.(m).kind = Performance) all
      @ List.filter (fun m -> t.nodes.(m).kind = Capacity) all
  in
  let rec go = function
    | [] -> raise Out_of_memory
    | nd :: rest ->
      let node_base = t.nodes.(nd).first in
      (* Round the start of the run up so the *global* frame number is
         aligned (physical address alignment). *)
      let start =
        ((node_base + t.bump.(nd) + align - 1) / align * align) - node_base
      in
      if start + n <= t.nodes.(nd).nframes then begin
        (* Frames skipped by alignment stay usable via the free list. *)
        for f = t.bump.(nd) to start - 1 do
          Int_stack.push t.free.(nd) (node_base + f)
        done;
        let first = node_base + start in
        t.bump.(nd) <- start + n;
        Array.init n (fun i ->
            let f = first + i in
            Bytes.unsafe_set t.owners f '\001';
            f)
      end
      else go rest
  in
  let frames = go try_nodes in
  t.n_allocated <- t.n_allocated + n;
  frames

(* {2 Owner counts} *)

let overflow_mark = 255

let frame_refs t f =
  if f < 0 || f >= t.frames_total then 0
  else
    let c = Char.code (Bytes.unsafe_get t.owners f) in
    if c = overflow_mark then Hashtbl.find t.overflow f else c

(* Count [n] >= 1 for an allocated frame. *)
let set_refs t f n =
  if n >= overflow_mark then Hashtbl.replace t.overflow f n
  else if Char.code (Bytes.unsafe_get t.owners f) = overflow_mark then Hashtbl.remove t.overflow f;
  Bytes.unsafe_set t.owners f (Char.unsafe_chr (min n overflow_mark))

let forget_contents t f =
  (match Hashtbl.find_opt t.contents f with
  | Some b ->
    Hashtbl.remove t.contents f;
    if t.spare_n < spare_max then begin
      t.spare.(t.spare_n) <- b;
      t.spare_n <- t.spare_n + 1
    end
  | None -> ());
  if t.memo_frame = f then begin
    t.memo_frame <- -1;
    t.memo_bytes <- Bytes.empty
  end

(* A page buffer with unspecified contents. *)
let fresh_buffer t =
  if t.spare_n = 0 then Bytes.create Addr.page_size
  else begin
    t.spare_n <- t.spare_n - 1;
    let b = t.spare.(t.spare_n) in
    t.spare.(t.spare_n) <- Bytes.empty;
    b
  end

let release_last t f =
  Bytes.unsafe_set t.owners f '\000';
  forget_contents t f;
  t.n_allocated <- t.n_allocated - 1;
  Int_stack.push t.free.(node_of_frame t f) f

let free_frame t f =
  match frame_refs t f with
  | 0 -> invalid_arg "Phys_mem.free_frame: frame not allocated"
  | 1 -> release_last t f
  | n -> invalid_arg (Printf.sprintf "Phys_mem.free_frame: frame %d has %d owners" f n)

let share_frame t f =
  match frame_refs t f with
  | 0 -> invalid_arg "Phys_mem.share_frame: frame not allocated"
  | n -> set_refs t f (n + 1)

let release_frame t f =
  match frame_refs t f with
  | 0 -> invalid_arg "Phys_mem.release_frame: frame not allocated"
  | 1 -> release_last t f
  | n -> set_refs t f (n - 1)

(* Chunk-wide forms of the two above, one pass over the node's filled
   slots: the common in-byte case stays in this loop, everything else
   (free, overflow, errors) goes through the per-frame functions. *)
let share_chunk t node =
  let blk = Pt_store.block t.chunk_store node and base = Pt_store.block_offset node in
  for s = base to base + Pt_store.live t.chunk_store node - 1 do
    let f = Array.unsafe_get blk s in
    let c = Char.code (Bytes.get t.owners f) in
    if c > 0 && c < overflow_mark - 1 then Bytes.unsafe_set t.owners f (Char.unsafe_chr (c + 1))
    else share_frame t f
  done

let release_chunk t node =
  let blk = Pt_store.block t.chunk_store node and base = Pt_store.block_offset node in
  for s = base to base + Pt_store.live t.chunk_store node - 1 do
    let f = Array.unsafe_get blk s in
    let c = Char.code (Bytes.get t.owners f) in
    if c > 1 && c < overflow_mark then Bytes.unsafe_set t.owners f (Char.unsafe_chr (c - 1))
    else release_frame t f
  done

let check_allocated t f ctx =
  if not (is_allocated t f) then
    invalid_arg (Printf.sprintf "Phys_mem.%s: access to unallocated frame %d" ctx f)

let backing t f =
  match Hashtbl.find_opt t.contents f with
  | Some b -> b
  | None ->
    let b = fresh_buffer t in
    Bytes.fill b 0 Addr.page_size '\000';
    Hashtbl.replace t.contents f b;
    b

let read8 t ~pa =
  let f = frame_of_addr pa in
  check_allocated t f "read8";
  match Hashtbl.find_opt t.contents f with
  | None -> 0
  | Some b -> Char.code (Bytes.get b (Addr.offset_in_page pa))

let write8 t ~pa v =
  let f = frame_of_addr pa in
  check_allocated t f "write8";
  Bytes.set (backing t f) (Addr.offset_in_page pa) (Char.chr (v land 0xff))

let read64 t ~pa =
  let off = Addr.offset_in_page pa in
  if off <= Addr.page_size - 8 then begin
    let f = frame_of_addr pa in
    check_allocated t f "read64";
    match Hashtbl.find_opt t.contents f with
    | None -> 0L
    | Some b -> Bytes.get_int64_le b off
  end
  else begin
    (* Straddles a frame boundary: byte at a time. *)
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (read8 t ~pa:(pa + i)))
    done;
    !v
  end

let write64 t ~pa v =
  let off = Addr.offset_in_page pa in
  if off <= Addr.page_size - 8 then begin
    let f = frame_of_addr pa in
    check_allocated t f "write64";
    Bytes.set_int64_le (backing t f) off v
  end
  else
    for i = 0 to 7 do
      write8 t ~pa:(pa + i) (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
    done

let read_bytes t ~pa ~len =
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = pa + !pos in
    let f = frame_of_addr a in
    check_allocated t f "read_bytes";
    let off = Addr.offset_in_page a in
    let chunk = min (len - !pos) (Addr.page_size - off) in
    (match Hashtbl.find_opt t.contents f with
    | None -> Bytes.fill out !pos chunk '\000'
    | Some b -> Bytes.blit b off out !pos chunk);
    pos := !pos + chunk
  done;
  out

let write_bytes t ~pa src =
  let len = Bytes.length src in
  let pos = ref 0 in
  while !pos < len do
    let a = pa + !pos in
    let f = frame_of_addr a in
    check_allocated t f "write_bytes";
    let off = Addr.offset_in_page a in
    let chunk = min (len - !pos) (Addr.page_size - off) in
    Bytes.blit src !pos (backing t f) off chunk;
    pos := !pos + chunk
  done

let read_into t ~pa ~dst ~off ~len =
  let pos = ref 0 in
  while !pos < len do
    let a = pa + !pos in
    let f = frame_of_addr a in
    check_allocated t f "read_into";
    let foff = Addr.offset_in_page a in
    let chunk = min (len - !pos) (Addr.page_size - foff) in
    (match Hashtbl.find_opt t.contents f with
    | None -> Bytes.fill dst (off + !pos) chunk '\000'
    | Some b -> Bytes.blit b foff dst (off + !pos) chunk);
    pos := !pos + chunk
  done

let write_from t ~pa ~src ~off ~len =
  let pos = ref 0 in
  while !pos < len do
    let a = pa + !pos in
    let f = frame_of_addr a in
    check_allocated t f "write_from";
    let foff = Addr.offset_in_page a in
    let chunk = min (len - !pos) (Addr.page_size - foff) in
    Bytes.blit src (off + !pos) (backing t f) foff chunk;
    pos := !pos + chunk
  done

let fill t ~pa ~len x =
  let pos = ref 0 in
  while !pos < len do
    let a = pa + !pos in
    let f = frame_of_addr a in
    check_allocated t f "fill";
    let foff = Addr.offset_in_page a in
    let chunk = min (len - !pos) (Addr.page_size - foff) in
    (* Filling a whole never-touched frame with zero stays lazy. *)
    if x = '\000' && foff = 0 && chunk = Addr.page_size && not (Hashtbl.mem t.contents f)
    then ()
    else Bytes.fill (backing t f) foff chunk x;
    pos := !pos + chunk
  done

let zero_frame t f =
  check_allocated t f "zero_frame";
  forget_contents t f

let copy_frame t ~src ~dst =
  check_allocated t src "copy_frame";
  check_allocated t dst "copy_frame";
  if src <> dst then
    match Hashtbl.find_opt t.contents src with
    | None -> forget_contents t dst
    | Some b -> (
      match Hashtbl.find_opt t.contents dst with
      | Some d -> Bytes.blit b 0 d 0 Addr.page_size
      | None ->
        let d = fresh_buffer t in
        Bytes.blit b 0 d 0 Addr.page_size;
        Hashtbl.replace t.contents dst d)

(* {2 Fast-path accessors}

   Observably identical to their plain counterparts (including read
   laziness: a never-written frame is not materialized by reads) but
   allocation-free on the hot path via the last-frame memo. *)

let read8_fast t ~pa =
  let f = frame_of_addr pa in
  if t.memo_frame = f then Char.code (Bytes.get t.memo_bytes (Addr.offset_in_page pa))
  else begin
    check_allocated t f "read8";
    match Hashtbl.find_opt t.contents f with
    | None -> 0
    | Some b ->
      t.memo_frame <- f;
      t.memo_bytes <- b;
      Char.code (Bytes.get b (Addr.offset_in_page pa))
  end

let write8_fast t ~pa v =
  let f = frame_of_addr pa in
  let b =
    if t.memo_frame = f then t.memo_bytes
    else begin
      check_allocated t f "write8";
      let b = backing t f in
      t.memo_frame <- f;
      t.memo_bytes <- b;
      b
    end
  in
  Bytes.set b (Addr.offset_in_page pa) (Char.chr (v land 0xff))

let read64_fast t ~pa =
  let off = Addr.offset_in_page pa in
  if off <= Addr.page_size - 8 then begin
    let f = frame_of_addr pa in
    if t.memo_frame = f then Bytes.get_int64_le t.memo_bytes off
    else begin
      check_allocated t f "read64";
      match Hashtbl.find_opt t.contents f with
      | None -> 0L
      | Some b ->
        t.memo_frame <- f;
        t.memo_bytes <- b;
        Bytes.get_int64_le b off
    end
  end
  else read64 t ~pa

let write64_fast t ~pa v =
  let off = Addr.offset_in_page pa in
  if off <= Addr.page_size - 8 then begin
    let f = frame_of_addr pa in
    let b =
      if t.memo_frame = f then t.memo_bytes
      else begin
        check_allocated t f "write64";
        let b = backing t f in
        t.memo_frame <- f;
        t.memo_bytes <- b;
        b
      end
    in
    Bytes.set_int64_le b off v
  end
  else write64 t ~pa v
