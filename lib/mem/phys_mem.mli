(** Simulated physical memory.

    Physical memory is a flat array of 4 KiB frames addressed by physical
    address. Frame *contents* are materialized lazily (a frame that has
    never been written reads as zeroes and costs no host memory), which
    lets experiments declare the paper's 92-512 GiB platforms (Table 1)
    while the host only pays for pages actually touched.

    Frames are allocated and freed in page units through a free-list
    allocator (per node, last-freed-first; frame numbers feed simulated
    addresses, so this order is part of the contract); double-free and
    use-after-free are detected.

    {b Ownership.} Every allocated frame carries an owner count, kept in
    a one-byte-per-frame table (0 = free, 1-254 in place, larger counts
    in a side table). {!alloc_frame} hands out a frame with one owner;
    {!share_frame} adds one; {!release_frame} drops one and frees the
    frame when the last goes. Page tables own their frames outright and
    use {!free_frame}; VM objects count one owner per *chunk* holding
    the frame (see [Sj_kernel.Vm_object]). *)

type t

type frame = private int
(** A frame number; [frame * 4096] is its physical base address. *)

exception Out_of_memory
(** Raised by {!alloc_frame} when physical memory is exhausted. *)

type node_kind = Performance | Capacity
(** Memory tiers (paper sec 7): [Performance] is socket-local DRAM;
    [Capacity] is a slower, larger tier (NVM-class). *)

val create : size:int -> numa_nodes:int -> t
(** [create ~size ~numa_nodes] builds a memory of [size] bytes (multiple
    of 4 KiB) split evenly across [numa_nodes] performance-tier latency
    domains. *)

val create_tiered : size:int -> numa_nodes:int -> capacity_size:int -> t
(** Like {!create}, plus one additional [Capacity]-tier node of
    [capacity_size] bytes (node index [numa_nodes]). *)

val node_count : t -> int
val node_kind : t -> int -> node_kind
val capacity_node : t -> int option
(** Index of the capacity-tier node, if the machine has one. *)

val size : t -> int
val frames_total : t -> int
val frames_allocated : t -> int

val alloc_frame : ?node:int -> t -> frame
(** Allocate one frame, preferring NUMA node [node] (default: any).
    Contents read as zero. *)

val alloc_frames : ?node:int -> t -> n:int -> frame array
(** Allocate [n] frames (not necessarily contiguous). *)

val alloc_frames_contiguous : ?node:int -> ?align:int -> t -> n:int -> frame array
(** Allocate [n] *physically contiguous* frames (for huge-page
    mappings), with the first frame aligned to [align] frames
    (default 1; 512 for 2 MiB pages). Served from the unfragmented tail
    of a node — skipped frames go to the free list; raises
    {!Out_of_memory} when no node has a large enough run left. *)

val free_frame : t -> frame -> unit
(** Return a solely-owned frame to the allocator. Raises
    [Invalid_argument] if the frame is not currently allocated or has
    more than one owner. Freed frames are reused last-freed-first. *)

val share_frame : t -> frame -> unit
(** Add an owner to an allocated frame. Raises [Invalid_argument] if the
    frame is not allocated. *)

val release_frame : t -> frame -> unit
(** Drop an owner; the frame is freed (as by {!free_frame}) when its
    count reaches zero. Raises [Invalid_argument] if the frame is not
    allocated. *)

val frame_refs : t -> frame -> int
(** The frame's owner count; 0 iff it is free. *)

val share_chunk : t -> int -> unit
(** {!share_frame} on every frame of a node of {!chunk_store} (its
    [live] filled slots), in one pass. *)

val release_chunk : t -> int -> unit
(** {!release_frame} on every frame of a node of {!chunk_store}, in
    slot order. *)

val copy_frame : t -> src:frame -> dst:frame -> unit
(** Copy one frame's contents onto another, frame to frame. Copying a
    never-written source leaves [dst] unmaterialized (it reads as
    zeroes, like any fresh frame). *)

val base_of_frame : frame -> int
(** Physical byte address of the frame's first byte. *)

val frame_of_addr : int -> frame
(** Frame containing physical address (no allocation check). *)

val node_of_frame : t -> frame -> int
(** NUMA node the frame resides on. *)

val is_allocated : t -> frame -> bool

val pt_epoch : t -> int
(** Structural-change epoch of the page tables built over this memory.
    Interior page-table subtrees may be shared between roots (grafting),
    but only among tables over the *same* physical memory — so a
    per-memory epoch is exactly wide enough to invalidate software
    walk caches soundly, while keeping independent simulations (each
    with its own [Phys_mem.t]) from perturbing each other. Maintained by
    [Sj_paging.Page_table]. *)

val bump_pt_epoch : t -> unit
(** Record a structural page-table change (map/unmap/graft/...). *)

val pt_store : t -> Pt_store.t
(** Node arena for the page tables built over this memory (shared
    across tables for the same reason as {!pt_epoch}; used by
    [Sj_paging.Page_table]). *)

val chunk_store : t -> Pt_store.t
(** Arena for the 512-frame chunks VM objects over this memory keep
    their frames in ([Sj_kernel.Vm_object]): a node's slots are frame
    numbers, [refs] counts the objects sharing the chunk and [live] its
    filled slots. *)

(** {2 Page-table root/handle registry}

    Live page-table roots and extracted-subtree handles over this
    memory, as raw node indices. Maintained by [Sj_paging.Page_table]
    ([create]/[destroy], [extract_subtree]/[release_subtree]) and read
    by its refcount audit: a node's expected refcount is its indegree
    from reachable entries plus the number of times it appears in these
    lists. Per-memory, so independent simulations never interfere. *)

val pt_roots : t -> int list
val pt_handles : t -> int list
val pt_register_root : t -> int -> unit
val pt_unregister_root : t -> int -> unit
(** Removes one occurrence; no-op if absent. *)

val pt_register_handle : t -> int -> unit
val pt_unregister_handle : t -> int -> unit
(** Removes one occurrence; no-op if absent. *)

(** {2 Contents access}

    All accessors take raw physical addresses and may cross frame
    boundaries. Reading unallocated memory raises [Invalid_argument] --
    the machine layer guarantees translations only point at allocated
    frames. *)

val read8 : t -> pa:int -> int
val write8 : t -> pa:int -> int -> unit
val read64 : t -> pa:int -> int64
(** Little-endian, may straddle frames. *)

val write64 : t -> pa:int -> int64 -> unit
val read_bytes : t -> pa:int -> len:int -> bytes
val write_bytes : t -> pa:int -> bytes -> unit

val read_into : t -> pa:int -> dst:bytes -> off:int -> len:int -> unit
(** [read_bytes] into a caller-provided buffer at [off]; allocates
    nothing (bulk fast path). *)

val write_from : t -> pa:int -> src:bytes -> off:int -> len:int -> unit
(** [write_bytes] from a slice [off, off+len) of [src]; allocates
    nothing (bulk fast path). *)

val fill : t -> pa:int -> len:int -> char -> unit
(** Set [len] bytes starting at [pa] to one value (memset fast path);
    zero-filling whole untouched frames stays lazy. *)

val zero_frame : t -> frame -> unit
(** Reset a frame's contents to zero (page-zeroing on allocation paths). *)

(** {2 Fast-path accessors}

    Observably identical to the plain accessors -- same values, same
    errors, same read laziness -- but allocation-free via a last-frame
    memo. Used by the machine's host-side fast path. *)

val read8_fast : t -> pa:int -> int
val write8_fast : t -> pa:int -> int -> unit
val read64_fast : t -> pa:int -> int64
val write64_fast : t -> pa:int -> int64 -> unit
