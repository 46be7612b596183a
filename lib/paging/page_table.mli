(** x86-64-style 4-level radix page tables.

    Tables are genuine radix-tree nodes whose backing frames are
    allocated from the simulated physical memory, so page-table
    construction consumes (simulated) physical memory and its cost is
    proportional to the number of PTEs written and tables allocated —
    the mechanism behind the paper's Figure 1.

    Interior subtrees may be *shared* between several roots
    (reference-counted). This supports both the Barrelfish design where
    all non-root tables of a VAS are shared among attaching processes
    (§4.2) and the translation-caching optimization for segments
    (§4.1, §4.4).

    A second, distinct sharing mode backs fork: {!clone_cow} marks the
    shared subtrees *copy-on-write*. Walks report such mappings with
    [cow = true] (the machine layer inserts them read-only so the first
    write traps), and every structural mutator takes private ownership
    of CoW-shared tables before touching them, so a mutation on one
    side of a fork is never visible on the other. *)

type t
(** One address space's translation tree (one root table). *)

type page_size = P4K | P2M
(** Mapping granularity: 4 KiB leaf PTEs or 2 MiB leaf PDEs. *)

val bytes_of_page_size : page_size -> int

type mapping = {
  pa : int;  (** physical byte address of the mapped page's base *)
  prot : Prot.t;
  key : int;
      (** protection-key tag ({!Pkey}); 0 = default. The tag only — key
          *rights* live in the per-core register, never in the entry. *)
  size : page_size;
  global : bool;  (** x86 G bit: TLB entry survives untagged CR3 loads *)
  levels : int;  (** tables touched by a walk resolving this mapping *)
  cow : bool;
      (** copy-on-write: the walk crossed a fork-shared table or the
          leaf carries the CoW bit. Hardware-level writes must trap
          (insert the TLB entry read-only) until {!break_cow} repoints
          the page at a private frame. *)
}

type stats = {
  mutable tables_allocated : int;
  mutable tables_freed : int;
  mutable pte_writes : int;
  mutable pte_clears : int;
}
(** Cumulative construction/destruction work, read by the machine layer
    to charge cycles. *)

val create : Sj_mem.Phys_mem.t -> t
(** Allocate a root table. *)

val destroy : t -> unit
(** Release the root and every exclusively-owned interior table (shared
    subtrees survive until their last owner is destroyed). Leaf data
    frames are never freed — they belong to VM objects. Each live PTE in
    a freed table is counted in [stats.pte_clears], modelling the
    teardown walk that zeroes entries before returning the frame, so
    callers can charge teardown like any other page-table mutation. *)

val root_frame : t -> Sj_mem.Phys_mem.frame
(** The root table's frame (the value a CR3 write installs). *)

val stats : t -> stats
val reset_stats : t -> unit

val map :
  ?global:bool -> ?key:int ->
  t -> va:int -> pa:int -> prot:Prot.t -> size:page_size -> unit
(** Install one mapping. [va]/[pa] must be aligned to [size]. [key]
    (default 0) tags the entry with a protection key. Raises
    [Invalid_argument] if the slot is already mapped (mmap-over-mapping
    must be an explicit unmap+map, unlike Linux's silent clobber the
    paper criticizes in §2.4). *)

val map_run :
  ?global:bool -> ?key:int ->
  t -> va:int -> n:int -> frames:Sj_mem.Phys_mem.frame array -> off:int -> prot:Prot.t -> unit
(** Install [n] consecutive 4 KiB mappings starting at [va], page [i]
    backed by [frames.(off + i)]. Observably identical to [n] {!map}
    calls (same PTEs, stats, and failure behaviour) but locates each
    leaf table once per 2 MiB run instead of once per page — the
    segment attach path for large objects. *)

val map_chunk_run :
  ?global:bool -> ?key:int ->
  t -> va:int -> n:int -> chunks:Sj_mem.Pt_store.t -> chunk:int -> slot:int -> prot:Prot.t ->
  unit
(** {!map_run} reading the frames from a VM-object chunk instead of an
    array: page [i] is backed by the frame number in slot [slot + i] of
    node [chunk] of [chunks] ({!Sj_mem.Phys_mem.chunk_store}). The run
    must lie within the chunk's [live] slots. *)

val unmap : t -> va:int -> size:page_size -> unit
(** Remove one mapping; raises [Invalid_argument] if absent. Empty
    interior tables are freed eagerly. *)

val walk : t -> va:int -> mapping option
(** Software page walk. [None] = page fault. *)

(** {2 Page-walk caching}

    A host-side analogue of the paging-structure caches real MMUs keep:
    pointers to the interior tables translating the most recent
    512 GiB / 1 GiB / 2 MiB spans, validated against a global
    structural-change epoch (any [map]/[unmap]/[protect]/graft/prune/
    [destroy] on any table invalidates every cache, which keeps shared
    subtrees sound). Results are bit-identical to {!walk}. *)

type walk_cache

val walk_cache_create : unit -> walk_cache
val walk_cache_reset : walk_cache -> unit

val walk_cached : t -> walk_cache -> va:int -> mapping option
(** Same result as [walk t ~va] (including [mapping.levels], which
    counts the tables a full walk would touch), but descends from the
    deepest still-valid cached node — 1-2 levels instead of 4 on
    locality-heavy access patterns. *)

val protect : t -> va:int -> size:page_size -> prot:Prot.t -> unit
(** Change the protections of an existing mapping (key tag preserved). *)

val set_key : t -> va:int -> size:page_size -> key:int -> unit
(** Retag an existing mapping with a protection key (protections
    preserved); counts one PTE write, like {!protect}. *)

val map_range :
  ?global:bool -> ?key:int ->
  t -> va:int -> frames:Sj_mem.Phys_mem.frame array -> prot:Prot.t -> unit
(** Map a contiguous virtual range of 4 KiB pages onto the given frames. *)

val unmap_range : t -> va:int -> pages:int -> unit
(** Unmap [pages] consecutive 4 KiB-page mappings starting at [va]. *)

(** {2 Subtree sharing} *)

type subtree
(** A detached, shareable interior subtree covering one naturally
    aligned region: 512 GiB (a PML4 slot), 1 GiB (a PDPT slot) or
    2 MiB (a PD slot). *)

val subtree_level : subtree -> int
(** Level of the shared table: 3 = PDPT (512 GiB span), 2 = PD (1 GiB),
    1 = PT (2 MiB). *)

val extract_subtree : t -> va:int -> level:int -> subtree option
(** Detach-and-share the interior table that translates the aligned
    region containing [va] at [level] (see {!subtree_level}). Returns
    [None] if nothing is mapped there. The table remains linked in [t]
    and becomes shared. *)

val graft_subtree : t -> va:int -> subtree -> unit
(** Link a shared subtree into [t] at the aligned slot containing [va].
    Counts as a single PTE write regardless of how many translations the
    subtree carries — this is the attach-acceleration the paper's
    cached-translation segments exploit. Raises [Invalid_argument] if
    the slot is occupied. *)

val prune_subtree : t -> va:int -> level:int -> unit
(** Unlink a previously grafted subtree (drops one reference). *)

val release_subtree : t -> subtree -> unit
(** Drop the extra reference held by the [subtree] handle itself,
    freeing the subtree's frames once no root links remain. Pass the
    table whose memory pool should reclaim the frames. *)

val entries_mapped : t -> int
(** Number of leaf mappings reachable from this root (counts shared
    subtrees' leaves too). *)

(** {2 Copy-on-write cloning (fork)} *)

val clone_cow : ?share:(int -> bool) -> t -> t
(** A fresh root whose accepted top-level slots *share* [t]'s subtrees
    copy-on-write instead of deep-copying them: each shared child is
    increffed once and linked CoW-tagged from both roots, so subsequent
    walks on either side report [cow = true] and the first structural
    mutation (or write fault) takes a private copy one level at a time.
    [share] (default: everything) filters by PML4 slot index, letting
    fork share attachment spans while handling process-private spans
    separately. Charges one PTE write per slot linked or retagged —
    cloning cost is O(top-level slots), not O(mappings), which is the
    entire point of fork-by-CoW. *)

val break_cow : t -> va:int -> pa:int -> unit
(** Break copy-on-write for the page containing [va]: take private
    ownership of every shared table on the walk, then repoint the leaf
    at [pa] (the caller's freshly copied frame) with the CoW bit
    cleared. Protections, key tag, page size and the global bit are
    preserved. The caller owns frame allocation and the byte copy; this
    charges only the PTE writes the ownership walk performs. Raises
    [Invalid_argument] if [va] is not mapped. *)

val count_nodes : t -> int * int
(** [(total, shared)] interior tables reachable from this root, where
    [shared] counts tables sitting at or below a CoW-shared link —
    the evidence for "a forked family shares > 90 % of its page-table
    nodes before the first write". *)

(** {2 Refcount audit} *)

type audit = {
  a_nodes : int;  (** live nodes in the arena (alloc - free) *)
  a_shared : int;  (** reachable nodes with refcount > 1 *)
  a_leaked : int;  (** live nodes unreachable from any root/handle *)
  a_imbalanced : (int * int * int) list;
      (** (node, refcount, expected) for every node whose refcount does
          not equal its recomputed indegree; sorted, deterministic *)
}

val audit : Sj_mem.Phys_mem.t -> audit
(** Recompute, from first principles, every live page-table node's
    expected refcount over all tables built on [mem]: indegree from
    reachable interior entries plus registered roots and
    extracted-subtree handles. A non-empty [a_imbalanced] or non-zero
    [a_leaked] is an incref/decref bug. Backs the explore
    refcount-balance invariant and the fork bench's leak claim. *)
