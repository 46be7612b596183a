(** Flat index-based arena for 512-slot page-table nodes (and, in a
    second store per memory, the frame chunks of VM objects — see
    [Phys_mem.chunk_store]).

    One store serves every page table built over one {!Phys_mem.t}
    (interior subtrees are shared across tables, so node indices must
    be meaningful to all of them — reach it via [Phys_mem.pt_store]).
    Nodes are identified by dense int indices; entries are opaque ints
    whose encoding belongs to the paging layer. [alloc] returns a
    zeroed node with [refs = 1]; [free] recycles the index. Entries
    live in fixed-size chunks, so growth never moves an existing
    node's storage; indices are stable for the store's lifetime. *)

type t

val slots : int
(** Entries per node (512). *)

val create : unit -> t

val alloc : t -> level:int -> frame:int -> int
(** A zeroed node at [level] backed by physical frame number [frame],
    with [live = 0] and [refs = 1]. *)

val free : t -> int -> unit
(** Recycle a node index. The caller owns frame release and any
    epoch/generation bookkeeping that makes stale indices detectable. *)

val free_count : t -> int
(** Monotone count of [free] calls over this store's lifetime. A cached
    node index recorded together with the then-current count is
    guaranteed un-recycled while the count is unchanged. *)

val alloc_count : t -> int
(** Monotone count of [alloc] and [clone] calls over this store's
    lifetime. *)

val live_count : t -> int
(** Nodes currently allocated and not yet freed
    ([alloc_count - free_count]). The paging layer's leak audit checks
    this against the nodes reachable from registered roots. *)

val level : t -> int -> int
val frame : t -> int -> int
val live : t -> int -> int
val set_live : t -> int -> int -> unit
val refs : t -> int -> int
val set_refs : t -> int -> int -> unit

val get : t -> int -> int -> int
(** [get t node slot] reads one entry; slots are [0 .. slots-1].
    Unchecked. *)

val set : t -> int -> int -> int -> unit

val clone : t -> int -> int
(** A new node with [src]'s level, frame, entries and [live] count, and
    [refs = 1]. *)

val block : t -> int -> int array
val block_offset : int -> int
(** Raw access for whole-node passes: node [idx]'s slot [i] is
    [(block t idx).(block_offset idx + i)]. The array is shared with
    other nodes; stay within the node's [slots] entries. *)
