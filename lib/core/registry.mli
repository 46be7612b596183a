(** System-wide SpaceJMP object registry.

    In DragonFly this state lives in the kernel; in Barrelfish it is the
    user-space SpaceJMP service processes talk to via RPC (§4.2). Either
    way it is the system's source of truth for named VASes and segments,
    their heaps (mspaces live logically *inside* segment memory and are
    therefore system-wide, not per-process), TLB tag assignment, and
    switch statistics. *)

type t

type service = ..
(** Open sum of per-system service state. A service library (e.g.
    RedisJMP) extends this with its own constructor and keeps its
    instances in the registry via {!set_service}/{!find_service}, so a
    fresh system starts with no services — nothing leaks across
    simulations or domains. *)

val create : Sj_machine.Machine.t -> t
val machine : t -> Sj_machine.Machine.t

(** {2 VASes} *)

val register_vas : t -> Vas.t -> unit
(** Raises [Errors.Name_exists] on duplicate names. *)

val find_vas : t -> name:string -> Vas.t
(** Raises [Errors.Unknown_name]. *)

val find_vas_by_id : t -> int -> Vas.t
val unregister_vas : t -> Vas.t -> unit
val list_vases : t -> Vas.t list

(** {2 Segments} *)

val register_seg : t -> Segment.t -> unit
val find_seg : t -> name:string -> Segment.t
val find_seg_by_id : t -> int -> Segment.t
val unregister_seg : t -> Segment.t -> unit
val list_segs : t -> Segment.t list

(** {2 Per-segment heaps (§4.1 runtime library)} *)

val heap : t -> Segment.t -> Sj_alloc.Mspace.t
(** The segment's mspace, created on first use over the whole segment
    range. State is keyed by segment identity, so every process attached
    to the segment sees the same allocator state — as if the mspace
    metadata lived inside the segment. *)

val has_heap : t -> Segment.t -> bool

val set_heap : t -> Segment.t -> Sj_alloc.Mspace.t -> unit
(** Install an explicit heap (snapshot clones inherit a copy of the
    original's allocator state). *)

(** {2 Live mapping tracking}

    Which vmspaces currently map each segment — consulted when a
    snapshot must write-protect a segment everywhere. *)

val note_mapping : t -> sid:int -> Sj_kernel.Vmspace.t -> unit

val forget_mapping : t -> sid:int -> Sj_kernel.Vmspace.t -> unit
(** Drops the segment's entry once its last mapping goes. *)

val mappings : t -> sid:int -> Sj_kernel.Vmspace.t list

val mapped_segment_count : t -> int
(** Entries in the mapping table: segments with at least one live
    mapping. {!unregister_seg} drops a segment's entry, so fork and
    teardown cycles leave this unchanged. *)

(** {2 TLB tags} *)

val alloc_tag : ?charge_to:Sj_machine.Machine.Core.core -> t -> int
(** Next ASID (1..4095; 0 is reserved to mean "untagged"). Once the
    12-bit space wraps, every tag handed out is a recycle: the previous
    owner's translations are flushed from every core's TLB (INVPCID
    broadcast, one IPI per core charged to [charge_to]) and a
    [Tag_recycle] event is emitted, so the new owner can never hit a
    stale entry. Tags released via {!release_tag} are reused first
    (LIFO) and always take the recycle path. A tag a registered VAS
    still holds (whether adopted from a restored image or simply not
    yet released after a wrap) is never re-issued; if all 4095 tags are
    live, raises the typed [Capacity] fault. *)

val release_tag : t -> int -> unit
(** Return an ASID to the allocator (vas_delete, crash reclamation).
    The next {!alloc_tag} prefers released tags and treats them as
    recycled — flush broadcast and [Tag_recycle] event included.
    [release_tag t 0] (untagged) is a no-op; double release is
    idempotent. *)

val free_tag_list : t -> int list
(** The explicitly released tags awaiting reuse (most recent first) —
    read-only view for the explorer's tag-lifecycle invariants. *)

val tag_in_use : t -> int -> bool
(** Is [tag] currently assigned to a registered VAS? [tag_in_use t 0]
    is [false] (0 means "untagged"). *)

val adopt_tag : t -> int -> unit
(** Claim a specific tag on behalf of a VAS that arrived with it —
    restoring a persisted image re-creates VASes whose saved tags must
    not be handed out again by {!alloc_tag}. Removes the tag from the
    free list; raises [Name_exists] if another live VAS holds it
    (callers should then {!alloc_tag} a fresh one instead).
    [adopt_tag t 0] is a no-op. *)

(** {2 Statistics} *)

val count_switch : t -> unit
val switch_count : t -> int
val reset_stats : t -> unit

val describe : t -> string
(** Multi-line listing of the live system: every registered segment and
    VAS with its attachments' state (for [sjctl] and debugging). *)

(** {2 Barrelfish capability tracking} *)

val root_cap : t -> Vas.t -> Sj_kernel.Cap.t
(** The service's root capability for a VAS (created on demand);
    attachments hold minted children, so revoking this bars every
    process from switching into the VAS. *)

(** {2 Per-system services} *)

val set_service : t -> name:string -> service -> unit
(** Raises [Errors.Name_exists] on duplicate names (namespace the name
    with the service kind, e.g. ["redisjmp:" ^ store]). *)

val find_service : t -> name:string -> service option
val remove_service : t -> name:string -> unit
