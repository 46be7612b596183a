(** Mach-style VM objects (§4.1): reservations of physical frames that
    back mappings. A SpaceJMP segment wraps one VM object.

    Frames are reserved eagerly at creation and are not swappable,
    matching the paper's DragonFly implementation ("Physical pages are
    reserved at the time a segment is created, and are not swappable").

    {b Ownership.} An object holds its frames in chunks of 512 (one
    leaf table's span, 2 MiB), kept in the physical memory's
    {!Sj_mem.Phys_mem.chunk_store}; each chunk counts the objects sharing
    it, and each frame's owner count ({!Sj_mem.Phys_mem.frame_refs}) is
    the number of chunks holding it. The number of objects holding a
    frame is therefore the sum of the counts of the chunks that hold it.
    {!cow_clone} shares every chunk; the first {!resolve_cow_write} into
    a shared chunk takes a private copy of it (one more owner on each of
    its frames) before splitting the page. {!destroy} releases frames
    only from chunks whose count reaches zero. Costs: clone and destroy
    O(chunks), plus O(512) per privatized chunk; a write O(512) the
    first time it lands in a shared chunk and O(1) after. *)

type t

val create :
  ?name:string -> ?node:int -> ?contiguous:bool -> Sj_machine.Machine.t -> size:int ->
  charge_to:Sj_machine.Machine.Core.core option -> t
(** Reserve [size] bytes (rounded up to whole pages) of zeroed physical
    memory, charging page-zeroing cost to [charge_to] when given. *)

val id : t -> int
val name : t -> string option
val size : t -> int
(** Reserved size in bytes (page multiple). *)

val pages : t -> int

val is_contiguous : t -> bool
(** True iff the frames form one physical run (eligible for huge-page
    mapping). *)

val frame_at : t -> page:int -> Sj_mem.Phys_mem.frame

val iter_runs :
  t -> page:int -> pages:int ->
  (off:int -> n:int -> chunks:Sj_mem.Pt_store.t -> chunk:int -> slot:int -> unit) -> unit
(** Visit pages [page .. page + pages - 1] one chunk at a time, in
    order: [f ~off ~n ~chunks ~chunk ~slot] covers the [n] pages from
    [page + off], whose frame numbers are slots [slot ..] of node
    [chunk] of [chunks] (the shape {!Sj_paging.Page_table.map_chunk_run}
    takes). Faults [Invalid] outside the object. *)

val grow :
  ?node:int -> Sj_machine.Machine.t -> t -> by_pages:int ->
  charge_to:Sj_machine.Machine.Core.core option -> unit
(** Reserve additional frames at the end of the object. *)

val destroy : Sj_machine.Machine.t -> t -> unit
(** Release the reserved frames (shared COW frames are freed when their
    last owner is destroyed, in page order). The caller must ensure no
    mapping still references them. *)

val is_destroyed : t -> bool

(** {2 Copy-on-write (paper sec 7: snapshotting / versioning)} *)

val cow_clone : ?name:string -> t -> t
(** A logical copy sharing every physical page with the original, at
    O(chunks) cost. Both objects' shared pages must be mapped read-only
    until split. *)

val page_shared : t -> page:int -> bool
(** True while the page's frame is held by more than one object: its
    chunk is shared, or another chunk holds the frame too. *)

val resolve_cow_write :
  t -> page:int -> Sj_machine.Machine.t ->
  charge_to:Sj_machine.Machine.Core.core option ->
  Sj_mem.Phys_mem.frame
(** Make [page] exclusively owned and writable: if shared, privatize
    its chunk if need be, allocate a fresh frame (charged as a page
    zero), copy the contents, and point this object at it; the other
    owners keep the original frame. Returns the (possibly new) frame to
    map. *)
