open Sj_util
module Machine = Sj_machine.Machine
module Core = Machine.Core
module Page_table = Sj_paging.Page_table
module Prot = Sj_paging.Prot

type region = {
  base : int;
  size : int;
  prot : Prot.t;
  obj : Vm_object.t;
  obj_page : int;
  global : bool;
  cow : bool;
  page : Page_table.page_size;
  region_name : string option;
}

type t = {
  id : int;
  machine : Machine.t;
  pt : Page_table.t;
  mutable regions : region array; (* sorted by base, non-overlapping *)
}

(* Charge the page-table work performed since [before] to a core. *)
let charge_pt_delta t charge_to (before : Page_table.stats) =
  match charge_to with
  | None -> ()
  | Some core ->
    let after = Page_table.stats t.pt in
    let cost = Machine.cost t.machine in
    let d_tables = after.tables_allocated - before.tables_allocated in
    let d_writes = after.pte_writes - before.pte_writes in
    let d_clears = after.pte_clears - before.pte_clears in
    Core.charge core
      ((d_tables * cost.table_alloc) + (d_writes * cost.pte_write) + (d_clears * cost.pte_clear))

let snapshot_stats t : Page_table.stats =
  let s = Page_table.stats t.pt in
  {
    tables_allocated = s.tables_allocated;
    tables_freed = s.tables_freed;
    pte_writes = s.pte_writes;
    pte_clears = s.pte_clears;
  }

let create machine ~charge_to =
  let pt = Page_table.create (Machine.mem machine) in
  (match charge_to with
  | Some core -> Core.charge core (Machine.cost machine).table_alloc
  | None -> ());
  { id = Sim_ctx.next_vmspace_id (Machine.sim_ctx machine); machine; pt; regions = [||] }

let id t = t.id
let page_table t = t.pt
let regions t = Array.to_list t.regions

(* Index of the last region with [base <= va], or -1. *)
let floor_index regions va =
  let lo = ref 0 and hi = ref (Array.length regions - 1) and ans = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if regions.(mid).base <= va then begin
      ans := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !ans

let find_region t ~va =
  let i = floor_index t.regions va in
  if i < 0 then None
  else
    let r = t.regions.(i) in
    if Addr.range_contains ~base:r.base ~size:r.size va then Some r else None

(* Regions are sorted and non-overlapping, so a new range can only
   collide with its two would-be neighbours. *)
let check_no_overlap t ~base ~size =
  let check r =
    if Addr.range_overlaps ~base1:base ~size1:size ~base2:r.base ~size2:r.size then
      Sj_abi.Error.failf Address_conflict ~op:"vm_map" "[%s,+%s) overlaps region at %s"
        (Addr.to_string base) (Size.to_string size) (Addr.to_string r.base)
  in
  let i = floor_index t.regions base in
  if i >= 0 then check t.regions.(i);
  if i + 1 < Array.length t.regions then check t.regions.(i + 1)

let insert_region t r =
  let n = Array.length t.regions in
  let i = floor_index t.regions r.base + 1 in
  let dst = Array.make (n + 1) r in
  Array.blit t.regions 0 dst 0 i;
  Array.blit t.regions i dst (i + 1) (n - i);
  t.regions <- dst

(* Index of the region starting exactly at [base], or -1. *)
let index_at_base t base =
  let i = floor_index t.regions base in
  if i >= 0 && t.regions.(i).base = base then i else -1

let remove_region_index t i =
  let n = Array.length t.regions in
  if n = 1 then t.regions <- [||]
  else begin
    let dst = Array.make (n - 1) t.regions.(0) in
    Array.blit t.regions 0 dst 0 i;
    Array.blit t.regions (i + 1) dst i (n - 1 - i);
    t.regions <- dst
  end

let map_object t ~charge_to ~base ?(obj_page = 0) ?pages ?(global = false) ?(cow = false)
    ?(page = Page_table.P4K) ?(key = 0) ?name ~prot obj =
  if not (Addr.is_page_aligned base) then
    Sj_abi.Error.fail Invalid ~op:"vm_map" "base not aligned";
  let pages = match pages with Some p -> p | None -> Vm_object.pages obj - obj_page in
  if pages <= 0 || obj_page < 0 || obj_page + pages > Vm_object.pages obj then
    Sj_abi.Error.fail Invalid ~op:"vm_map" "page range outside object";
  let size = pages * Addr.page_size in
  check_no_overlap t ~base ~size;
  let before = snapshot_stats t in
  (match page with
  | Page_table.P4K ->
    if not cow then
      (* Uniform protection: install each chunk's run through the
         batched path (identical PTEs and stats, one leaf-table walk per
         2 MiB). *)
      Vm_object.iter_runs obj ~page:obj_page ~pages (fun ~off ~n ~chunks ~chunk ~slot ->
          Page_table.map_chunk_run ~global ~key t.pt
            ~va:(base + (off * Addr.page_size))
            ~n ~chunks ~chunk ~slot ~prot)
    else
      for i = 0 to pages - 1 do
        let page = obj_page + i in
        let frame = Vm_object.frame_at obj ~page in
        (* COW: shared pages are installed read-only; the write fault
           splits them. *)
        let hw_prot =
          if Vm_object.page_shared obj ~page then { prot with Prot.write = false }
          else prot
        in
        Page_table.map ~global ~key t.pt
          ~va:(base + (i * Addr.page_size))
          ~pa:(Sj_mem.Phys_mem.base_of_frame frame)
          ~prot:hw_prot ~size:Page_table.P4K
      done
  | Page_table.P2M ->
    let huge = Size.mib 2 / Addr.page_size in
    if cow then Sj_abi.Error.fail Invalid ~op:"vm_map" "COW requires 4 KiB granularity";
    if not (Vm_object.is_contiguous obj) then
      Sj_abi.Error.fail Invalid ~op:"vm_map" "2 MiB mapping needs a contiguous object";
    if base mod Size.mib 2 <> 0 || obj_page mod huge <> 0 || pages mod huge <> 0 then
      Sj_abi.Error.fail Invalid ~op:"vm_map" "2 MiB mapping needs 2 MiB alignment";
    for i = 0 to (pages / huge) - 1 do
      let frame = Vm_object.frame_at obj ~page:(obj_page + (i * huge)) in
      Page_table.map ~global ~key t.pt
        ~va:(base + (i * Size.mib 2))
        ~pa:(Sj_mem.Phys_mem.base_of_frame frame)
        ~prot ~size:Page_table.P2M
    done);
  charge_pt_delta t charge_to before;
  insert_region t { base; size; prot; obj; obj_page; global; cow; page; region_name = name }

let unmap_region t ~charge_to ~base =
  match index_at_base t base with
  | -1 -> Sj_abi.Error.fail Unknown_name ~op:"vm_unmap" "no region at base"
  | i ->
    let r = t.regions.(i) in
    let before = snapshot_stats t in
    (match r.page with
    | Page_table.P4K -> Page_table.unmap_range t.pt ~va:r.base ~pages:(r.size / Addr.page_size)
    | Page_table.P2M ->
      for j = 0 to (r.size / Size.mib 2) - 1 do
        Page_table.unmap t.pt ~va:(r.base + (j * Size.mib 2)) ~size:Page_table.P2M
      done);
    charge_pt_delta t charge_to before;
    remove_region_index t i

let remap_page t ~charge_to ~va ~frame ~prot =
  (* 4 KiB-granularity operation: inside a 2 MiB region the unmap/map
     pair below would tear a hole in the huge mapping, so refuse with a
     typed fault instead of corrupting it. *)
  (match find_region t ~va with
  | Some { page = Page_table.P2M; base; _ } ->
    Sj_abi.Error.failf Invalid ~op:"vm_remap"
      "%s lies in a 2 MiB region at %s; remap is 4 KiB-granular"
      (Addr.to_string va) (Addr.to_string base)
  | Some _ | None -> ());
  let before = snapshot_stats t in
  let va = Sj_util.Size.round_down va ~align:Addr.page_size in
  Page_table.unmap t.pt ~va ~size:Page_table.P4K;
  Page_table.map t.pt ~va ~pa:(Sj_mem.Phys_mem.base_of_frame frame) ~prot
    ~size:Page_table.P4K;
  charge_pt_delta t charge_to before

let write_protect_region t ~charge_to ~base =
  match index_at_base t base with
  | -1 -> Sj_abi.Error.fail Unknown_name ~op:"vm_write_protect" "no region at base"
  | i ->
    let r = t.regions.(i) in
    let before = snapshot_stats t in
    let step =
      match r.page with Page_table.P4K -> Addr.page_size | Page_table.P2M -> Size.mib 2
    in
    for j = 0 to (r.size / step) - 1 do
      let va = r.base + (j * step) in
      match Page_table.walk t.pt ~va with
      | Some m when m.prot.write ->
        Page_table.protect t.pt ~va ~size:r.page
          ~prot:{ m.prot with Prot.write = false }
      | Some _ | None -> ()
    done;
    charge_pt_delta t charge_to before;
    t.regions.(i) <- { r with cow = true }

let set_region_key t ~charge_to ~base ~key =
  match index_at_base t base with
  | -1 -> Sj_abi.Error.fail Unknown_name ~op:"pkey_assign" "no region at base"
  | i ->
    let r = t.regions.(i) in
    let before = snapshot_stats t in
    (match r.page with
    | Page_table.P4K ->
      for j = 0 to (r.size / Addr.page_size) - 1 do
        Page_table.set_key t.pt
          ~va:(r.base + (j * Addr.page_size))
          ~size:Page_table.P4K ~key
      done
    | Page_table.P2M ->
      for j = 0 to (r.size / Size.mib 2) - 1 do
        Page_table.set_key t.pt ~va:(r.base + (j * Size.mib 2)) ~size:Page_table.P2M ~key
      done);
    charge_pt_delta t charge_to before

(* Copy-on-write duplicate of every region whose 512 GiB span [share]
   accepts. The page table is cloned via [Page_table.clone_cow] (top
   slots shared, both sides CoW-tagged); each kept region's object is
   [Vm_object.cow_clone]d so frame ownership is per-side, and writable
   regions are flagged [cow] on *both* sides so the fault path breaks
   sharing page by page. Read-only regions never fault, so their frames
   stay shared for good — that is fork's text-segment win. *)
let fork t ~charge_to ~share =
  let before = snapshot_stats t in
  let pt = Page_table.clone_cow ~share:(fun slot -> share (slot lsl 39)) t.pt in
  charge_pt_delta t charge_to before;
  (* The clone's own construction work (root alloc + one PTE per shared
     slot) accrues in its fresh stats; charge it like any other
     page-table mutation. *)
  (match charge_to with
  | None -> ()
  | Some core ->
    let s = Page_table.stats pt in
    let cost = Machine.cost t.machine in
    Core.charge core
      ((s.tables_allocated * cost.table_alloc) + (s.pte_writes * cost.pte_write)));
  let child =
    { id = Sim_ctx.next_vmspace_id (Machine.sim_ctx t.machine); machine = t.machine; pt; regions = [||] }
  in
  let kept = ref [] in
  Array.iteri
    (fun i r ->
      if share r.base then begin
        let obj = Vm_object.cow_clone r.obj in
        kept := { r with obj; cow = r.cow || r.prot.write } :: !kept;
        if r.prot.write && not r.cow then t.regions.(i) <- { r with cow = true }
      end)
    t.regions;
  child.regions <- Array.of_list (List.rev !kept);
  child

(* PTE surgery for one resolved CoW write fault: repoint [va]'s leaf at
   the private [frame] (ownership walk included) and charge the PTE
   writes it took. Frame allocation and the byte copy happened in
   [Vm_object.resolve_cow_write]. *)
let cow_break t ~charge_to ~va ~frame =
  let before = snapshot_stats t in
  Page_table.break_cow t.pt ~va ~pa:(Sj_mem.Phys_mem.base_of_frame frame);
  charge_pt_delta t charge_to before

let graft_cached t ~charge_to ~base ~subtree ~region =
  check_no_overlap t ~base ~size:region.size;
  let before = snapshot_stats t in
  Page_table.graft_subtree t.pt ~va:base subtree;
  charge_pt_delta t charge_to before;
  insert_region t region

let prune_cached t ~charge_to ~base ~gib_spans =
  let before = snapshot_stats t in
  for i = 0 to gib_spans - 1 do
    Page_table.prune_subtree t.pt ~va:(base + (i * Size.gib 1)) ~level:2
  done;
  charge_pt_delta t charge_to before;
  t.regions <-
    Array.of_list
      (List.filter
         (fun r -> not (r.base >= base && r.base < base + (gib_spans * Size.gib 1)))
         (Array.to_list t.regions))

let destroy t ~charge_to =
  let before = snapshot_stats t in
  Page_table.destroy t.pt;
  (* Teardown is page-table work like any other: the PTE clears counted
     by [Page_table.destroy] are charged to the detaching core. *)
  charge_pt_delta t charge_to before;
  (match charge_to with
  | None -> ()
  | Some core -> (
    match Sj_obs.Recorder.active (Core.sim_ctx core) with
    | Some r ->
      let clears = (Page_table.stats t.pt).pte_clears - before.pte_clears in
      Sj_obs.Recorder.emit r ~core:(Core.id core) ~cycles:(Core.cycles core)
        (Sj_obs.Event.Pt_teardown { pte_clears = clears })
    | None -> ()));
  t.regions <- [||]
