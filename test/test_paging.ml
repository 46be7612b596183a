(* Tests for page tables: mapping, walking, sharing, accounting. *)
open Sj_util
open Sj_paging
module Pm = Sj_mem.Phys_mem

let mk () = Pm.create ~size:(Size.mib 64) ~numa_nodes:1

let test_map_walk () =
  let m = mk () in
  let pt = Page_table.create m in
  let f = Pm.alloc_frame m in
  let va = 0xC0DE000 in
  Page_table.map pt ~va ~pa:(Pm.base_of_frame f) ~prot:Prot.rw ~size:Page_table.P4K;
  (match Page_table.walk pt ~va with
  | Some mapping ->
    Alcotest.(check int) "pa" (Pm.base_of_frame f) mapping.pa;
    Alcotest.(check int) "4 levels" 4 mapping.levels;
    Alcotest.(check bool) "writable" true mapping.prot.write
  | None -> Alcotest.fail "expected mapping");
  Alcotest.(check bool) "unmapped va faults" true (Page_table.walk pt ~va:0xDEAD000 = None)

let test_map_2m () =
  let m = mk () in
  let pt = Page_table.create m in
  let pa = Size.mib 2 in
  (* Physical range must exist for data access, but walk itself doesn't
     check frames; map a 2 MiB page at VA 4 MiB. *)
  Page_table.map pt ~va:(Size.mib 4) ~pa ~prot:Prot.r ~size:Page_table.P2M;
  match Page_table.walk pt ~va:(Size.mib 4 + 12345) with
  | Some mapping ->
    Alcotest.(check int) "3 levels for 2M page" 3 mapping.levels;
    Alcotest.(check int) "page base pa" pa mapping.pa
  | None -> Alcotest.fail "expected 2M mapping"

let test_double_map_rejected () =
  let m = mk () in
  let pt = Page_table.create m in
  let f = Pm.alloc_frame m in
  Page_table.map pt ~va:0x1000 ~pa:(Pm.base_of_frame f) ~prot:Prot.rw ~size:Page_table.P4K;
  Alcotest.(check bool) "second map raises" true
    (try
       Page_table.map pt ~va:0x1000 ~pa:(Pm.base_of_frame f) ~prot:Prot.rw
         ~size:Page_table.P4K;
       false
     with Invalid_argument _ -> true)

let test_unmap () =
  let m = mk () in
  let pt = Page_table.create m in
  let f = Pm.alloc_frame m in
  Page_table.map pt ~va:0x1000 ~pa:(Pm.base_of_frame f) ~prot:Prot.rw ~size:Page_table.P4K;
  Page_table.unmap pt ~va:0x1000 ~size:Page_table.P4K;
  Alcotest.(check bool) "gone" true (Page_table.walk pt ~va:0x1000 = None);
  (* Empty interior tables are pruned: only the root remains. *)
  let st = Page_table.stats pt in
  Alcotest.(check int) "all interior tables freed"
    (st.tables_allocated - 1) st.tables_freed

let test_alignment_checks () =
  let m = mk () in
  let pt = Page_table.create m in
  Alcotest.(check bool) "unaligned va" true
    (try
       Page_table.map pt ~va:0x1001 ~pa:0 ~prot:Prot.r ~size:Page_table.P4K;
       false
     with Invalid_argument _ -> true)

let test_protect () =
  let m = mk () in
  let pt = Page_table.create m in
  let f = Pm.alloc_frame m in
  Page_table.map pt ~va:0x1000 ~pa:(Pm.base_of_frame f) ~prot:Prot.rw ~size:Page_table.P4K;
  Page_table.protect pt ~va:0x1000 ~size:Page_table.P4K ~prot:Prot.r;
  match Page_table.walk pt ~va:0x1000 with
  | Some mapping -> Alcotest.(check bool) "now read-only" false mapping.prot.write
  | None -> Alcotest.fail "mapping lost"

let test_table_accounting () =
  let m = mk () in
  let pt = Page_table.create m in
  let frames = Pm.alloc_frames m ~n:8 in
  Page_table.map_range pt ~va:0x10000 ~frames ~prot:Prot.rw;
  let st = Page_table.stats pt in
  (* Root + PDPT + PD + PT = 4 tables; 3 interior links + 8 leaves = 11 writes. *)
  Alcotest.(check int) "tables" 4 st.tables_allocated;
  Alcotest.(check int) "pte writes" 11 st.pte_writes

let test_pml4_boundary_tables () =
  (* §4.4: an 8 KiB segment crossing a PML4 slot boundary requires 7
     tables (1 PML4 + 2 each of PDPT, PD, PT). *)
  let m = mk () in
  let pt = Page_table.create m in
  let frames = Pm.alloc_frames m ~n:2 in
  let boundary = 1 lsl 39 in
  Page_table.map pt ~va:(boundary - Addr.page_size) ~pa:(Pm.base_of_frame frames.(0))
    ~prot:Prot.rw ~size:Page_table.P4K;
  Page_table.map pt ~va:boundary ~pa:(Pm.base_of_frame frames.(1)) ~prot:Prot.rw
    ~size:Page_table.P4K;
  Alcotest.(check int) "7 tables for straddling 8KiB" 7
    (Page_table.stats pt).tables_allocated

let test_subtree_sharing () =
  let m = mk () in
  let pt1 = Page_table.create m in
  let frames = Pm.alloc_frames m ~n:16 in
  let base = Size.gib 1 in
  Page_table.map_range pt1 ~va:base ~frames ~prot:Prot.rw;
  let sub =
    match Page_table.extract_subtree pt1 ~va:base ~level:2 with
    | Some s -> s
    | None -> Alcotest.fail "no subtree"
  in
  Alcotest.(check int) "PD level" 2 (Page_table.subtree_level sub);
  let pt2 = Page_table.create m in
  let writes_before = (Page_table.stats pt2).pte_writes in
  Page_table.graft_subtree pt2 ~va:base sub;
  (* Grafting into an empty root allocates the PDPT + 2 entry writes. *)
  Alcotest.(check bool) "cheap graft" true ((Page_table.stats pt2).pte_writes - writes_before <= 2);
  (match Page_table.walk pt2 ~va:(base + (3 * Addr.page_size)) with
  | Some mapping ->
    Alcotest.(check int) "same translation" (Pm.base_of_frame frames.(3)) mapping.pa
  | None -> Alcotest.fail "graft did not translate");
  (* Unmap via pt1 is visible through pt2 (shared tables). *)
  Page_table.unmap pt1 ~va:(base + (3 * Addr.page_size)) ~size:Page_table.P4K;
  Alcotest.(check bool) "shared update visible" true
    (Page_table.walk pt2 ~va:(base + (3 * Addr.page_size)) = None);
  (* Destroying pt1 must not free the shared subtree. *)
  Page_table.destroy pt1;
  Alcotest.(check bool) "still translates after owner death" true
    (Page_table.walk pt2 ~va:(base + Addr.page_size) <> None);
  Page_table.prune_subtree pt2 ~va:base ~level:2;
  Page_table.release_subtree pt2 sub;
  Page_table.destroy pt2

let test_frames_reclaimed () =
  let m = mk () in
  let before = Pm.frames_allocated m in
  let pt = Page_table.create m in
  let frames = Pm.alloc_frames m ~n:64 in
  Page_table.map_range pt ~va:0x200000 ~frames ~prot:Prot.rw;
  Page_table.destroy pt;
  Array.iter (Pm.free_frame m) frames;
  Alcotest.(check int) "no leaked frames" before (Pm.frames_allocated m)

let prop_walk_inverts_map =
  QCheck.Test.make ~name:"walk returns exactly what map installed" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 50) (int_bound 100_000))
    (fun page_numbers ->
      let page_numbers = List.sort_uniq compare page_numbers in
      let m = Pm.create ~size:(Size.mib 16) ~numa_nodes:1 in
      let pt = Page_table.create m in
      let assoc =
        List.map
          (fun pn ->
            let f = Pm.alloc_frame m in
            let va = pn * Addr.page_size in
            Page_table.map pt ~va ~pa:(Pm.base_of_frame f) ~prot:Prot.rw
              ~size:Page_table.P4K;
            (va, Pm.base_of_frame f))
          page_numbers
      in
      List.for_all
        (fun (va, pa) ->
          match Page_table.walk pt ~va with Some m -> m.pa = pa | None -> false)
        assoc)

let prop_unmap_removes_exactly =
  QCheck.Test.make ~name:"unmap removes only the target page" ~count:50
    QCheck.(pair (int_range 2 30) (int_bound 1000))
    (fun (n, seed) ->
      let m = Pm.create ~size:(Size.mib 16) ~numa_nodes:1 in
      let pt = Page_table.create m in
      let frames = Pm.alloc_frames m ~n in
      Page_table.map_range pt ~va:0x400000 ~frames ~prot:Prot.rw;
      let victim = seed mod n in
      Page_table.unmap pt ~va:(0x400000 + (victim * Addr.page_size)) ~size:Page_table.P4K;
      let ok = ref true in
      for i = 0 to n - 1 do
        let present = Page_table.walk pt ~va:(0x400000 + (i * Addr.page_size)) <> None in
        if i = victim then ok := !ok && not present else ok := !ok && present
      done;
      !ok)

(* Model-based: random map/unmap/protect sequences agree with a shadow
   association table (page -> (pa, writable)). *)
let prop_paging_model =
  QCheck.Test.make ~name:"page table agrees with shadow map under mixed ops" ~count:60
    QCheck.(
      list_of_size Gen.(int_range 1 200) (triple (int_bound 3) (int_bound 60) (int_bound 1)))
    (fun ops ->
      let m = Pm.create ~size:(Size.mib 32) ~numa_nodes:1 in
      let pt = Page_table.create m in
      let shadow : (int, int * bool) Hashtbl.t = Hashtbl.create 64 in
      let ok = ref true in
      List.iter
        (fun (op, page, w) ->
          let va = (page + 16) * Addr.page_size in
          let writable = w = 1 in
          match op with
          | 0 | 1 ->
            if not (Hashtbl.mem shadow page) then begin
              let f = Pm.alloc_frame m in
              Page_table.map pt ~va ~pa:(Pm.base_of_frame f)
                ~prot:(if writable then Prot.rw else Prot.r)
                ~size:Page_table.P4K;
              Hashtbl.replace shadow page (Pm.base_of_frame f, writable)
            end
          | 2 ->
            if Hashtbl.mem shadow page then begin
              Page_table.unmap pt ~va ~size:Page_table.P4K;
              Hashtbl.remove shadow page
            end
          | _ ->
            if Hashtbl.mem shadow page then begin
              Page_table.protect pt ~va ~size:Page_table.P4K
                ~prot:(if writable then Prot.rw else Prot.r);
              let pa, _ = Hashtbl.find shadow page in
              Hashtbl.replace shadow page (pa, writable)
            end)
        ops;
      (* Verify every page in a window around the touched range. *)
      for page = 0 to 100 do
        let va = (page + 16) * Addr.page_size in
        match (Page_table.walk pt ~va, Hashtbl.find_opt shadow page) with
        | None, None -> ()
        | Some mp, Some (pa, writable) ->
          if mp.pa <> pa || mp.prot.write <> writable then ok := false
        | Some _, None | None, Some _ -> ok := false
      done;
      !ok)

(* [Page_table.destroy] counts one PTE clear per live slot of every
   table it frees; for level-1 tables it reads the live count instead of
   scanning. Pin that against a reference that scans every slot of every
   table whose last reference the destroy drops. *)
let reference_clears store root =
  let drops = Hashtbl.create 64 in
  let rec go node =
    let d = 1 + Option.value ~default:0 (Hashtbl.find_opt drops node) in
    Hashtbl.replace drops node d;
    if Sj_mem.Pt_store.refs store node > d then 0
    else begin
      let n = ref 0 in
      for i = 0 to Sj_mem.Pt_store.slots - 1 do
        let e = Sj_mem.Pt_store.get store node i in
        match e land 3 with
        | 1 | 3 -> n := !n + 1 + go (e lsr 2)
        | 2 -> incr n
        | _ -> ()
      done;
      !n
    end
  in
  go root

let test_destroy_clear_count () =
  let m = Pm.create ~size:(Size.mib 64) ~numa_nodes:1 in
  let store = Pm.pt_store m in
  let frames = Pm.alloc_frames m ~n:4096 in
  let pa i = Pm.base_of_frame frames.(i) in
  let make () =
    let pt = Page_table.create m in
    (pt, List.hd (Pm.pt_roots m))
  in
  let destroy_checked what (pt, root) =
    let expected = reference_clears store root in
    let before = (Page_table.stats pt).pte_clears in
    Page_table.destroy pt;
    Alcotest.(check int) what expected ((Page_table.stats pt).pte_clears - before)
  in
  (* A run straddling a 1 GiB boundary, with holes punched by unmap. *)
  let run_va = Size.gib 1 - (700 * Addr.page_size) in
  let build () =
    let ((pt, _) as t) = make () in
    Page_table.map_run pt ~va:run_va ~n:1400 ~frames ~off:0 ~prot:Prot.rw;
    for i = 0 to 99 do
      Page_table.unmap pt ~va:(run_va + (i * 7 * Addr.page_size)) ~size:Page_table.P4K
    done;
    (* Fully unmap one leaf table's worth so unmap prunes it. *)
    Page_table.map_run pt ~va:(Size.gib 3) ~n:512 ~frames ~off:1500 ~prot:Prot.r;
    Page_table.unmap_range pt ~va:(Size.gib 3) ~pages:512;
    for i = 0 to 2 do
      Page_table.map pt ~va:(Size.gib 2 + (i * Size.mib 2)) ~pa:(i * Size.mib 2) ~prot:Prot.rw
        ~size:Page_table.P2M
    done;
    Page_table.map_run pt ~va:(Size.gib 2 + Size.mib 6) ~n:3 ~frames ~off:2100 ~prot:Prot.rw;
    t
  in
  destroy_checked "map_run/unmap/2 MiB tree" (build ());
  (* A fork family: each side breaks CoW and maps fresh pages, then the
     clone dies first (shared subtrees survive it), then the original. *)
  let ((pt, _) as orig) = build () in
  let clone = Page_table.clone_cow pt in
  let clone_t = (clone, List.hd (Pm.pt_roots m)) in
  List.iter
    (fun (i, f) -> Page_table.break_cow clone ~va:(run_va + (i * Addr.page_size)) ~pa:(pa f))
    [ (1, 3000); (600, 3001); (1300, 3002) ];
  Page_table.break_cow pt ~va:(run_va + (2 * Addr.page_size)) ~pa:(pa 3003);
  Page_table.map_run clone ~va:(Size.gib 5) ~n:20 ~frames ~off:3100 ~prot:Prot.rw;
  Page_table.unmap clone ~va:(run_va + (5 * Addr.page_size)) ~size:Page_table.P4K;
  destroy_checked "forked clone" clone_t;
  destroy_checked "fork original after its clone" orig;
  let a = Page_table.audit m in
  Alcotest.(check int) "no leaked nodes" 0 a.Page_table.a_leaked;
  Alcotest.(check int) "no live nodes" 0 a.Page_table.a_nodes

let suite =
  [
    Alcotest.test_case "map and walk" `Quick test_map_walk;
    Alcotest.test_case "2 MiB pages" `Quick test_map_2m;
    Alcotest.test_case "double map rejected" `Quick test_double_map_rejected;
    Alcotest.test_case "unmap prunes tables" `Quick test_unmap;
    Alcotest.test_case "alignment checks" `Quick test_alignment_checks;
    Alcotest.test_case "protect" `Quick test_protect;
    Alcotest.test_case "table accounting" `Quick test_table_accounting;
    Alcotest.test_case "PML4-boundary 7-table case (sec 4.4)" `Quick test_pml4_boundary_tables;
    Alcotest.test_case "subtree sharing" `Quick test_subtree_sharing;
    Alcotest.test_case "frames reclaimed" `Quick test_frames_reclaimed;
    QCheck_alcotest.to_alcotest prop_walk_inverts_map;
    QCheck_alcotest.to_alcotest prop_unmap_removes_exactly;
    QCheck_alcotest.to_alcotest prop_paging_model;
    Alcotest.test_case "destroy counts every live slot" `Quick test_destroy_clear_count;
  ]
