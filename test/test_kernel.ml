(* Tests for the kernel substrate: ACLs, capabilities, VM objects,
   vmspaces, processes. *)
open Sj_util
open Sj_kernel
module Machine = Sj_machine.Machine
module Pm = Sj_mem.Phys_mem
module Prot = Sj_paging.Prot
module Page_table = Sj_paging.Page_table
module Error = Sj_abi.Error

(* [true] iff running [f] faults with [code]. *)
let faults code f =
  try
    ignore (f ());
    false
  with Error.Fault e -> Error.equal_code e.code code

let tiny : Sj_machine.Platform.t =
  { Sj_machine.Platform.m2 with name = "tiny"; mem_size = Size.mib 128; sockets = 2; cores_per_socket = 2 }

(* --- ACL --- *)

let test_acl_owner () =
  let acl = Acl.create ~owner:100 ~group:10 ~mode:0o640 in
  let u = Acl.cred ~uid:100 ~gids:[ 10 ] in
  Alcotest.(check bool) "owner read" true (Acl.check acl u `Read);
  Alcotest.(check bool) "owner write" true (Acl.check acl u `Write);
  Alcotest.(check bool) "owner no exec" false (Acl.check acl u `Exec)

let test_acl_group_other () =
  let acl = Acl.create ~owner:100 ~group:10 ~mode:0o640 in
  let g = Acl.cred ~uid:200 ~gids:[ 10 ] in
  let o = Acl.cred ~uid:300 ~gids:[ 30 ] in
  Alcotest.(check bool) "group read" true (Acl.check acl g `Read);
  Alcotest.(check bool) "group no write" false (Acl.check acl g `Write);
  Alcotest.(check bool) "other no read" false (Acl.check acl o `Read)

let test_acl_root_and_entries () =
  let acl = Acl.create ~owner:100 ~group:10 ~mode:0o600 in
  Alcotest.(check bool) "root always" true (Acl.check acl Acl.root `Write);
  let acl = Acl.add_entry acl ~uid:555 Prot.r in
  let entry_user = Acl.cred ~uid:555 ~gids:[ 99 ] in
  Alcotest.(check bool) "ACL entry read" true (Acl.check acl entry_user `Read);
  Alcotest.(check bool) "ACL entry no write" false (Acl.check acl entry_user `Write)

let test_acl_chmod () =
  let acl = Acl.create ~owner:1 ~group:1 ~mode:0o600 in
  let other = Acl.cred ~uid:2 ~gids:[ 2 ] in
  Alcotest.(check bool) "before" false (Acl.check acl other `Read);
  let acl = Acl.chmod acl ~mode:0o604 in
  Alcotest.(check bool) "after" true (Acl.check acl other `Read)

(* --- Capabilities --- *)

let test_cap_retype () =
  let ram = Cap.create_ram (Sim_ctx.create ()) ~size:4096 in
  let frame = Cap.retype ram ~into:Cap.Frame in
  Alcotest.(check bool) "frame type" true (Cap.captype frame = Cap.Frame);
  Alcotest.(check bool) "second retype rejected" true
    (faults Error.Invalid (fun () -> Cap.retype ram ~into:(Cap.Vnode 1)))

let test_cap_mint_diminish () =
  let c = Cap.create_vas_ref (Sim_ctx.create ()) ~vas:1 ~rights:Prot.rw in
  let ro = Cap.mint c ~rights:Prot.r in
  Alcotest.(check bool) "diminished" true (Cap.rights ro = Prot.r);
  Alcotest.(check bool) "amplification rejected" true
    (faults Error.Permission_denied (fun () -> Cap.mint ro ~rights:Prot.rw))

let test_cap_revoke_recursive () =
  let root = Cap.create_vas_ref (Sim_ctx.create ()) ~vas:1 ~rights:Prot.rwx in
  let child = Cap.mint root ~rights:Prot.rw in
  let grandchild = Cap.mint child ~rights:Prot.r in
  Cap.revoke root;
  Alcotest.(check bool) "all revoked" true
    (Cap.is_revoked root && Cap.is_revoked child && Cap.is_revoked grandchild)

let test_cspace_invoke () =
  let cs = Cap.Cspace.create () in
  let c = Cap.create_vas_ref (Sim_ctx.create ()) ~vas:1 ~rights:Prot.r in
  let slot = Cap.Cspace.insert cs c in
  Alcotest.(check bool) "read invoke ok" true (Cap.Cspace.invoke cs ~slot ~access:`Read == c);
  Alcotest.(check bool) "write invoke rejected" true
    (faults Error.Permission_denied (fun () -> Cap.Cspace.invoke cs ~slot ~access:`Write));
  Cap.revoke c;
  Alcotest.(check bool) "revoked invoke rejected" true
    (faults Error.Stale_handle (fun () -> Cap.Cspace.invoke cs ~slot ~access:`Read))

(* --- VM objects & vmspace --- *)

let test_vm_object_reserves () =
  let m = Machine.create tiny in
  let before = Pm.frames_allocated (Machine.mem m) in
  let obj = Vm_object.create m ~size:(Size.kib 64) ~charge_to:None in
  Alcotest.(check int) "16 pages reserved" (before + 16) (Pm.frames_allocated (Machine.mem m));
  Alcotest.(check int) "pages" 16 (Vm_object.pages obj);
  Vm_object.destroy m obj;
  Alcotest.(check int) "released" before (Pm.frames_allocated (Machine.mem m))

let test_vm_object_grow () =
  let m = Machine.create tiny in
  let obj = Vm_object.create m ~size:(Size.kib 16) ~charge_to:None in
  Vm_object.grow m obj ~by_pages:4 ~charge_to:None;
  Alcotest.(check int) "grown" 8 (Vm_object.pages obj)

let test_vmspace_map_unmap () =
  let m = Machine.create tiny in
  let vms = Vmspace.create m ~charge_to:None in
  let obj = Vm_object.create m ~size:(Size.kib 32) ~charge_to:None in
  Vmspace.map_object vms ~charge_to:None ~base:0x100000 ~prot:Prot.rw obj;
  (match Vmspace.find_region vms ~va:0x104000 with
  | Some r -> Alcotest.(check int) "region found" 0x100000 r.base
  | None -> Alcotest.fail "region missing");
  (match Page_table.walk (Vmspace.page_table vms) ~va:0x101000 with
  | Some mapping ->
    Alcotest.(check int) "mapped to object frame"
      (Pm.base_of_frame (Vm_object.frame_at obj ~page:1))
      mapping.pa
  | None -> Alcotest.fail "translation missing");
  Vmspace.unmap_region vms ~charge_to:None ~base:0x100000;
  Alcotest.(check bool) "unmapped" true
    (Page_table.walk (Vmspace.page_table vms) ~va:0x101000 = None);
  Alcotest.(check (list reject)) "no regions" [] (Vmspace.regions vms |> List.map ignore)

let test_vmspace_overlap_rejected () =
  let m = Machine.create tiny in
  let vms = Vmspace.create m ~charge_to:None in
  let obj = Vm_object.create m ~size:(Size.kib 32) ~charge_to:None in
  let obj2 = Vm_object.create m ~size:(Size.kib 32) ~charge_to:None in
  Vmspace.map_object vms ~charge_to:None ~base:0x100000 ~prot:Prot.rw obj;
  Alcotest.(check bool) "overlap raises" true
    (faults Error.Address_conflict (fun () ->
         Vmspace.map_object vms ~charge_to:None ~base:0x104000 ~prot:Prot.rw obj2))

let test_vmspace_charges_costs () =
  let m = Machine.create tiny in
  let core = Machine.core m 0 in
  let vms = Vmspace.create m ~charge_to:(Some core) in
  let obj = Vm_object.create m ~size:(Size.mib 1) ~charge_to:None in
  let c0 = Machine.Core.cycles core in
  Vmspace.map_object vms ~charge_to:(Some core) ~base:0x200000 ~prot:Prot.rw obj;
  let mapped_cost = Machine.Core.cycles core - c0 in
  (* 256 PTEs at 42 cycles each is the floor. *)
  Alcotest.(check bool) "mapping charged" true (mapped_cost >= 256 * 42)

(* Regression: Vmspace.destroy used to free the translation tree
   without charging the PTE clears to anyone — a detach looked ~free
   while map paid full price. Teardown now charges the delta like every
   other page-table mutation. *)
let test_vmspace_destroy_charges () =
  let m = Machine.create tiny in
  let core = Machine.core m 0 in
  let vms = Vmspace.create m ~charge_to:None in
  let obj = Vm_object.create m ~size:(Size.mib 1) ~charge_to:None in
  Vmspace.map_object vms ~charge_to:None ~base:0x200000 ~prot:Prot.rw obj;
  let c0 = Machine.Core.cycles core in
  Vmspace.destroy vms ~charge_to:(Some core);
  let cost = Machine.Core.cycles core - c0 in
  (* 256 leaf PTEs at the pte_clear rate (30 cycles) is the floor; the
     table spine comes on top. *)
  Alcotest.(check bool)
    (Printf.sprintf "teardown charged (%d cycles)" cost)
    true
    (cost >= 256 * 30)

(* Regression: remap_page blindly rewrote a 4 KiB PTE even when the VA
   lay inside a 2 MiB region, corrupting the huge mapping. It now
   raises a typed Invalid fault for 2 MiB regions and keeps working for
   4 KiB ones. *)
let test_remap_page_granularity () =
  let m = Machine.create tiny in
  let vms = Vmspace.create m ~charge_to:None in
  let huge = Vm_object.create ~contiguous:true m ~size:(Size.mib 2) ~charge_to:None in
  Vmspace.map_object vms ~charge_to:None ~base:(Size.mib 4) ~page:Page_table.P2M
    ~prot:Prot.rw huge;
  let frame = (Pm.alloc_frames (Machine.mem m) ~n:1).(0) in
  Alcotest.(check bool) "remap inside 2 MiB region faults Invalid" true
    (faults Error.Invalid (fun () ->
         Vmspace.remap_page vms ~charge_to:None ~va:(Size.mib 4 + Size.kib 4) ~frame
           ~prot:Prot.rw));
  (* The 2 MiB translation is untouched. *)
  (match Page_table.walk (Vmspace.page_table vms) ~va:(Size.mib 4 + Size.kib 4) with
  | Some mapping ->
    Alcotest.(check bool) "huge mapping intact" true (mapping.size = Page_table.P2M)
  | None -> Alcotest.fail "huge mapping lost");
  (* The 4 KiB path still repairs translations. *)
  let small = Vm_object.create m ~size:(Size.kib 16) ~charge_to:None in
  Vmspace.map_object vms ~charge_to:None ~base:0x100000 ~prot:Prot.rw small;
  Vmspace.remap_page vms ~charge_to:None ~va:0x101000 ~frame ~prot:Prot.r;
  match Page_table.walk (Vmspace.page_table vms) ~va:0x101000 with
  | Some mapping ->
    Alcotest.(check int) "retargeted frame" (Pm.base_of_frame frame) mapping.pa
  | None -> Alcotest.fail "4 KiB translation missing"

(* --- VM-object frame ownership against a naive model ---

   The model keeps one page -> frame array per live object; a frame's
   holders are the live objects whose array contains it. The real
   objects keep frames in shared 512-frame chunks with per-frame owner
   counts; after every step the two must agree on every frame, on
   [page_shared], on the allocated-frame count, and on which frames are
   free. *)

type model_obj = { real : Vm_object.t; mutable frames : int array }

let model_check m ~base live ~dead =
  let mem = Machine.mem m in
  let holders = Hashtbl.create 1024 in
  List.iter
    (fun o ->
      Array.iter
        (fun f -> Hashtbl.replace holders f (1 + Option.value ~default:0 (Hashtbl.find_opt holders f)))
        o.frames)
    live;
  List.iter
    (fun o ->
      if Vm_object.pages o.real <> Array.length o.frames then Alcotest.fail "page count";
      Array.iteri
        (fun page f ->
          if (Vm_object.frame_at o.real ~page :> int) <> f then
            Alcotest.failf "frame_at page %d: model %d" page f;
          if Vm_object.page_shared o.real ~page <> (Hashtbl.find holders f > 1) then
            Alcotest.failf "page_shared page %d (frame %d, %d holders)" page f
              (Hashtbl.find holders f))
        o.frames)
    live;
  Alcotest.(check int) "frames allocated" (base + Hashtbl.length holders) (Pm.frames_allocated mem);
  (* Freed exactly when the last holder went: every frame a dead object
     held is free unless a live one still holds it. *)
  List.iter
    (fun f ->
      let held = Hashtbl.mem holders f in
      if Pm.is_allocated mem (Pm.frame_of_addr (f * Addr.page_size)) <> held then
        Alcotest.failf "frame %d: allocated=%b but %d live holders" f (not held)
          (Option.value ~default:0 (Hashtbl.find_opt holders f)))
    dead

let frames_of obj = Array.init (Vm_object.pages obj) (fun page -> (Vm_object.frame_at obj ~page :> int))

(* One step per (op, a, b): create, clone, write, grow, destroy. *)
let run_ownership_ops ops =
  let m = Machine.create tiny in
  let base = Pm.frames_allocated (Machine.mem m) in
  let live = ref [] and dead = ref [] in
  let nth k = List.nth !live (k mod List.length !live) in
  List.iter
    (fun (op, a, b) ->
      let op = if !live = [] then 0 else if List.length !live >= 8 && op <= 1 then 4 else op in
      (match op with
      | 0 ->
        let obj = Vm_object.create m ~size:((1 + (a * 37 mod 1200)) * Addr.page_size) ~charge_to:None in
        live := { real = obj; frames = frames_of obj } :: !live
      | 1 ->
        let o = nth a in
        live := { real = Vm_object.cow_clone o.real; frames = Array.copy o.frames } :: !live
      | 2 ->
        let o = nth a in
        let page = b mod Array.length o.frames in
        let old = o.frames.(page) in
        let shared = List.exists (fun o' -> o' != o && Array.mem old o'.frames) !live in
        let f = (Vm_object.resolve_cow_write o.real ~page m ~charge_to:None :> int) in
        if shared then begin
          if f = old || List.exists (fun o' -> Array.mem f o'.frames) !live then
            Alcotest.failf "split of page %d reused a held frame %d" page f;
          dead := old :: !dead;
          o.frames.(page) <- f
        end
        else Alcotest.(check int) "unshared write keeps its frame" old f
      | 3 ->
        let o = nth a in
        Vm_object.grow m o.real ~by_pages:(1 + (b * 13 mod 600)) ~charge_to:None;
        let all = frames_of o.real in
        let fresh = Array.sub all (Array.length o.frames) (Array.length all - Array.length o.frames) in
        Array.iter
          (fun f -> if List.exists (fun o' -> Array.mem f o'.frames) !live then Alcotest.fail "grow reused")
          fresh;
        o.frames <- all
      | _ ->
        let o = nth a in
        Vm_object.destroy m o.real;
        live := List.filter (fun o' -> o' != o) !live;
        dead := Array.to_list o.frames @ !dead);
      model_check m ~base !live ~dead:!dead)
    ops;
  List.iter (fun o -> Vm_object.destroy m o.real) !live;
  model_check m ~base [] ~dead:!dead;
  true

let prop_vm_object_ownership =
  QCheck.Test.make ~name:"vm_object ownership matches the per-page model" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 30) (triple (int_bound 4) small_nat small_nat))
    run_ownership_ops

(* Owner counts past one byte: 300 live clones each privatize the same
   chunk, so its other frames reach 301 owners (the frame table's
   overflow side table), then fall back through 255 as clones die. *)
let test_vm_object_owner_overflow () =
  let m = Machine.create tiny in
  let mem = Machine.mem m in
  let base = Pm.frames_allocated mem in
  let obj = Vm_object.create m ~size:(600 * Addr.page_size) ~charge_to:None in
  let f1 = Vm_object.frame_at obj ~page:1 and f512 = Vm_object.frame_at obj ~page:512 in
  let clones = Array.init 300 (fun _ -> Vm_object.cow_clone obj) in
  Array.iter (fun c -> ignore (Vm_object.resolve_cow_write c ~page:0 m ~charge_to:None)) clones;
  Alcotest.(check int) "one owner per chunk holding page 1's frame" 301 (Pm.frame_refs mem f1);
  Alcotest.(check int) "the unwritten chunk is shared, not copied" 1 (Pm.frame_refs mem f512);
  Alcotest.(check int) "frames: 600 + one split each" (base + 900) (Pm.frames_allocated mem);
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) "clone page 0 private" false (Vm_object.page_shared c ~page:0);
      Alcotest.(check bool) "clone page 1 shared" true (Vm_object.page_shared c ~page:1);
      Alcotest.(check int) "frame_at" (f1 :> int) (Vm_object.frame_at c ~page:1 :> int);
      Vm_object.destroy m c;
      Alcotest.(check int) "owners fall as clones go" (300 - i) (Pm.frame_refs mem f1))
    clones;
  Alcotest.(check bool) "original page 1 unshared again" false (Vm_object.page_shared obj ~page:1);
  Alcotest.(check int) "split frames freed" (base + 600) (Pm.frames_allocated mem);
  Vm_object.destroy m obj;
  Alcotest.(check int) "all freed" base (Pm.frames_allocated mem);
  Alcotest.(check int) "no owners left" 0 (Pm.frame_refs mem f1)

(* --- Process --- *)

let test_process_layout () =
  let m = Machine.create tiny in
  let p = Process.create ~name:"init" m in
  let regions = Process.private_regions p in
  Alcotest.(check int) "text+data+stack" 3 (List.length regions);
  let names = List.filter_map (fun (r : Vmspace.region) -> r.region_name) regions in
  Alcotest.(check (list string)) "names" [ "text"; "data"; "stack0" ] names;
  let th = Process.main_thread p in
  Alcotest.(check bool) "stack below limit" true (th.stack_base < Layout.private_limit)

let test_process_threads () =
  let m = Machine.create tiny in
  let p = Process.create ~name:"worker" m in
  let t1 = Process.spawn_thread p in
  let t2 = Process.spawn_thread p in
  Alcotest.(check int) "three threads" 3 (List.length (Process.threads p));
  Alcotest.(check bool) "stacks descend" true
    (t2.stack_base < t1.stack_base && t1.stack_base < (Process.main_thread p).stack_base)

let test_process_exit_releases () =
  let m = Machine.create tiny in
  let before = Pm.frames_allocated (Machine.mem m) in
  let p = Process.create ~name:"short" m in
  Process.exit p;
  Alcotest.(check int) "all memory released" before (Pm.frames_allocated (Machine.mem m));
  Alcotest.(check bool) "not live" false (Process.is_live p)

let test_layout_disjoint () =
  let ctx = Sim_ctx.create () in
  let b1 = Layout.next_global_base ctx ~size:(Size.mib 4) in
  let b2 = Layout.next_global_base ctx ~size:(Size.gib 2) in
  let b3 = Layout.next_global_base ctx ~size:(Size.mib 1) in
  Alcotest.(check bool) "global range" true (Layout.is_global b1 && Layout.is_global b2);
  Alcotest.(check bool) "1 GiB aligned" true
    (b1 mod Size.gib 1 = 0 && b2 mod Size.gib 1 = 0 && b3 mod Size.gib 1 = 0);
  Alcotest.(check bool) "disjoint" true (b2 >= b1 + Size.gib 1 && b3 >= b2 + Size.gib 2);
  Alcotest.(check bool) "private vs global disjoint" true
    (not (Layout.is_global Layout.text_base) && not (Layout.is_private b1))

let suite =
  [
    Alcotest.test_case "ACL owner bits" `Quick test_acl_owner;
    Alcotest.test_case "ACL group/other" `Quick test_acl_group_other;
    Alcotest.test_case "ACL root + entries" `Quick test_acl_root_and_entries;
    Alcotest.test_case "ACL chmod" `Quick test_acl_chmod;
    Alcotest.test_case "cap retype" `Quick test_cap_retype;
    Alcotest.test_case "cap mint diminishes" `Quick test_cap_mint_diminish;
    Alcotest.test_case "cap revoke recursive" `Quick test_cap_revoke_recursive;
    Alcotest.test_case "cspace invoke" `Quick test_cspace_invoke;
    Alcotest.test_case "vm_object reserves frames" `Quick test_vm_object_reserves;
    Alcotest.test_case "vm_object grow" `Quick test_vm_object_grow;
    Alcotest.test_case "vmspace map/unmap" `Quick test_vmspace_map_unmap;
    Alcotest.test_case "vmspace overlap rejected" `Quick test_vmspace_overlap_rejected;
    Alcotest.test_case "vmspace charges costs" `Quick test_vmspace_charges_costs;
    Alcotest.test_case "vmspace destroy charges teardown" `Quick test_vmspace_destroy_charges;
    Alcotest.test_case "remap_page is 4 KiB-granular" `Quick test_remap_page_granularity;
    Alcotest.test_case "process layout" `Quick test_process_layout;
    Alcotest.test_case "process threads" `Quick test_process_threads;
    Alcotest.test_case "process exit releases memory" `Quick test_process_exit_releases;
    Alcotest.test_case "layout: disjoint global bases" `Quick test_layout_disjoint;
    QCheck_alcotest.to_alcotest prop_vm_object_ownership;
    Alcotest.test_case "vm_object owner counts past 255" `Quick test_vm_object_owner_overflow;
  ]
