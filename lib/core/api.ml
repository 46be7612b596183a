open Sj_util
module Machine = Sj_machine.Machine
module Core = Machine.Core
module Cost_model = Sj_machine.Cost_model
module Prot = Sj_paging.Prot
module Page_table = Sj_paging.Page_table
module Pkey = Sj_paging.Pkey
module Acl = Sj_kernel.Acl
module Cap = Sj_kernel.Cap
module Process = Sj_kernel.Process
module Vmspace = Sj_kernel.Vmspace
module Vm_object = Sj_kernel.Vm_object
module Layout = Sj_kernel.Layout
module Mspace = Sj_alloc.Mspace
module Error = Sj_abi.Error
module Sys = Sj_abi.Sys

(* Structured logging: silent unless the embedding application installs
   a reporter and raises the level (e.g. sjctl --verbose). *)
let log_src = Logs.Src.create "spacejmp" ~doc:"SpaceJMP core API events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type backend = Sj_abi.Sys.backend = Dragonfly | Barrelfish

type system = {
  backend : backend;
  machine : Machine.t;
  reg : Registry.t;
  tab : Sys.t;
  (* Every live context on this system, so crash teardown can reach all
     threads of a dead process (their attachments hold the locks). *)
  mutable ctxs : ctx list;
}

and vh = {
  vas : Vas.t;
  owner : Process.t;
  vmspace : Vmspace.t;
  mutable synced_gen : int;
  mutable mapped : (int * Prot.t) list; (* sids of VAS-global segments mapped *)
  mutable mapped_pages : (int * int) list; (* sid -> pages mapped (growth detection) *)
  mutable local_segs : (Segment.t * Prot.t) list;
  mutable private_bases : int list; (* common-region bases replicated so far *)
  mutable cap_slot : int option; (* Barrelfish: slot of the minted VAS capability *)
  (* Lock state is per-attachment: the first thread to switch in takes
     the segment locks on the process's behalf; further threads of the
     same process share them; the last one out releases (sec 3.1's
     "client" is the attaching process). *)
  mutable entered : int;
  mutable held : (Segment.t * [ `Shared | `Exclusive ]) list;
  mutable detached : bool;
}

and ctx = {
  sys : system;
  proc : Process.t;
  core : Core.core;
  mutable cur : vh option;
  mutable attachments : vh list; (* every live vh this context created *)
}

let boot ?(backend = Dragonfly) machine =
  { backend; machine; reg = Registry.create machine; tab = Sys.create backend;
    ctxs = [] }

let backend sys = sys.backend
let registry sys = sys.reg
let machine sys = sys.machine
let syscalls sys = sys.tab

(* Kernel cost of fielding a copy-on-write fault: trap, region lookup,
   bookkeeping (the page copy and PTE work charge separately). *)
let cow_fault_overhead = 1_100

(* The simulation's event recorder, None when tracing is off. Emitters
   match on this and construct the event only inside the [Some] branch,
   so the disabled path allocates nothing (HACKING.md, "Observability"). *)
let obs ctx = Sj_obs.Recorder.active (Machine.sim_ctx ctx.sys.machine)

let emit_to r ctx kind =
  Sj_obs.Recorder.emit r ~core:(Core.id ctx.core) ~cycles:(Core.cycles ctx.core)
    kind

(* The page-fault handler: resolve copy-on-write write faults against
   the address space the context currently has installed. Two CoW
   flavours arrive here, discriminated by walking the installed tables:

   - fork-style page-table CoW (the walk crossed a CoW-shared subtree
     or hit a CoW-tagged leaf): break-and-copy in place — resolve the
     frame through the region's object, then [Vmspace.cow_break]
     rewrites the one leaf (taking private ownership of the shared
     subtree path) and clears the CoW tag, so the page faults exactly
     once;
   - object-level CoW (sec 7 snapshotting: the PTE itself was
     write-protected): resolve and remap the page writable.

   A walk that already shows a writable non-CoW leaf means the trap
   came from a stale TLB entry another thread's break left behind; the
   retry (which invalidates the page) succeeds without any repair.
   Everything else is a genuine fault. *)
let fault_handler ctx ~va ~access =
  match access with
  | Machine.Read ->
    (match obs ctx with
    | Some rec_ ->
      emit_to rec_ ctx
        (Sj_obs.Event.Page_fault { va; write = false; resolved = false })
    | None -> ());
    false
  | Machine.Write -> (
    let vms =
      match ctx.cur with
      | Some vh -> vh.vmspace
      | None -> Process.primary_vmspace ctx.proc
    in
    let emit_fault resolved =
      match obs ctx with
      | Some rec_ ->
        emit_to rec_ ctx
          (Sj_obs.Event.Page_fault { va; write = true; resolved })
      | None -> ()
    in
    match Vmspace.find_region vms ~va with
    | Some r when r.cow && r.prot.write -> (
      match Page_table.walk (Vmspace.page_table vms) ~va with
      | Some m when m.cow ->
        (* Fork-style CoW: break the page-table sharing in place. *)
        if m.size = Page_table.P2M then begin
          (* Decided refusal: a 2 MiB CoW leaf cannot be split page by
             page without tearing the huge mapping; surface a precise
             typed fault rather than silently demoting it. *)
          emit_fault false;
          Error.failf Invalid ~op:"store"
            "copy-on-write fault on a 2 MiB mapping at 0x%x: huge CoW \
             leaves are not split (remap the segment 4 KiB-backed first)"
            va
        end;
        Core.charge ctx.core cow_fault_overhead;
        let page = ((va - r.base) / Addr.page_size) + r.obj_page in
        let copied = Vm_object.page_shared r.obj ~page in
        let frame =
          Vm_object.resolve_cow_write r.obj ~page ctx.sys.machine
            ~charge_to:(Some ctx.core)
        in
        Vmspace.cow_break vms ~charge_to:(Some ctx.core) ~va ~frame;
        emit_fault true;
        (match obs ctx with
        | Some rec_ -> emit_to rec_ ctx (Sj_obs.Event.Cow_fault { va; copied })
        | None -> ());
        true
      | Some m when m.prot.write ->
        (* Stale TLB: the tables already grant write (another thread of
           this process broke the page). The retry's page invalidation
           is the whole repair. *)
        emit_fault true;
        true
      | Some _ | None ->
        (* Object-level CoW: the leaf itself was write-protected by a
           snapshot. Event-wise this path is unchanged from before fork
           existed ([Page_fault] only) — fork-free traces must stay
           byte-identical. *)
        Core.charge ctx.core cow_fault_overhead;
        let page = ((va - r.base) / Addr.page_size) + r.obj_page in
        let frame =
          Vm_object.resolve_cow_write r.obj ~page ctx.sys.machine
            ~charge_to:(Some ctx.core)
        in
        Vmspace.remap_page vms ~charge_to:(Some ctx.core) ~va ~frame ~prot:r.prot;
        emit_fault true;
        true)
    | Some _ | None ->
      emit_fault false;
      false)

let context sys proc core =
  Core.set_page_table core ~tag:0 (Some (Vmspace.page_table (Process.primary_vmspace proc)));
  let ctx = { sys; proc; core; cur = None; attachments = [] } in
  Core.set_fault_handler core (Some (fun ~va ~access -> fault_handler ctx ~va ~access));
  sys.ctxs <- ctx :: sys.ctxs;
  ctx

let process ctx = ctx.proc
let system ctx = ctx.sys
let core ctx = ctx.core
let current ctx = ctx.cur
let contexts sys = sys.ctxs
let vas_of_vh vh = vh.vas
let vmspace_of_vh vh = vh.vmspace
let cost ctx = Machine.cost ctx.sys.machine

(* -------------------- Crash teardown (§3.2) -------------------- *)

module Injector = Sj_fault.Injector

(* Segment ids the context's process currently holds locks on, across
   every thread of the process (locks belong to attachments, and an
   attachment created by one thread can be entered by another). *)
let held_sids ctx =
  let pid = Process.pid ctx.proc in
  List.concat_map
    (fun c ->
      if Process.pid c.proc = pid then
        List.concat_map
          (fun vh -> List.map (fun (s, _) -> Segment.sid s) vh.held)
          c.attachments
      else [])
    ctx.sys.ctxs

(* Force-release the locks of one attachment on behalf of a dead
   process. Unlike the orderly seg_unlock path, the dead process is not
   issuing calls: the kernel walks the lock list itself, charging one
   uncontended lock operation per reclaim to the core fielding the
   death and emitting [Lock_reclaim] so traces show who freed what. *)
let reclaim_locks ctx ~pid vh =
  let c = cost ctx in
  let n = List.length vh.held in
  List.iter
    (fun (seg, mode) ->
      Core.charge ctx.core c.lock_uncontended;
      Segment.unlock seg ~mode;
      match obs ctx with
      | Some r ->
        emit_to r ctx (Sj_obs.Event.Lock_reclaim { sid = Segment.sid seg; pid })
      | None -> ())
    vh.held;
  vh.held <- [];
  vh.entered <- 0;
  n

(* Reclaim the protection keys a dead (or exiting) process allocated:
   free them in every VAS, untag the surviving live mappings of any
   segment whose assignment died, and shoot down stale tags machine-wide
   when anything was retagged. With no keys in use this is a no-op —
   no charge, no events. *)
let reclaim_pkeys ctx ~pid =
  let freed =
    List.filter_map
      (fun vas ->
        match Vas.release_keys_of vas ~pid with
        | [], _ -> None
        | keys, sids -> Some (Vas.vid vas, keys, sids))
      (Registry.list_vases ctx.sys.reg)
  in
  let dropped_sids = List.concat_map (fun (_, _, sids) -> sids) freed in
  List.iter
    (fun sid ->
      let seg = Registry.find_seg_by_id ctx.sys.reg sid in
      List.iter
        (fun vms ->
          Vmspace.set_region_key vms ~charge_to:(Some ctx.core)
            ~base:(Segment.base seg) ~key:0)
        (Registry.mappings ctx.sys.reg ~sid))
    dropped_sids;
  (* A surviving thread switched into an affected VAS may still hold
     WRPKRU rights to the keys that just died — left alone it would
     keep compartment access after the key is reallocated to a new
     owner. Revoke the freed keys from every such core's register (one
     register rewrite charged per affected core). *)
  List.iter
    (fun cx ->
      match cx.cur with
      | Some vh when not vh.detached -> (
        match List.find_opt (fun (vid, _, _) -> vid = Vas.vid vh.vas) freed with
        | Some (_, keys, _) ->
          let pkru = Core.pkru cx.core in
          let scrubbed =
            List.fold_left (fun r key -> Pkey.set r ~key Pkey.Denied) pkru keys
          in
          if scrubbed <> pkru then begin
            Core.set_pkru cx.core scrubbed;
            Core.charge ctx.core (cost ctx).cacheline_cross
          end
        | None -> ())
      | _ -> ())
    ctx.sys.ctxs;
  if dropped_sids <> [] then begin
    let c = cost ctx in
    Array.iter
      (fun core ->
        Sj_tlb.Tlb.flush_nonglobal (Core.tlb core);
        Core.charge ctx.core c.cacheline_cross)
      (Machine.cores ctx.sys.machine)
  end

(* Involuntary death of a whole process: reclaim every segment lock its
   attachments hold, destroy the attachments' vmspaces (counted
   Page_table.destroy via Vmspace.destroy), drop the registry's mapping
   records, flush the dead process's tagged TLB footprint, uninstall its
   cores, and let the kernel reclaim the process. The VASes and segments
   it created — and the data in them — survive (§3.2); a second process
   can attach and observe consistent state. *)
let crash_teardown ctx =
  let sys = ctx.sys in
  let pid = Process.pid ctx.proc in
  let siblings = List.filter (fun c -> Process.pid c.proc = pid) sys.ctxs in
  let atts =
    List.fold_left
      (fun acc c ->
        List.fold_left
          (fun acc vh -> if List.memq vh acc then acc else vh :: acc)
          acc c.attachments)
      [] siblings
  in
  let locks = ref 0 in
  let attachments = ref 0 in
  List.iter
    (fun vh ->
      if not vh.detached then begin
        incr attachments;
        locks := !locks + reclaim_locks ctx ~pid vh;
        (match vh.cap_slot with
        | Some slot -> Cap.Cspace.delete (Process.cspace vh.owner) slot
        | None -> ());
        List.iter
          (fun (sid, _) -> Registry.forget_mapping sys.reg ~sid vh.vmspace)
          vh.mapped;
        List.iter
          (fun (seg, _) ->
            Registry.forget_mapping sys.reg ~sid:(Segment.sid seg) vh.vmspace)
          vh.local_segs;
        Vmspace.destroy vh.vmspace ~charge_to:(Some ctx.core);
        vh.detached <- true
      end)
    atts;
  (* The dead process's protection keys go back to their VASes'
     allocators; stale tags on surviving mappings are erased. *)
  reclaim_pkeys ctx ~pid;
  (* Stale-translation hygiene: whatever ASID each dead core had
     installed may still back TLB entries; flush it before the core is
     handed to anyone else (one IPI per flushed core, like the other
     shootdown paths). *)
  let c = cost ctx in
  List.iter
    (fun cx ->
      let tag = Core.current_tag cx.core in
      if tag <> 0 then begin
        Sj_tlb.Tlb.flush_tag (Core.tlb cx.core) ~tag;
        Core.charge ctx.core c.cacheline_cross
      end;
      cx.cur <- None;
      cx.attachments <- [];
      Core.set_pkru cx.core Pkey.default;
      Core.set_fault_handler cx.core None;
      Core.set_page_table cx.core None)
    siblings;
  sys.ctxs <- List.filter (fun cx -> Process.pid cx.proc <> pid) sys.ctxs;
  Process.exit ctx.proc;
  (match obs ctx with
  | Some r ->
    emit_to r ctx
      (Sj_obs.Event.Proc_crash { pid; locks = !locks; attachments = !attachments })
  | None -> ());
  Log.debug (fun m ->
      m "process %d crashed: reclaimed %d locks, %d attachments" pid !locks
        !attachments)

(* Involuntary death of a single thread. The process lives on, and so
   does the attachment lock state unless this thread was the last one
   inside its current attachment — the §3.1 contract: locks belong to
   the attaching process, the last thread out releases. *)
let crash_thread_teardown ctx =
  let sys = ctx.sys in
  let pid = Process.pid ctx.proc in
  (match ctx.cur with
  | Some vh ->
    vh.entered <- vh.entered - 1;
    if vh.entered = 0 then ignore (reclaim_locks ctx ~pid vh);
    ctx.cur <- None
  | None -> ());
  Core.set_pkru ctx.core Pkey.default;
  Core.set_fault_handler ctx.core None;
  Core.set_page_table ctx.core None;
  sys.ctxs <- List.filter (fun cx -> not (cx == ctx)) sys.ctxs

(* Every API call crosses the kernel ABI through the dispatch table:
   the table charges the entry cost of the booted backend (a DragonFly
   syscall, or a Barrelfish RPC round trip to the SpaceJMP service) and
   accounts the call against its ABI number. With a fault injector
   attached, the injector decides before the body runs whether this
   call proceeds, fails transiently, or kills the process; with no
   injector (the default) the body is passed through untouched. *)
let call ctx nr body =
  let body =
    match Injector.active (Machine.sim_ctx ctx.sys.machine) with
    | None -> body
    | Some inj ->
      fun () ->
        (match
           Injector.on_syscall inj ~pid:(Process.pid ctx.proc)
             ~nr:(Sys.number nr) ~held:(held_sids ctx)
         with
        | Injector.Pass -> ()
        | Injector.Would_block ->
          Error.fail Would_block ~op:(Sys.name nr) "injected transient failure"
        | Injector.Kill ->
          let pid = Process.pid ctx.proc in
          Sys.count ctx.sys.tab Proc_crash;
          crash_teardown ctx;
          raise (Injector.Killed { pid; op = Sys.name nr }));
        body ()
  in
  Sys.invoke ctx.sys.tab ~cost:(cost ctx) ctx.core nr body

let ok_exn = function Ok v -> v | Error f -> Errors.raise_legacy f

let check_acl ctx acl access ~op detail =
  if not (Acl.check acl (Process.cred ctx.proc) access) then
    Error.fail Permission_denied ~op detail

(* -------------------- VAS API -------------------- *)

let vas_create_c ctx ~name ~mode =
  call ctx Vas_create (fun () ->
      let cred = Process.cred ctx.proc in
      let acl =
        Acl.create ~owner:cred.uid
          ~group:(List.nth_opt cred.gids 0 |> Option.value ~default:0)
          ~mode
      in
      let vas = Vas.create (Machine.sim_ctx ctx.sys.machine) ~acl ~name () in
      Registry.register_vas ctx.sys.reg vas;
      Log.debug (fun m ->
          m "vas_create %s (vid %d) by pid %d" name (Vas.vid vas) (Process.pid ctx.proc));
      vas)

let vas_find_c ctx ~name = call ctx Vas_find (fun () -> Registry.find_vas ctx.sys.reg ~name)

let vas_clone_c ctx vas ~name =
  call ctx Vas_clone (fun () ->
      check_acl ctx (Vas.acl vas) `Read ~op:"vas_clone" "VAS not readable";
      let clone = Vas.create (Machine.sim_ctx ctx.sys.machine) ~acl:(Vas.acl vas) ~name () in
      List.iter (fun (seg, prot) -> Vas.attach_segment clone seg ~prot) (Vas.segments vas);
      Registry.register_vas ctx.sys.reg clone;
      clone)

(* Map one global segment into an attachment's vmspace, using cached
   translations when available. *)
let map_global_segment ctx vh seg prot =
  let vms = vh.vmspace in
  match Segment.translation_cache seg with
  | Some subtrees ->
    (* Grafting shares page tables, so per-attachment protection
       downgrades are not representable in the subtree itself; the
       paper's prototype has the same property (shared non-root tables,
       §4.2). Enforcement of read-only mappings then relies on the
       segment lock mode: [vh.mapped] records the requested [prot] for
       lock-mode selection. *)
    let gib = Size.gib 1 in
    Array.iteri
      (fun i sub ->
        let region : Vmspace.region =
          {
            base = Segment.base seg + (i * gib);
            size = min gib (Segment.size seg - (i * gib));
            prot;
            obj = Segment.vm_object seg;
            obj_page = i * (gib / Addr.page_size);
            global = false;
            cow = false;
            page = Page_table.P4K;
            region_name = Some (Segment.name seg);
          }
        in
        Vmspace.graft_cached vms ~charge_to:(Some ctx.core)
          ~base:(Segment.base seg + (i * gib))
          ~subtree:sub ~region)
      subtrees
  | None ->
    (* The VAS's key assignment rides in with the mapping, so
       attachments created after a pkey_assign are tagged from birth. *)
    Vmspace.map_object vms ~charge_to:(Some ctx.core) ~base:(Segment.base seg)
      ~name:(Segment.name seg) ~cow:(Segment.is_cow seg) ~page:(Segment.page_size seg)
      ~key:(Vas.key_of vh.vas ~sid:(Segment.sid seg))
      ~prot (Segment.vm_object seg)

let unmap_global_segment ctx vh seg =
  let vms = vh.vmspace in
  match Segment.translation_cache seg with
  | Some subtrees ->
    Vmspace.prune_cached vms ~charge_to:(Some ctx.core) ~base:(Segment.base seg)
      ~gib_spans:(Array.length subtrees)
  | None -> Vmspace.unmap_region vms ~charge_to:(Some ctx.core) ~base:(Segment.base seg)

(* The runtime library's bookkeeping (sec 4.1): the process's common
   region — text, globals, and *every* thread stack — must be present in
   each attachment. Threads spawned after an attach add stacks that the
   attachment has not replicated yet. *)
let sync_private_regions ctx vh =
  List.iter
    (fun (r : Vmspace.region) ->
      if not (List.mem r.base vh.private_bases) then begin
        (* [cow] rides along: after a proc_fork the process's private
           regions share frames with the other side of the fork, and a
           replica mapped writable here would bypass the fault path. *)
        Vmspace.map_object vh.vmspace ~charge_to:(Some ctx.core) ~base:r.base
          ~obj_page:r.obj_page
          ~pages:(r.size / Addr.page_size)
          ~cow:r.cow ?name:r.region_name ~prot:r.prot r.obj;
        vh.private_bases <- r.base :: vh.private_bases
      end)
    (Process.private_regions ctx.proc)

let sync_attachment ctx vh =
  sync_private_regions ctx vh;
  if vh.synced_gen <> Vas.generation vh.vas then begin
    let wanted = List.map (fun (s, p) -> (Segment.sid s, (s, p))) (Vas.segments vh.vas) in
    (* Unmap segments that were detached VAS-globally. *)
    List.iter
      (fun (sid, _prot) ->
        if not (List.mem_assoc sid wanted) then begin
          let seg = Registry.find_seg_by_id ctx.sys.reg sid in
          unmap_global_segment ctx vh seg;
          Registry.forget_mapping ctx.sys.reg ~sid vh.vmspace
        end)
      vh.mapped;
    (* Remap segments that grew since this attachment last mapped them
       (the coordination-free shared-region growth of §2.3). *)
    List.iter
      (fun (sid, (seg, prot)) ->
        if List.mem_assoc sid vh.mapped then
          match List.assoc_opt sid vh.mapped_pages with
          | Some pages when pages <> Segment.pages seg ->
            unmap_global_segment ctx vh seg;
            map_global_segment ctx vh seg prot
          | Some _ | None -> ())
      wanted;
    (* Map newly attached segments. *)
    List.iter
      (fun (sid, (seg, prot)) ->
        if not (List.mem_assoc sid vh.mapped) then begin
          map_global_segment ctx vh seg prot;
          Registry.note_mapping ctx.sys.reg ~sid vh.vmspace
        end)
      wanted;
    vh.mapped <- List.map (fun (sid, (_, p)) -> (sid, p)) wanted;
    vh.mapped_pages <- List.map (fun (sid, (s, _)) -> (sid, Segment.pages s)) wanted;
    vh.synced_gen <- Vas.generation vh.vas
  end

let vas_attach_c ctx vas =
  call ctx Vas_attach (fun () ->
      if Vas.is_destroyed vas then
        Error.fail Stale_handle ~op:"vas_attach" "destroyed VAS";
      check_acl ctx (Vas.acl vas) `Read ~op:"vas_attach" "VAS not readable";
      let vms = Vmspace.create ctx.sys.machine ~charge_to:(Some ctx.core) in
      let vh =
        {
          vas;
          owner = ctx.proc;
          vmspace = vms;
          synced_gen = -1;
          mapped = [];
          mapped_pages = [];
          local_segs = [];
          private_bases = [];
          cap_slot = None;
          entered = 0;
          held = [];
          detached = false;
        }
      in
      (* Replicates the common region (text, globals, stacks) and maps the
         VAS's global segments. *)
      sync_attachment ctx vh;
      (match ctx.sys.backend with
      | Dragonfly -> ()
      | Barrelfish ->
        (* §4.2: "a user-space process can allocate memory for its own page
           tables". Model the capability work behind the vmspace just
           built: one untyped-RAM capability retyped into a Vnode per
           page-table node, each a kernel-checked invocation. *)
        let tables =
          (Sj_paging.Page_table.stats (Vmspace.page_table vms)).tables_allocated
        in
        let cspace = Process.cspace ctx.proc in
        let c = cost ctx in
        for _ = 1 to tables do
          let ram = Cap.create_ram (Machine.sim_ctx ctx.sys.machine) ~size:Addr.page_size in
          let vnode = Cap.retype ram ~into:(Cap.Vnode 1) in
          ignore (Cap.Cspace.insert cspace vnode);
          Core.charge ctx.core c.syscall_barrelfish
        done;
        let root = Registry.root_cap ctx.sys.reg vas in
        let child = Cap.mint root ~rights:Prot.rwx in
        vh.cap_slot <- Some (Cap.Cspace.insert cspace child));
      ctx.attachments <- vh :: ctx.attachments;
      vh)

(* -------------------- Fork (lib/fork's kernel side) -------------------- *)

(* Emit the [Fork] event with the page-table sharing census of the
   freshly forked vmspace — the observable proof that the fork shared
   subtrees instead of copying them. *)
let emit_fork ctx ~parent ~child ~proc pt =
  match obs ctx with
  | Some r ->
    let nodes_total, nodes_shared = Page_table.count_nodes pt in
    emit_to r ctx
      (Sj_obs.Event.Fork { parent; child; proc; nodes_shared; nodes_total })
  | None -> ()

let vas_fork_c ctx vh ~name =
  call ctx Vas_fork (fun () ->
      if vh.detached then Error.fail Stale_handle ~op:"vas_fork" "detached handle";
      check_acl ctx (Vas.acl vh.vas) `Read ~op:"vas_fork" "VAS not readable";
      (* Precise refusals. Cached translations are shared *mutably* (the
         grafted subtree is the segment's single source of truth across
         every VAS using it) and cannot also be CoW-shared; process-local
         segments are not part of the VAS being forked. *)
      List.iter
        (fun (sid, _) ->
          let seg = Registry.find_seg_by_id ctx.sys.reg sid in
          if Segment.translation_cache seg <> None then
            Error.failf Invalid ~op:"vas_fork"
              "segment %s has cached translations: its page tables are shared \
               in place across every grafting VAS and cannot be CoW-forked"
              (Segment.name seg))
        vh.mapped;
      if vh.local_segs <> [] then
        Error.fail Invalid ~op:"vas_fork"
          "attachment has process-local segments (not part of the VAS); \
           detach them before forking";
      let vas' =
        Vas.create (Machine.sim_ctx ctx.sys.machine) ~acl:(Vas.acl vh.vas) ~name ()
      in
      Registry.register_vas ctx.sys.reg vas';
      (* CoW-fork the attachment's vmspace: the global spans (segment
         content) are shared subtree-by-subtree; the private spans are
         left empty and re-replicated below, because the common region
         belongs to the calling process, not to the VAS. *)
      let vms' =
        Vmspace.fork vh.vmspace ~charge_to:(Some ctx.core) ~share:Layout.is_global
      in
      let cred = Process.cred ctx.proc in
      let acl = Acl.create ~owner:cred.uid ~group:0 ~mode:0o600 in
      let mapped = ref [] and mapped_pages = ref [] in
      List.iter
        (fun (sid, prot) ->
          let seg = Registry.find_seg_by_id ctx.sys.reg sid in
          let r =
            match Vmspace.find_region vms' ~va:(Segment.base seg) with
            | Some r -> r
            | None ->
              Error.failf Invalid ~op:"vas_fork" "segment %s not mapped"
                (Segment.name seg)
          in
          (* The shadow segment wraps the region's CoW-cloned object, so
             the fork's frames belong to the new VAS's own segment — no
             copy until somebody writes. *)
          let shadow =
            Segment.create_with_object ~acl ~machine:ctx.sys.machine
              ~name:(Printf.sprintf "%s@%s" (Segment.name seg) name)
              ~base:(Segment.base seg) ~prot:(Segment.prot_max seg) r.obj
          in
          Segment.mark_cow seg;
          Segment.mark_cow shadow;
          Registry.register_seg ctx.sys.reg shadow;
          (* The allocator state is frozen at the fork instant, like a
             snapshot's. *)
          if Registry.has_heap ctx.sys.reg seg then begin
            let copy =
              Mspace.of_snapshot ~base:(Segment.base seg) ~size:(Segment.size seg)
                (Mspace.snapshot (Registry.heap ctx.sys.reg seg))
            in
            Registry.set_heap ctx.sys.reg shadow copy
          end;
          Vas.attach_segment vas' shadow ~prot;
          Registry.note_mapping ctx.sys.reg ~sid:(Segment.sid shadow) vms';
          mapped := (Segment.sid shadow, prot) :: !mapped;
          mapped_pages := (Segment.sid shadow, Segment.pages shadow) :: !mapped_pages;
          (* Every *other* vmspace mapping the source segment writes to
             frames the fork now shares: write-protect them (the fork
             source itself was CoW-tagged wholesale by the clone). *)
          List.iter
            (fun vms ->
              if vms != vh.vmspace && vms != vms' then
                Vmspace.write_protect_region vms ~charge_to:(Some ctx.core)
                  ~base:(Segment.base seg))
            (Registry.mappings ctx.sys.reg ~sid))
        vh.mapped;
      (* Stale writable translations of the now-CoW pages die machine-wide
         (one IPI per core), exactly like a snapshot's shootdown. *)
      let c = cost ctx in
      Array.iter
        (fun core ->
          Sj_tlb.Tlb.flush_nonglobal (Core.tlb core);
          Core.charge ctx.core c.cacheline_cross)
        (Machine.cores ctx.sys.machine);
      let vh' =
        {
          vas = vas';
          owner = ctx.proc;
          vmspace = vms';
          synced_gen = Vas.generation vas';
          mapped = List.rev !mapped;
          mapped_pages = List.rev !mapped_pages;
          local_segs = [];
          private_bases = [];
          cap_slot = None;
          entered = 0;
          held = [];
          detached = false;
        }
      in
      (* Replicate the common region (fresh tables: it is per-process
         state, and the fork is attachable by other processes too). *)
      sync_private_regions ctx vh';
      (match ctx.sys.backend with
      | Dragonfly -> ()
      | Barrelfish ->
        (* §4.2 again: user-space page-table memory is capability work —
           one retype per table the clone allocated (the CoW-shared
           subtrees cost nothing: they are the *other* VAS's vnodes). *)
        let tables =
          (Sj_paging.Page_table.stats (Vmspace.page_table vms')).tables_allocated
        in
        let cspace = Process.cspace ctx.proc in
        for _ = 1 to tables do
          let ram =
            Cap.create_ram (Machine.sim_ctx ctx.sys.machine) ~size:Addr.page_size
          in
          let vnode = Cap.retype ram ~into:(Cap.Vnode 1) in
          ignore (Cap.Cspace.insert cspace vnode);
          Core.charge ctx.core c.syscall_barrelfish
        done;
        let root = Registry.root_cap ctx.sys.reg vas' in
        let child = Cap.mint root ~rights:Prot.rwx in
        vh'.cap_slot <- Some (Cap.Cspace.insert cspace child));
      ctx.attachments <- vh' :: ctx.attachments;
      emit_fork ctx ~parent:(Vas.vid vh.vas) ~child:(Vas.vid vas') ~proc:false
        (Vmspace.page_table vms');
      Log.debug (fun m ->
          m "vas_fork %s -> %s (%d segments CoW-shared)" (Vas.name vh.vas) name
            (List.length vh'.mapped));
      vh')

let proc_fork_c ?name ctx ~core =
  call ctx Proc_fork (fun () ->
      (* The kernel half: fresh pid, CoW-forked primary vmspace, cloned
         text/data/stack objects, inherited credentials, empty cspace. *)
      let child_proc = Process.fork ?name ctx.proc ~charge_to:(Some ctx.core) in
      let child = context ctx.sys child_proc core in
      (* The child's key register starts scrubbed — compartment entry is
         never inherited across a fork. *)
      Core.set_pkru core Pkey.default;
      let child_pid = Process.pid child_proc in
      (try
         (* Protection keys: ownership is per-pid and never shared. The
            child gets *fresh* keys, one per key the parent owns in each
            VAS, so its compartment budget matches the parent's without
            granting it the parent's tags. *)
         List.iter
           (fun vas ->
             List.iter
               (fun (_, owner) ->
                 if owner = Process.pid ctx.proc then
                   ignore (Vas.alloc_key vas ~pid:child_pid))
               (Vas.key_allocations vas))
           (Registry.list_vases ctx.sys.reg);
         (* VAS attachments are rebuilt through the ordinary attach path
            (segments are MAP_SHARED state, not CoW'd by a fork), oldest
            first so attachment order matches the parent's. Segment
            locks are deliberately NOT inherited: the child starts
            outside every attachment, holding nothing. *)
         List.iter
           (fun vh ->
             if not vh.detached then
               match vas_attach_c child vh.vas with
               | Ok _ -> ()
               | Error f -> raise (Error.Fault f))
           (List.rev ctx.attachments)
       with e ->
         (* Roll the half-built child back (key-space exhaustion, or an
            injected fault in one of the child's attach calls). Crash
            teardown already ran if the child was fault-injector-killed. *)
         if Process.is_live child_proc then crash_teardown child;
         raise e);
      emit_fork ctx ~parent:(Process.pid ctx.proc) ~child:child_pid ~proc:true
        (Vmspace.page_table (Process.primary_vmspace child_proc));
      Log.debug (fun m ->
          m "proc_fork %d -> %d (%s)" (Process.pid ctx.proc) child_pid
            (Process.name child_proc));
      child)

(* Leave the attachment the context is currently in (if any): the last
   thread out releases the attachment's locks. *)
let unlock_all ctx held =
  List.iter
    (fun (seg, mode) ->
      Sys.count ctx.sys.tab Seg_unlock;
      Segment.unlock seg ~mode;
      match obs ctx with
      | Some r ->
        emit_to r ctx (Sj_obs.Event.Seg_unlock { sid = Segment.sid seg })
      | None -> ())
    held

let leave_current ctx =
  match ctx.cur with
  | None -> ()
  | Some vh ->
    vh.entered <- vh.entered - 1;
    if vh.entered = 0 then begin
      unlock_all ctx vh.held;
      vh.held <- []
    end;
    ctx.cur <- None

(* First thread into an attachment acquires its segment locks: sorted by
   sid for a canonical order; shared when the attachment maps the
   segment read-only, exclusive when writable (§3.1). Each acquisition
   is a [Seg_lock] entry on the runtime's lock path. *)
let enter ctx vh =
  if vh.entered = 0 then begin
    let lockables =
      List.sort (fun (a, _) (b, _) -> compare (Segment.sid a) (Segment.sid b))
        (Vas.lockable_segments vh.vas
        @ List.filter (fun (s, _) -> Segment.lockable s) vh.local_segs)
    in
    let taken = ref [] in
    let ok =
      List.for_all
        (fun (seg, prot) ->
          let mode = if (prot : Prot.t).write then `Exclusive else `Shared in
          Sys.charge_entry ctx.sys.tab ~cost:(cost ctx) ctx.core Seg_lock;
          let acquired = Segment.try_lock seg ~mode in
          (match obs ctx with
          | Some r ->
            emit_to r ctx
              (Sj_obs.Event.Seg_lock
                 { sid = Segment.sid seg; exclusive = mode = `Exclusive;
                   acquired })
          | None -> ());
          if acquired then begin
            taken := (seg, mode) :: !taken;
            true
          end
          else false)
        lockables
    in
    if not ok then begin
      unlock_all ctx !taken;
      Error.fail Would_block ~op:"vas_switch" "lockable segment busy"
    end;
    vh.held <- !taken
  end;
  vh.entered <- vh.entered + 1;
  ctx.cur <- Some vh

(* -------------------- The crossing abstraction -------------------- *)

(* Exactly three mechanisms move a thread's memory view: reloading the
   translation root (DragonFly vas_switch — a CR3 write, §4.1), the
   same reload authorized by a capability invocation (Barrelfish,
   §4.2), and rewriting the per-core protection-key register
   (compartment entry — WRPKRU, no CR3 write, no TLB flush). Each is a
   [Crossing.t]: [authorize] runs the mechanism's permission step
   before any state moves, and [commit] charges the mechanism's cost
   and performs its hardware step — so the per-mechanism price and the
   observability event each live in exactly one place. *)
module Crossing = struct
  type target = Attachment of vh | Home

  type t =
    | Vas_reload of target  (* kernel-mediated translation-root reload *)
    | Cap_invoke of { vh : vh; slot : int }  (* cap-authorized reload *)
    | Pkey_write of { vid : int; key : int; pkru : Pkey.reg }

  let tag_of = function
    | Vas_reload (Attachment vh) | Cap_invoke { vh; _ } -> (
      match Vas.tag vh.vas with Some t -> t | None -> 0)
    | Vas_reload Home | Pkey_write _ -> 0

  (* Simulated cycles charged at commit. [Core.set_page_table] itself
     charges the CR3 write, so the reload mechanisms charge Table 2's
     total minus the CR3 load; the pkey mechanism never touches CR3 and
     charges its full WRPKRU + bookkeeping cost here. *)
  let commit_cost ctx crossing =
    let c = cost ctx in
    match crossing with
    | Vas_reload _ | Cap_invoke _ ->
      let tagged = tag_of crossing <> 0 in
      let os =
        match ctx.sys.backend with
        | Dragonfly -> `Dragonfly
        | Barrelfish -> `Barrelfish
      in
      Cost_model.vas_switch_cost c ~os ~tagged
      - (if tagged then c.cr3_load_tagged else c.cr3_load)
    | Pkey_write _ -> Cost_model.pkey_switch_cost c

  (* The mechanism's permission step. Only the capability mechanism
     checks anything here: invocation fails when the VAS's root cap was
     revoked (§4.2). *)
  let authorize ctx = function
    | Cap_invoke { slot; _ } -> (
      try ignore (Cap.Cspace.invoke (Process.cspace ctx.proc) ~slot ~access:`Read)
      with Error.Fault f ->
        Error.failf Permission_denied ~op:"vas_switch"
          "capability invocation refused (%s)" f.detail)
    | Vas_reload _ | Pkey_write _ -> ()

  (* Charge the mechanism's cost and perform its hardware step. The
     reload mechanisms install a translation root and reset the key
     register (key meanings are per-VAS, so a compartment restriction
     must not follow the thread into another space); the pkey mechanism
     rewrites the key register only — cached translations stay warm. *)
  let commit ctx crossing =
    let cycles = commit_cost ctx crossing in
    Core.charge ctx.core cycles;
    match crossing with
    | Vas_reload Home ->
      Core.set_page_table ctx.core ~tag:0
        (Some (Vmspace.page_table (Process.primary_vmspace ctx.proc)));
      Core.set_pkru ctx.core Pkey.default;
      (match obs ctx with
      | Some r -> emit_to r ctx (Sj_obs.Event.Vas_switch { vid = 0; tag = 0 })
      | None -> ())
    | Vas_reload (Attachment vh) | Cap_invoke { vh; _ } ->
      let tag = tag_of crossing in
      Core.set_page_table ctx.core ~tag (Some (Vmspace.page_table vh.vmspace));
      Core.set_pkru ctx.core Pkey.default;
      (match obs ctx with
      | Some r ->
        emit_to r ctx (Sj_obs.Event.Vas_switch { vid = Vas.vid vh.vas; tag })
      | None -> ())
    | Pkey_write { vid; key; pkru } ->
      Core.set_pkru ctx.core pkru;
      (match obs ctx with
      | Some r -> emit_to r ctx (Sj_obs.Event.Pkey_switch { vid; key; cycles })
      | None -> ())
end

(* The crossing a vas_switch into [vh] uses on this system. *)
let crossing_into ctx vh : Crossing.t =
  match (ctx.sys.backend, vh.cap_slot) with
  | Barrelfish, Some slot -> Crossing.Cap_invoke { vh; slot }
  | Barrelfish, None -> assert false
  | Dragonfly, _ -> Crossing.Vas_reload (Attachment vh)

let vas_switch_body ctx vh =
  if vh.detached then Error.fail Stale_handle ~op:"vas_switch" "detached handle";
  if not (Process.pid vh.owner = Process.pid ctx.proc) then
    Error.fail Permission_denied ~op:"vas_switch" "handle belongs to another process";
  let crossing = crossing_into ctx vh in
  Crossing.authorize ctx crossing;
  sync_attachment ctx vh;
  let previous = ctx.cur in
  leave_current ctx;
  (try enter ctx vh
   with Error.Fault f as e when f.code = Error.Would_block ->
     (* Roll back: re-enter the space the thread was in. *)
     (match previous with Some prev -> enter ctx prev | None -> ());
     raise e);
  Crossing.commit ctx crossing;
  Log.debug (fun m ->
      m "vas_switch pid %d core %d -> %s (tag %d)" (Process.pid ctx.proc) (Core.id ctx.core)
        (Vas.name vh.vas) (Crossing.tag_of crossing));
  Registry.count_switch ctx.sys.reg

let vas_switch_c ctx vh = call ctx Vas_switch (fun () -> vas_switch_body ctx vh)

let switch_home_body ctx =
  leave_current ctx;
  Crossing.commit ctx (Crossing.Vas_reload Home);
  Registry.count_switch ctx.sys.reg

let switch_home_c ctx = call ctx Vas_switch_home (fun () -> switch_home_body ctx)
let switch_home ctx = ok_exn (switch_home_c ctx)

let vas_detach_body ctx vh =
  if vh.detached then Error.fail Stale_handle ~op:"vas_detach" "already detached";
  (match ctx.cur with
  | Some cur when cur == vh -> switch_home ctx
  | Some _ | None -> ());
  (* Another thread of the process may still be switched into this
     attachment; destroying the vmspace under it would turn its next
     load into a wild access. Transient by nature (the occupant leaves
     or dies), so refuse with Would_block rather than a hard fault. *)
  if vh.entered > 0 then
    Error.failf Would_block ~op:"vas_detach" "attachment to %s entered by %d other thread%s"
      (Vas.name vh.vas) vh.entered
      (if vh.entered = 1 then "" else "s");
  (match vh.cap_slot with
  | Some slot -> Cap.Cspace.delete (Process.cspace ctx.proc) slot
  | None -> ());
  List.iter (fun (sid, _) -> Registry.forget_mapping ctx.sys.reg ~sid vh.vmspace) vh.mapped;
  List.iter
    (fun (seg, _) -> Registry.forget_mapping ctx.sys.reg ~sid:(Segment.sid seg) vh.vmspace)
    vh.local_segs;
  Vmspace.destroy vh.vmspace ~charge_to:(Some ctx.core);
  ctx.attachments <- List.filter (fun v -> not (v == vh)) ctx.attachments;
  vh.detached <- true

let vas_detach_c ctx vh = call ctx Vas_detach (fun () -> vas_detach_body ctx vh)
let vas_detach ctx vh = ok_exn (vas_detach_c ctx vh)

let vas_ctl_c ctx cmd =
  (* [`Destroy] is its own ABI entry (vas_delete); the rest share vas_ctl. *)
  let nr : Sys.nr = match cmd with `Destroy _ -> Vas_delete | _ -> Vas_ctl in
  call ctx nr (fun () ->
      match cmd with
      | `Request_tag vas ->
        let tag = Registry.alloc_tag ~charge_to:ctx.core ctx.sys.reg in
        Vas.assign_tag vas tag;
        (match obs ctx with
        | Some r ->
          emit_to r ctx (Sj_obs.Event.Tag_assign { vid = Vas.vid vas; tag })
        | None -> ())
      | `Chmod (vas, mode) ->
        check_acl ctx (Vas.acl vas) `Write ~op:"vas_ctl" "chmod: VAS not writable";
        Vas.set_acl vas (Acl.chmod (Vas.acl vas) ~mode)
      | `Revoke vas -> Cap.revoke (Registry.root_cap ctx.sys.reg vas)
      | `Destroy vas ->
        check_acl ctx (Vas.acl vas) `Write ~op:"vas_delete" "VAS not writable";
        (* The ASID goes back to the registry's free list for reuse;
           the next owner's alloc takes the recycle-flush path. *)
        (match Vas.tag vas with
        | Some tag -> Registry.release_tag ctx.sys.reg tag
        | None -> ());
        Registry.unregister_vas ctx.sys.reg vas;
        Vas.destroy vas)

let exit_process_c ctx =
  call ctx Proc_exit (fun () ->
      (* Orderly death: leave whatever space the thread is in (releasing the
         attachment's locks if it is the last thread out), tear down every
         attachment this context created (their vmspaces and registry
         mapping records), then let the kernel reclaim the process. VASes
         and segments the process created live on (sec 3.2). The detaches
         go through the ABI table like any runtime-issued call. *)
      (match ctx.cur with Some _ -> switch_home ctx | None -> ());
      (* The whole process is exiting: force any sibling thread still
         switched into one of our attachments out first (the last
         thread out releases the attachment's locks), so the detaches
         below never destroy a vmspace under a live occupant. *)
      let pid = Process.pid ctx.proc in
      List.iter
        (fun cx ->
          if cx != ctx && Process.pid cx.proc = pid then begin
            (match cx.cur with
            | Some vh ->
              vh.entered <- vh.entered - 1;
              if vh.entered = 0 then ignore (reclaim_locks ctx ~pid vh);
              cx.cur <- None
            | None -> ());
            Core.set_pkru cx.core Pkey.default;
            Core.set_fault_handler cx.core None;
            Core.set_page_table cx.core None
          end)
        ctx.sys.ctxs;
      List.iter (fun vh -> if not vh.detached then vas_detach ctx vh) ctx.attachments;
      reclaim_pkeys ctx ~pid:(Process.pid ctx.proc);
      Core.set_pkru ctx.core Pkey.default;
      Core.set_fault_handler ctx.core None;
      Core.set_page_table ctx.core None;
      let pid = Process.pid ctx.proc in
      ctx.sys.ctxs <- List.filter (fun cx -> Process.pid cx.proc <> pid) ctx.sys.ctxs;
      Process.exit ctx.proc;
      Log.debug (fun m -> m "process %d exited" pid))

(* Explicitly crash a process / thread — the same teardown the fault
   injector runs on an injected kill, dispatched as the proc_crash ABI
   entry (the kernel fields the death; the dead process issues
   nothing). *)
let crash_process_c ctx = call ctx Proc_crash (fun () -> crash_teardown ctx)
let crash_thread_c ctx = call ctx Proc_crash (fun () -> crash_thread_teardown ctx)

(* -------------------- Protection-key compartments -------------------- *)

(* The register image for compartment [key]: every key except 0 and
   [key] denied. Key 0 — the untagged default — stays accessible so the
   common region (text, globals, stacks) keeps working inside the
   compartment. *)
let compartment_pkru key =
  if key = 0 then Pkey.default
  else begin
    let reg = ref Pkey.default in
    for k = 1 to Pkey.max_key do
      if k <> key then reg := Pkey.set !reg ~key:k Pkey.Denied
    done;
    !reg
  end

let pkey_alloc_c ctx vas =
  call ctx Pkey_alloc (fun () ->
      check_acl ctx (Vas.acl vas) `Write ~op:"pkey_alloc" "VAS not writable";
      let key = Vas.alloc_key vas ~pid:(Process.pid ctx.proc) in
      Log.debug (fun m ->
          m "pkey_alloc %d in VAS %s by pid %d" key (Vas.name vas)
            (Process.pid ctx.proc));
      key)

let pkey_assign_c ctx vas seg ~key =
  call ctx Pkey_assign (fun () ->
      check_acl ctx (Vas.acl vas) `Write ~op:"pkey_assign" "VAS not writable";
      check_acl ctx (Segment.acl seg) `Write ~op:"pkey_assign"
        "segment not writable";
      if key < 0 || key > Pkey.max_key then
        Error.failf Invalid ~op:"pkey_assign" "key %d out of range 0..%d" key
          Pkey.max_key;
      if key <> 0 && Vas.key_owner vas ~key = None then
        Error.fail Unknown_name ~op:"pkey_assign" "key not allocated in this VAS";
      if Vas.find_segment_by_sid vas (Segment.sid seg) = None then
        Error.fail Unknown_name ~op:"pkey_assign" "segment not attached to this VAS";
      if Segment.translation_cache seg <> None then
        Error.fail Invalid ~op:"pkey_assign"
          "segments with cached translations cannot be key-tagged (the shared \
           page-table subtree would leak the tag into every VAS grafting it)";
      Vas.assign_seg_key vas ~sid:(Segment.sid seg) ~key;
      (* Rewrite the key tag in every live mapping, then shoot down
         machine-wide (one IPI per core). Key *rights* changes need no
         flush — rights live in the register and are checked at every
         TLB hit — but the *tag* lives in PTEs and is cached with them,
         so retagging must invalidate. Attachments created later pick
         the tag up at map time. *)
      let c = cost ctx in
      List.iter
        (fun vms ->
          Vmspace.set_region_key vms ~charge_to:(Some ctx.core)
            ~base:(Segment.base seg) ~key)
        (Registry.mappings ctx.sys.reg ~sid:(Segment.sid seg));
      Array.iter
        (fun core ->
          Sj_tlb.Tlb.flush_nonglobal (Core.tlb core);
          Core.charge ctx.core c.cacheline_cross)
        (Machine.cores ctx.sys.machine))

let pkey_switch_body ctx ~key =
  if key < 0 || key > Pkey.max_key then
    Error.failf Invalid ~op:"pkey_switch" "key %d out of range 0..%d" key
      Pkey.max_key;
  let vid = match ctx.cur with Some vh -> Vas.vid vh.vas | None -> 0 in
  if key <> 0 then begin
    let vas =
      match ctx.cur with
      | Some vh -> vh.vas
      | None ->
        Error.fail Invalid ~op:"pkey_switch"
          "no VAS installed: compartments live inside a VAS"
    in
    if Vas.key_owner vas ~key = None then
      Error.fail Unknown_name ~op:"pkey_switch" "key not allocated in this VAS"
  end;
  Crossing.commit ctx (Crossing.Pkey_write { vid; key; pkru = compartment_pkru key })

let pkey_switch_c ctx ~key = call ctx Pkey_switch (fun () -> pkey_switch_body ctx ~key)

(* -------------------- Segment API -------------------- *)

let seg_alloc_body ?(huge = false) ?(tier = `Performance) ctx ~name ~base ~size ~mode =
  let cred = Process.cred ctx.proc in
  let acl =
    Acl.create ~owner:cred.uid
      ~group:(List.nth_opt cred.gids 0 |> Option.value ~default:0)
      ~mode
  in
  let node =
    match tier with
    | `Performance -> None
    | `Capacity -> (
      match Machine.capacity_node ctx.sys.machine with
      | Some n -> Some n
      | None -> Error.fail Invalid ~op:"seg_alloc" "this platform has no capacity tier")
  in
  let seg =
    Segment.create ~huge ?node ~acl ~charge_to:(Some ctx.core) ~machine:ctx.sys.machine ~name
      ~base ~size ~prot:Prot.rw ()
  in
  Registry.register_seg ctx.sys.reg seg;
  seg

let seg_alloc_c ?huge ?tier ctx ~name ~base ~size ~mode =
  call ctx Seg_alloc (fun () -> seg_alloc_body ?huge ?tier ctx ~name ~base ~size ~mode)

let seg_alloc_anywhere_c ?huge ?tier ctx ~name ~size ~mode =
  call ctx Seg_alloc (fun () ->
      let base = Layout.next_global_base (Machine.sim_ctx ctx.sys.machine) ~size in
      seg_alloc_body ?huge ?tier ctx ~name ~base ~size ~mode)

let seg_find_c ctx ~name = call ctx Seg_find (fun () -> Registry.find_seg ctx.sys.reg ~name)

let seg_attach_c ctx vas seg ~prot =
  call ctx Seg_attach (fun () ->
      check_acl ctx (Vas.acl vas) `Write ~op:"seg_attach" "VAS not writable";
      check_acl ctx (Segment.acl seg)
        (if (prot : Prot.t).write then `Write else `Read)
        ~op:"seg_attach" "segment access denied";
      Vas.attach_segment vas seg ~prot)

let seg_attach_local_c ctx vh seg ~prot =
  call ctx Seg_attach_local (fun () ->
      if vh.detached then Error.fail Stale_handle ~op:"seg_attach_local" "detached handle";
      check_acl ctx (Segment.acl seg)
        (if (prot : Prot.t).write then `Write else `Read)
        ~op:"seg_attach_local" "segment access denied";
      Vmspace.map_object vh.vmspace ~charge_to:(Some ctx.core) ~base:(Segment.base seg)
        ~name:(Segment.name seg) ~cow:(Segment.is_cow seg) ~prot (Segment.vm_object seg);
      Registry.note_mapping ctx.sys.reg ~sid:(Segment.sid seg) vh.vmspace;
      vh.local_segs <- (seg, prot) :: vh.local_segs)

let seg_detach_c ctx vas seg =
  call ctx Seg_detach (fun () ->
      check_acl ctx (Vas.acl vas) `Write ~op:"seg_detach" "VAS not writable";
      Vas.detach_segment vas seg)

let seg_detach_local_c ctx vh seg =
  call ctx Seg_detach_local (fun () ->
      if not (List.exists (fun (s, _) -> Segment.sid s = Segment.sid seg) vh.local_segs) then
        Error.fail Unknown_name ~op:"seg_detach_local" "not attached locally";
      Vmspace.unmap_region vh.vmspace ~charge_to:(Some ctx.core) ~base:(Segment.base seg);
      Registry.forget_mapping ctx.sys.reg ~sid:(Segment.sid seg) vh.vmspace;
      vh.local_segs <-
        List.filter (fun (s, _) -> Segment.sid s <> Segment.sid seg) vh.local_segs)

let seg_clone_c ctx seg ~name =
  call ctx Seg_clone (fun () ->
      check_acl ctx (Segment.acl seg) `Read ~op:"seg_clone" "segment not readable";
      (* The documented refusals, each a typed fault: the clone is a
         plain 4 KiB-backed segment, so sources whose identity lives in
         shared page tables (cached translations) or 2 MiB mappings
         cannot be represented faithfully. COW sources are fine — the
         clone break-and-copies: it *reads* the shared frames (reads
         never split a CoW page) into its own fresh frames, leaving the
         source's sharing with its snapshot/fork family intact. *)
      if Segment.translation_cache seg <> None then
        Error.fail Invalid ~op:"seg_clone"
          "segments with cached translations cannot be cloned (the copy cannot \
           share the pre-built page tables)";
      if Segment.page_size seg = Page_table.P2M then
        Error.fail Invalid ~op:"seg_clone"
          "huge-page segments cannot be cloned (the copy would be 4 KiB-backed \
           at the same 2 MiB-aligned base)";
      let cred = Process.cred ctx.proc in
      let acl = Acl.create ~owner:cred.uid ~group:0 ~mode:0o600 in
      let clone =
        Segment.create ~acl ~charge_to:(Some ctx.core) ~machine:ctx.sys.machine ~name
          ~base:(Segment.base seg) ~size:(Segment.size seg) ~prot:(Segment.prot_max seg) ()
      in
      (* Copy contents frame by frame, charging a copy cost per page. *)
      let mem = Machine.mem ctx.sys.machine in
      let src = Segment.vm_object seg and dst = Segment.vm_object clone in
      let c = cost ctx in
      for p = 0 to Segment.pages seg - 1 do
        Sj_mem.Phys_mem.copy_frame mem ~src:(Vm_object.frame_at src ~page:p)
          ~dst:(Vm_object.frame_at dst ~page:p);
        Core.charge ctx.core c.page_zero
      done;
      Registry.register_seg ctx.sys.reg clone;
      clone)

let seg_snapshot_c ctx seg ~name =
  call ctx Seg_snapshot (fun () ->
      check_acl ctx (Segment.acl seg) `Read ~op:"seg_snapshot" "segment not readable";
      if Segment.translation_cache seg <> None then
        Error.fail Invalid ~op:"seg_snapshot"
          "segments with cached translations cannot be snapshotted (shared page tables \
           cannot be write-protected per attachment)";
      let cred = Process.cred ctx.proc in
      let acl = Acl.create ~owner:cred.uid ~group:0 ~mode:0o600 in
      (* Share every physical page copy-on-write. *)
      let clone_obj = Vm_object.cow_clone ~name (Segment.vm_object seg) in
      let snap =
        Segment.create_with_object ~acl ~machine:ctx.sys.machine ~name
          ~base:(Segment.base seg) ~prot:(Segment.prot_max seg) clone_obj
      in
      Segment.mark_cow seg;
      Segment.mark_cow snap;
      (* Write-protect the original wherever it is currently mapped, and
         shoot down stale writable TLB entries machine-wide (one IPI per
         core). *)
      let c = cost ctx in
      List.iter
        (fun vms ->
          Vmspace.write_protect_region vms ~charge_to:(Some ctx.core)
            ~base:(Segment.base seg))
        (Registry.mappings ctx.sys.reg ~sid:(Segment.sid seg));
      Array.iter
        (fun core ->
          Sj_tlb.Tlb.flush_nonglobal (Core.tlb core);
          Core.charge ctx.core c.cacheline_cross)
        (Machine.cores ctx.sys.machine);
      (* The snapshot inherits the allocator state frozen at this instant. *)
      if Registry.has_heap ctx.sys.reg seg then begin
        let orig = Registry.heap ctx.sys.reg seg in
        let copy =
          Mspace.of_snapshot ~base:(Segment.base seg) ~size:(Segment.size seg)
            (Mspace.snapshot orig)
        in
        Registry.set_heap ctx.sys.reg snap copy
      end;
      Registry.register_seg ctx.sys.reg snap;
      Log.info (fun m ->
          m "seg_snapshot %s -> %s (%d pages shared COW)" (Segment.name seg) name
            (Segment.pages seg));
      snap)

let seg_ctl_c ctx cmd =
  (* [`Destroy] is its own ABI entry (seg_delete); the rest share seg_ctl. *)
  let nr : Sys.nr = match cmd with `Destroy _ -> Seg_delete | _ -> Seg_ctl in
  call ctx nr (fun () ->
      match cmd with
      | `Grow (seg, by) ->
        check_acl ctx (Segment.acl seg) `Write ~op:"seg_ctl" "grow: segment not writable";
        (match Injector.active (Machine.sim_ctx ctx.sys.machine) with
        | Some inj when Injector.on_grow inj ->
          Error.fail Capacity ~op:"seg_ctl" "injected allocation failure on grow"
        | Some _ | None -> ());
        let grown = Segment.grow seg ~by ~charge_to:(Some ctx.core) in
        (* The shared heap (if any) gains the new space too. *)
        if Registry.has_heap ctx.sys.reg seg then
          Mspace.extend (Registry.heap ctx.sys.reg seg) ~by:grown;
        (* Attachments pick the growth up at their next switch. *)
        List.iter
          (fun vas ->
            if Vas.find_segment_by_sid vas (Segment.sid seg) <> None then
              Vas.bump_generation vas)
          (Registry.list_vases ctx.sys.reg);
        Log.debug (fun m -> m "seg_grow %s by %s" (Segment.name seg) (Size.to_string grown))
      | `Chmod (seg, mode) ->
        check_acl ctx (Segment.acl seg) `Write ~op:"seg_ctl" "chmod: segment not writable";
        Segment.set_acl seg (Acl.chmod (Segment.acl seg) ~mode)
      | `Cache_translations seg ->
        Segment.build_translation_cache seg ~charge_to:(Some ctx.core)
      | `Destroy seg ->
        check_acl ctx (Segment.acl seg) `Write ~op:"seg_delete" "segment not writable";
        Registry.unregister_seg ctx.sys.reg seg;
        Segment.destroy seg)

(* -------------------- Runtime heaps -------------------- *)

exception Out_of_memory = Sj_mem.Phys_mem.Out_of_memory

let segments_of_current ctx =
  match ctx.cur with
  | None -> []
  | Some vh -> List.map (fun (s, p) -> (s, p)) (Vas.segments vh.vas) @ vh.local_segs

let malloc_c ctx ?seg n =
  call ctx Heap_malloc (fun () ->
      let seg, prot =
        match seg with
        | Some s -> (
          match
            List.find_opt
              (fun (s', _) -> Segment.sid s' = Segment.sid s)
              (segments_of_current ctx)
          with
          | Some sp -> sp
          | None ->
            Error.fail Invalid ~op:"malloc" "segment not attached in the current address space")
        | None -> (
          match
            List.find_opt
              (fun ((_ : Segment.t), (p : Prot.t)) -> p.write)
              (segments_of_current ctx)
          with
          | Some sp -> sp
          | None ->
            Error.fail Invalid ~op:"malloc" "no writable segment in the current address space")
      in
      if not (prot : Prot.t).write then
        Error.fail Invalid ~op:"malloc" "segment mapped read-only";
      let heap = Registry.heap ctx.sys.reg seg in
      match Mspace.malloc heap n with
      | Some va -> va
      | None -> Error.fail Capacity ~op:"malloc" "mspace exhausted")

let free_c ctx va =
  call ctx Heap_free (fun () ->
      match
        List.find_opt
          (fun ((s : Segment.t), _) ->
            Addr.range_contains ~base:(Segment.base s) ~size:(Segment.size s) va)
          (segments_of_current ctx)
      with
      | None ->
        Error.fail Invalid ~op:"free" "address not within any segment of the current address space"
      | Some (seg, _) -> (
        let heap = Registry.heap ctx.sys.reg seg in
        try Mspace.free heap va
        with Invalid_argument m -> Error.fail Invalid ~op:"free" m))

(* -------------------- Result-typed surface -------------------- *)

module Checked = struct
  let vas_create = vas_create_c
  let vas_find = vas_find_c
  let vas_clone = vas_clone_c
  let vas_attach = vas_attach_c
  let vas_detach = vas_detach_c
  let vas_switch = vas_switch_c
  let switch_home = switch_home_c
  let vas_ctl = vas_ctl_c
  let exit_process = exit_process_c
  let crash_process = crash_process_c
  let crash_thread = crash_thread_c

  (* Bounded deterministic retry around transient [Would_block] on
     vas_switch. Attempt k waits k * backoff_cycles before retrying
     (linear backoff), charged to the calling core in simulated cycles
     — pure simulation state, so -j 1 and -j N runs are byte-identical.
     Any other fault, or Would_block past the attempt budget, is
     returned to the caller. *)
  let switch_retry ?(attempts = 8) ?(backoff_cycles = 1_000) ctx vh =
    let rec go k =
      match vas_switch_c ctx vh with
      | Ok () -> Ok ()
      | Error f when f.code = Error.Would_block && k < attempts ->
        let backoff = k * backoff_cycles in
        Core.charge ctx.core backoff;
        (match obs ctx with
        | Some r ->
          emit_to r ctx
            (Sj_obs.Event.Switch_retry
               { vid = Vas.vid vh.vas; attempt = k; backoff })
        | None -> ());
        go (k + 1)
      | Error f -> Error f
    in
    go 1
  let seg_alloc = seg_alloc_c
  let seg_alloc_anywhere = seg_alloc_anywhere_c
  let seg_find = seg_find_c
  let seg_attach = seg_attach_c
  let seg_attach_local = seg_attach_local_c
  let seg_detach = seg_detach_c
  let seg_detach_local = seg_detach_local_c
  let seg_clone = seg_clone_c
  let seg_snapshot = seg_snapshot_c
  let seg_ctl = seg_ctl_c
  let malloc = malloc_c
  let free = free_c
  let pkey_alloc = pkey_alloc_c
  let pkey_assign = pkey_assign_c
  let pkey_switch = pkey_switch_c
  let vas_fork = vas_fork_c
  let proc_fork = proc_fork_c
end

(* -------------------- Legacy exception-style surface -------------------- *)

let vas_create ctx ~name ~mode = ok_exn (vas_create_c ctx ~name ~mode)
let vas_find ctx ~name = ok_exn (vas_find_c ctx ~name)
let vas_clone ctx vas ~name = ok_exn (vas_clone_c ctx vas ~name)
let vas_attach ctx vas = ok_exn (vas_attach_c ctx vas)
let vas_switch ctx vh = ok_exn (vas_switch_c ctx vh)
let vas_ctl ctx cmd = ok_exn (vas_ctl_c ctx cmd)
let exit_process ctx = ok_exn (exit_process_c ctx)
let crash_process ctx = ok_exn (crash_process_c ctx)
let crash_thread ctx = ok_exn (crash_thread_c ctx)

let seg_alloc ?huge ?tier ctx ~name ~base ~size ~mode =
  ok_exn (seg_alloc_c ?huge ?tier ctx ~name ~base ~size ~mode)

let seg_alloc_anywhere ?huge ?tier ctx ~name ~size ~mode =
  ok_exn (seg_alloc_anywhere_c ?huge ?tier ctx ~name ~size ~mode)

let seg_find ctx ~name = ok_exn (seg_find_c ctx ~name)
let seg_attach ctx vas seg ~prot = ok_exn (seg_attach_c ctx vas seg ~prot)
let seg_attach_local ctx vh seg ~prot = ok_exn (seg_attach_local_c ctx vh seg ~prot)
let seg_detach ctx vas seg = ok_exn (seg_detach_c ctx vas seg)
let seg_detach_local ctx vh seg = ok_exn (seg_detach_local_c ctx vh seg)
let seg_clone ctx seg ~name = ok_exn (seg_clone_c ctx seg ~name)
let seg_snapshot ctx seg ~name = ok_exn (seg_snapshot_c ctx seg ~name)
let seg_ctl ctx cmd = ok_exn (seg_ctl_c ctx cmd)
let malloc ctx ?seg n = ok_exn (malloc_c ctx ?seg n)
let free ctx va = ok_exn (free_c ctx va)
let pkey_alloc ctx vas = ok_exn (pkey_alloc_c ctx vas)
let pkey_assign ctx vas seg ~key = ok_exn (pkey_assign_c ctx vas seg ~key)
let pkey_switch ctx ~key = ok_exn (pkey_switch_c ctx ~key)
let vas_fork ctx vh ~name = ok_exn (vas_fork_c ctx vh ~name)
let proc_fork ?name ctx ~core = ok_exn (proc_fork_c ?name ctx ~core)

(* -------------------- Data access -------------------- *)

(* A key-denied access surfaces as the typed [Key_violation] fault. The
   event carries the page's key tag, recovered by walking the installed
   tables — the denial changed no state, so the walk sees exactly what
   the hardware checked. *)
let key_violation ctx ~va ~write =
  let vms =
    match ctx.cur with
    | Some vh -> vh.vmspace
    | None -> Process.primary_vmspace ctx.proc
  in
  let key =
    match Page_table.walk (Vmspace.page_table vms) ~va with
    | Some m -> m.key
    | None -> 0
  in
  (match obs ctx with
  | Some r -> emit_to r ctx (Sj_obs.Event.Key_violation { va; key; write })
  | None -> ());
  Error.failf Key_violation
    ~op:(if write then "store" else "load")
    "key %d denies %s access at 0x%x" key
    (if write then "write" else "read")
    va

let load64 ctx ~va =
  try Core.load64 ctx.core ~va
  with Machine.Key_fault _ -> key_violation ctx ~va ~write:false

let store64 ctx ~va v =
  try Core.store64 ctx.core ~va v
  with Machine.Key_fault _ -> key_violation ctx ~va ~write:true

let load_bytes ctx ~va ~len =
  try Core.load_bytes ctx.core ~va ~len
  with Machine.Key_fault f -> key_violation ctx ~va:f.va ~write:false

let store_bytes ctx ~va data =
  try Core.store_bytes ctx.core ~va data
  with Machine.Key_fault f -> key_violation ctx ~va:f.va ~write:true
