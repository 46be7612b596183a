(* The five workloads. Each builds its simulated system through the
   libraries' public interfaces, generates every input from the seed
   before the clock starts, and keeps a host-side reference model that
   the untimed check compares each output against. Core calls go
   through [Api.Checked], so a typed fault is a failed op, not a crash.

   Why each workload exists is recorded in BENCHMARK.json and
   benchmark/README.md. *)

module Size = Sj_util.Size
module Rng = Sj_util.Rng
module Addr = Sj_util.Addr
module Machine = Sj_machine.Machine
module Core = Machine.Core
module Platform = Sj_machine.Platform
module Pm = Sj_mem.Phys_mem
module Api = Sj_core.Api
module Checked = Api.Checked
module Segment = Sj_core.Segment
module Vas = Sj_core.Vas
module Registry = Sj_core.Registry
module Process = Sj_kernel.Process
module Prot = Sj_paging.Prot
module Page_table = Sj_paging.Page_table
module Tlb = Sj_tlb.Tlb
module Abi = Sj_abi.Sys
module Error = Sj_abi.Error
module Recorder = Sj_obs.Recorder
module Metrics = Sj_obs.Metrics
module Redisjmp = Sj_kvstore.Redisjmp
module Resp = Sj_kvstore.Resp
module Cluster = Sj_cluster.Cluster
module A1 = Bigarray.Array1

type size = Full | Smoke

(* Inputs are generated as a stream of this many ops and replayed
   cyclically, so input generation stays off the clock and small. *)
let stream_len = function Full -> 1 lsl 16 | Smoke -> 1 lsl 10

let ok_exn what = function
  | Ok x -> x
  | Error e -> failwith (what ^ ": " ^ Error.to_string e)

(* Smoke runs shrink the simulated memory too: the machine's frame
   table is sized by it and would dominate a sub-second run. *)
let platform size (p : Platform.t) =
  match size with Full -> p | Smoke -> { p with mem_size = Size.gib 2 }

let boot size p ~name =
  let m = Machine.create (platform size p) in
  let sys = Api.boot m in
  let core = Machine.core m 0 in
  let ctx = Api.context sys (Process.create ~name m) core in
  (m, sys, ctx, core)

let int64s n f =
  let a = A1.create Bigarray.int64 Bigarray.c_layout n in
  for i = 0 to n - 1 do
    A1.unsafe_set a i (f i)
  done;
  a

(* ---------------- counters every machine workload reports ---------------- *)

let machine_counters m sys () =
  let hits = ref 0 and misses = ref 0 and flushes = ref 0 and flushed = ref 0
  and evictions = ref 0 in
  Array.iter
    (fun c ->
      let s = Tlb.stats (Core.tlb c) in
      hits := !hits + s.hits;
      misses := !misses + s.misses;
      flushes := !flushes + s.flushes;
      flushed := !flushed + s.flushed_entries;
      evictions := !evictions + s.evictions)
    (Machine.cores m);
  let abi = Abi.snapshot (Api.syscalls sys) in
  let abi_counters =
    List.concat_map
      (fun e ->
        let calls, cycles =
          match List.find_opt (fun (nr, _, _) -> Abi.name nr = e) abi with
          | Some (_, calls, cycles) -> (calls, cycles)
          | None -> (0, 0)
        in
        [ ("abi." ^ e ^ ".calls", calls); ("abi." ^ e ^ ".sim_cycles", cycles) ])
      Spec.abi_entries
  in
  let obs =
    match Recorder.of_ctx (Machine.sim_ctx m) with
    | None -> []
    | Some r ->
      let mt = Recorder.metrics r in
      [
        ("registry.tag_assigns", Metrics.tag_assigns mt);
        ("registry.tag_recycles", Metrics.tag_recycles mt);
        ("paging.cow_faults", Metrics.cow_faults mt);
        ("paging.cow_copies", Metrics.cow_copies mt);
      ]
  in
  [
    ("tlb.hits", !hits);
    ("tlb.misses", !misses);
    ("tlb.flushes", !flushes);
    ("tlb.flushed_entries", !flushed);
    ("tlb.evictions", !evictions);
    ("registry.switches", Registry.switch_count (Api.registry sys));
  ]
  @ abi_counters @ obs

(* End-of-round state every machine workload reports: the page-table
   refcount audit, frames gained over the timed phase, and events the
   simulator's trace ring dropped. *)
let machine_finish m ~frames0 =
  let a = Page_table.audit (Machine.mem m) in
  let dropped =
    match Recorder.of_ctx (Machine.sim_ctx m) with
    | Some r -> [ ("obs.events_dropped", float_of_int (Recorder.dropped r)) ]
    | None -> []
  in
  let values =
    [
      ("paging.pt_nodes_live", float_of_int a.a_nodes);
      ( "paging.pt_shared_ratio",
        float_of_int a.a_shared /. float_of_int (max 1 a.a_nodes) );
      ("paging.pt_leaked", float_of_int a.a_leaked);
      ("paging.pt_imbalanced", float_of_int (List.length a.a_imbalanced));
      ("mem.frames_delta", float_of_int (Pm.frames_allocated (Machine.mem m) - frames0));
    ]
    @ dropped
  in
  (values, a)

(* Host-time and simulated-cycle summaries of the spans the benchmark
   wrapped around calls into one layer (the report keeps the declared
   ones). *)
let span_values spans names =
  List.concat_map
    (fun name ->
      match Spans.summary spans name with
      | None -> []
      | Some s ->
        [
          (name ^ ".host_ns_p50", s.host_ns_p50);
          (name ^ ".host_ns_p99", s.host_ns_p99);
          ( name ^ ".sim_cycles_mean",
            float_of_int s.sim_cycles_total /. float_of_int s.calls );
          (name ^ ".sim_cycles_p50", s.sim_cycles_p50);
          (name ^ ".sim_cycles_p99", s.sim_cycles_p99);
        ])
    names

(* ---------------- switch ----------------

   One process on core 0 of M2 crossing into 16 VASes of one 64 KiB
   segment each (8 tagged, 8 untagged) plus a pkey compartment in VAS 0.
   An op is a crossing, an 8-byte read-modify-write, and the way back:
   90 % vas_switch/switch_home, 10 % a pkey_switch into the compartment
   (entered through VAS 0) and back to key 0. *)

let switch ~size ~seed ~spans () =
  let vases = 16 and seg_size = Size.kib 64 in
  let words = seg_size / 8 in
  let m, sys, ctx, core = boot size Platform.m2 ~name:"switch" in
  let segs =
    Array.init vases (fun v ->
        let vas = ok_exn "vas_create" (Checked.vas_create ctx ~name:(Printf.sprintf "sw%d" v) ~mode:0o600) in
        if v < vases / 2 then ok_exn "request_tag" (Checked.vas_ctl ctx (`Request_tag vas));
        let seg =
          ok_exn "seg_alloc"
            (Checked.seg_alloc_anywhere ctx ~name:(Printf.sprintf "sw%d.data" v) ~size:seg_size
               ~mode:0o600)
        in
        ok_exn "seg_attach" (Checked.seg_attach ctx vas seg ~prot:Prot.rw);
        (vas, seg))
  in
  let vas0 = fst segs.(0) in
  let compartment =
    ok_exn "seg_alloc" (Checked.seg_alloc_anywhere ctx ~name:"sw.compartment" ~size:seg_size ~mode:0o600)
  in
  ok_exn "seg_attach" (Checked.seg_attach ctx vas0 compartment ~prot:Prot.rw);
  let key = ok_exn "pkey_alloc" (Checked.pkey_alloc ctx vas0) in
  ok_exn "pkey_assign" (Checked.pkey_assign ctx vas0 compartment ~key);
  let vhs = Array.map (fun (vas, _) -> ok_exn "vas_attach" (Checked.vas_attach ctx vas)) segs in
  (* Target [vases] is the compartment, reached through VAS 0. *)
  let bases =
    Array.init (vases + 1) (fun v ->
        Segment.base (if v = vases then compartment else snd segs.(v)))
  in
  let n = stream_len size in
  let rng = Rng.create ~seed in
  let target = Array.init n (fun _ -> if Rng.int rng 10 = 0 then vases else Rng.int rng vases) in
  let word = Array.init n (fun _ -> Rng.int rng words) in
  let xors = int64s n (fun _ -> Rng.bits64 rng) in
  let model = int64s ((vases + 1) * words) (fun _ -> 0L) in
  let sp_switch = Spans.id spans "core.vas_switch"
  and sp_home = Spans.id spans "core.switch_home"
  and sp_pkey = Spans.id spans "core.pkey_switch"
  and sp_rmw = Spans.id spans "machine.rmw" in
  let enter id = Spans.enter spans id ~cyc:(Core.cycles core)
  and leave () = Spans.leave spans ~cyc:(Core.cycles core) in
  let pkey_switch k =
    enter sp_pkey;
    let r = Checked.pkey_switch ctx ~key:k in
    leave ();
    Result.is_ok r
  in
  let last = ref 0L in
  let run i =
    let j = i land (n - 1) in
    let t = target.(j) in
    let vh = vhs.(if t = vases then 0 else t) in
    enter sp_switch;
    let r = Checked.vas_switch ctx vh in
    leave ();
    Result.is_ok r
    && begin
      let entered = t <> vases || pkey_switch key in
      if entered then begin
        let va = bases.(t) + (8 * word.(j)) in
        enter sp_rmw;
        let old = Core.load64 core ~va in
        Core.store64 core ~va (Int64.logxor old (A1.unsafe_get xors j));
        leave ();
        last := old
      end;
      let left = t <> vases || pkey_switch 0 in
      enter sp_home;
      let h = Checked.switch_home ctx in
      leave ();
      entered && left && Result.is_ok h
    end
  in
  let check i =
    let j = i land (n - 1) in
    let k = (target.(j) * words) + word.(j) in
    let expected = A1.unsafe_get model k in
    A1.unsafe_set model k (Int64.logxor expected (A1.unsafe_get xors j));
    Int64.equal !last expected
  in
  let frames0 = Pm.frames_allocated (Machine.mem m) in
  let finish () =
    let values, _ = machine_finish m ~frames0 in
    ( values
      @ span_values spans
          [ "core.vas_switch"; "core.switch_home"; "core.pkey_switch"; "machine.rmw" ],
      [] )
  in
  {
    Round.run;
    check;
    cycles = (fun _ -> Core.cycles core);
    counters = machine_counters m sys;
    finish;
  }

(* ---------------- bulk ----------------

   One VAS holding a 128 MiB segment, entered during set-up. An op is
   one 16 KiB load_bytes, store_bytes, memcpy or memset (in turn) on a
   seeded 16 KiB-aligned chunk. The timed phase makes no syscalls. A
   host-side mirror replays every write; loads are compared with it and
   sampled pages are checksummed against it at the end. *)

let bulk_ops = [| "load_bytes"; "store_bytes"; "memcpy"; "memset" |]

let bulk ~size ~seed ~spans () =
  let seg_size = match size with Full -> Size.mib 128 | Smoke -> Size.mib 8 in
  let chunk = Size.kib 16 in
  let page = Addr.page_size in
  let pages = seg_size / page and chunk_pages = chunk / page in
  let m, sys, ctx, core = boot size Platform.m2 ~name:"bulk" in
  let vas = ok_exn "vas_create" (Checked.vas_create ctx ~name:"bulk" ~mode:0o600) in
  let seg =
    ok_exn "seg_alloc" (Checked.seg_alloc_anywhere ctx ~name:"bulk.data" ~size:seg_size ~mode:0o600)
  in
  ok_exn "seg_attach" (Checked.seg_attach ctx vas seg ~prot:Prot.rw);
  let vh = ok_exn "vas_attach" (Checked.vas_attach ctx vas) in
  ok_exn "vas_switch" (Checked.vas_switch ctx vh);
  let base = Segment.base seg in
  let mirror = A1.create Bigarray.char Bigarray.c_layout seg_size in
  (* Materialize every page so the timed phase never meets a first
     touch: chunk [c] is filled with byte [c mod 256]. *)
  for c = 0 to (seg_size / chunk) - 1 do
    let x = Char.chr (c land 0xff) in
    Core.memset core ~va:(base + (c * chunk)) ~len:chunk x;
    A1.fill (A1.sub mirror (c * chunk) chunk) x
  done;
  let n = stream_len size in
  let rng = Rng.create ~seed in
  (* Exactly a quarter of each kind, so every prefix has the same mix. *)
  let kind = Array.init n (fun j -> j land 3) in
  (* Chunks are visited in seeded shuffled sweeps over the whole
     segment, so an op almost never finds its data in the simulated
     LLC: with uniform picks about a third of the ops would, and the
     median op cost would sit on the cliff between the two cases. *)
  let chunks = seg_size / chunk in
  let sweeps () =
    let order = Array.init chunks Fun.id in
    Array.init n (fun j ->
        if j mod chunks = 0 then Rng.shuffle rng order;
        order.(j mod chunks))
  in
  let dst_chunk = sweeps () and src_chunk = sweeps () in
  let dst = Array.map (fun c -> c * chunk_pages) dst_chunk in
  let src =
    Array.mapi
      (fun j c -> (if c = dst_chunk.(j) then (c + 1) mod chunks else c) * chunk_pages)
      src_chunk
  in
  let fill = Array.init n (fun _ -> Char.chr (Rng.int rng 256)) in
  let buffers = Array.init 4 (fun _ -> Bytes.init chunk (fun _ -> Char.chr (Rng.int rng 256))) in
  let buffer = Array.init n (fun _ -> Rng.int rng (Array.length buffers)) in
  let sp = Array.map (fun op -> Spans.id spans ("machine." ^ op)) bulk_ops in
  let last = ref Bytes.empty in
  let run i =
    let j = i land (n - 1) in
    let va = base + (dst.(j) * page) in
    let k = kind.(j) in
    Spans.enter spans sp.(k) ~cyc:(Core.cycles core);
    (match k with
    | 0 -> last := Core.load_bytes core ~va ~len:chunk
    | 1 -> Core.store_bytes core ~va buffers.(buffer.(j))
    | 2 -> Core.memcpy core ~dst:va ~src:(base + (src.(j) * page)) ~len:chunk
    | _ -> Core.memset core ~va ~len:chunk fill.(j));
    Spans.leave spans ~cyc:(Core.cycles core);
    true
  in
  let region j = A1.sub mirror (dst.(j) * page) chunk in
  let check i =
    let j = i land (n - 1) in
    match kind.(j) with
    | 0 ->
      let r = region j and b = !last in
      let same = ref (Bytes.length b = chunk) in
      let x = ref 0 in
      while !same && !x < chunk do
        if A1.unsafe_get r !x <> Bytes.unsafe_get b !x then same := false;
        incr x
      done;
      !same
    | 1 ->
      let r = region j and b = buffers.(buffer.(j)) in
      for x = 0 to chunk - 1 do
        A1.unsafe_set r x (Bytes.unsafe_get b x)
      done;
      true
    | 2 ->
      A1.blit (A1.sub mirror (src.(j) * page) chunk) (region j);
      true
    | _ ->
      A1.fill (region j) fill.(j);
      true
  in
  let frames0 = Pm.frames_allocated (Machine.mem m) in
  let sample_rng = Rng.create ~seed:(seed + 1) in
  let sampled = Array.init (min pages 256) (fun _ -> Rng.int sample_rng pages) in
  let checksum read =
    Array.fold_left
      (fun h p ->
        let b = read p in
        let h = ref h in
        for x = 0 to page - 1 do
          h := ((!h * 31) + Char.code (Bytes.get b x)) land max_int
        done;
        !h)
      17 sampled
  in
  let finish () =
    let values, _ = machine_finish m ~frames0 in
    let simulated = checksum (fun p -> Core.load_bytes core ~va:(base + (p * page)) ~len:page) in
    let mirrored =
      checksum (fun p -> Bytes.init page (fun x -> A1.get mirror ((p * page) + x)))
    in
    let per_kib =
      List.concat_map
        (fun op ->
          match Spans.summary spans ("machine." ^ op) with
          | None -> []
          | Some s ->
            let kib = float_of_int (s.calls * (chunk / 1024)) in
            [
              ("machine." ^ op ^ ".host_ns_per_kib", float_of_int s.total_ns /. kib);
              ("machine." ^ op ^ ".sim_cycles_per_kib", float_of_int s.sim_cycles_total /. kib);
            ])
        (Array.to_list bulk_ops)
    in
    ( values @ per_kib,
      if simulated = mirrored then [] else [ "bulk: sampled-page checksum differs from the mirror" ] )
  in
  {
    Round.run;
    check;
    cycles = (fun _ -> Core.cycles core);
    counters = machine_counters m sys;
    finish;
  }

(* ---------------- kv ----------------

   A 64 MiB RedisJMP store on M1, 20 k keys seeded with 64 B values, 8
   client processes on cores 1-8. An op is one command from the next
   client in round-robin order: 80 % GET, 20 % SET, uniform keys.
   Every reply is checked against a host-side table. *)

let kv ~size ~seed ~spans () =
  let keys = match size with Full -> 20_000 | Smoke -> 1_000 in
  let store_size = match size with Full -> Size.mib 64 | Smoke -> Size.mib 8 in
  let clients = 8 and value_size = 64 in
  let m, sys, ctx, _ = boot size Platform.m1 ~name:"kv.boot" in
  let store = Redisjmp.init ctx ~name:"bench" ~size:store_size in
  let rng = Rng.create ~seed in
  let values = Array.init 256 (fun _ -> Bytes.init value_size (fun _ -> Char.chr (Rng.int rng 256))) in
  let key_names = Array.init keys (Printf.sprintf "key:%06d") in
  let model = Array.init keys (fun _ -> Rng.int rng (Array.length values)) in
  let boot_client = Redisjmp.connect store ctx () in
  Array.iteri
    (fun k v ->
      match Redisjmp.execute_retry ~attempts:1 boot_client (Resp.Set (key_names.(k), values.(v))) with
      | Ok _ -> ()
      | Error e -> failwith ("kv seed: " ^ Error.to_string e))
    model;
  let conns =
    Array.init clients (fun c ->
        let core = Machine.core m (1 + c) in
        let ctx = Api.context sys (Process.create ~name:(Printf.sprintf "kv.client%d" c) m) core in
        (Redisjmp.connect store ctx (), core))
  in
  let n = stream_len size in
  let key = Array.init n (fun _ -> Rng.int rng keys) in
  (* value index for a SET, -1 for a GET *)
  let value = Array.init n (fun _ -> if Rng.int rng 5 = 0 then Rng.int rng (Array.length values) else -1) in
  let cmds =
    Array.init n (fun j ->
        if value.(j) < 0 then Resp.Get key_names.(key.(j))
        else Resp.Set (key_names.(key.(j)), values.(value.(j))))
  in
  let sp_get = Spans.id spans "kvstore.get" and sp_set = Spans.id spans "kvstore.set" in
  let last = ref Resp.Nil and would_block = ref 0 and mismatches = ref 0 in
  let run i =
    let j = i land (n - 1) in
    let client, core = conns.(i mod clients) in
    Spans.enter spans (if value.(j) < 0 then sp_get else sp_set) ~cyc:(Core.cycles core);
    let r = Redisjmp.execute_retry ~attempts:1 client cmds.(j) in
    Spans.leave spans ~cyc:(Core.cycles core);
    match r with
    | Ok reply ->
      last := reply;
      true
    | Error e ->
      if e.code = Error.Would_block then incr would_block;
      false
  in
  let check i =
    let j = i land (n - 1) in
    let k = key.(j) in
    let ok =
      if value.(j) >= 0 then begin
        model.(k) <- value.(j);
        !last = Resp.Ok_simple
      end
      else match !last with Resp.Bulk b -> Bytes.equal b values.(model.(k)) | _ -> false
    in
    if not ok then incr mismatches;
    ok
  in
  let frames0 = Pm.frames_allocated (Machine.mem m) in
  let finish () =
    let values, _ = machine_finish m ~frames0 in
    ( values
      @ span_values spans [ "kvstore.get"; "kvstore.set" ]
      @ [
          ("kvstore.mismatches", float_of_int !mismatches);
          ("kvstore.would_block", float_of_int !would_block);
        ],
      [] )
  in
  {
    Round.run;
    check;
    cycles = (fun i -> Core.cycles (snd conns.(i mod clients)));
    counters = machine_counters m sys;
    finish;
  }

(* ---------------- fork ----------------

   One fully populated 64 MiB segment. An op forks its VAS, enters the
   fork, makes 16 seeded 8-byte writes to pages in distinct 2 MiB
   regions (16 CoW break-and-copy faults), returns home, and tears the fork down:
   detach, destroy the VAS, and destroy each shadow segment — destroying
   the VAS alone leaves its shadow segments registered, and their frames
   with them. *)

let fork ~size ~seed ~spans () =
  let seg_size = match size with Full -> Size.mib 64 | Smoke -> Size.mib 4 in
  let writes = 16 in
  let page = Addr.page_size in
  let pages = seg_size / page in
  let m, sys, ctx, core = boot size Platform.m2 ~name:"fork" in
  let vas = ok_exn "vas_create" (Checked.vas_create ctx ~name:"src" ~mode:0o600) in
  let seg =
    ok_exn "seg_alloc" (Checked.seg_alloc_anywhere ctx ~name:"src.data" ~size:seg_size ~mode:0o600)
  in
  ok_exn "seg_attach" (Checked.seg_attach ctx vas seg ~prot:Prot.rw);
  let vh = ok_exn "vas_attach" (Checked.vas_attach ctx vas) in
  let base = Segment.base seg in
  (* Page [p] holds byte [p mod 251] with [p] in its first word. *)
  let page_bytes p =
    let b = Bytes.make page (Char.chr (p mod 251)) in
    Bytes.set_int64_le b 0 (Int64.of_int p);
    b
  in
  let digest read =
    let h = ref 17 in
    for p = 0 to pages - 1 do
      h := ((!h * 1_000_003) lxor Hashtbl.hash (Bytes.to_string (read p))) land max_int
    done;
    !h
  in
  ok_exn "vas_switch" (Checked.vas_switch ctx vh);
  for p = 0 to pages - 1 do
    Core.store_bytes core ~va:(base + (p * page)) (page_bytes p)
  done;
  ok_exn "switch_home" (Checked.switch_home ctx);
  let expected = digest page_bytes in
  let n = min (stream_len size) 4096 in
  let rng = Rng.create ~seed in
  (* Each op writes one seeded page in each of [writes] distinct 2 MiB
     regions, so every op breaks the same number of shared page-table
     leaves and its simulated cost does not hinge on how the pages
     happened to cluster. *)
  let region_pages = Size.mib 2 / page in
  let regions = pages / region_pages in
  let writes = min writes regions in
  let target = Array.make (n * writes) 0 in
  for j = 0 to n - 1 do
    let order = Array.init regions Fun.id in
    Rng.shuffle rng order;
    for w = 0 to writes - 1 do
      target.((j * writes) + w) <- (order.(w) * region_pages) + Rng.int rng region_pages
    done
  done;
  let word = Array.init (n * writes) (fun _ -> Rng.int rng (page / 8)) in
  let data = int64s (n * writes) (fun _ -> Rng.bits64 rng) in
  let sp_fork = Spans.id spans "core.vas_fork"
  and sp_switch = Spans.id spans "core.vas_switch"
  and sp_writes = Spans.id spans "machine.cow_writes"
  and sp_home = Spans.id spans "core.switch_home"
  and sp_teardown = Spans.id spans "core.fork_teardown" in
  let enter id = Spans.enter spans id ~cyc:(Core.cycles core)
  and leave () = Spans.leave spans ~cyc:(Core.cycles core) in
  let teardown fvh =
    enter sp_teardown;
    let fvas = Api.vas_of_vh fvh in
    let shadows = Vas.segments fvas in
    let ok =
      Result.is_ok (Checked.vas_detach ctx fvh)
      && Result.is_ok (Checked.vas_ctl ctx (`Destroy fvas))
      && List.for_all (fun (s, _) -> Result.is_ok (Checked.seg_ctl ctx (`Destroy s))) shadows
    in
    leave ();
    ok
  in
  let run i =
    let j = i land (n - 1) in
    enter sp_fork;
    let f = Checked.vas_fork ctx vh ~name:"fork" in
    leave ();
    match f with
    | Error _ -> false
    | Ok fvh ->
      enter sp_switch;
      let s = Checked.vas_switch ctx fvh in
      leave ();
      if Result.is_ok s then begin
        enter sp_writes;
        for w = 0 to writes - 1 do
          let k = (j * writes) + w in
          Core.store64 core ~va:(base + (target.(k) * page) + (8 * word.(k))) (A1.unsafe_get data k)
        done;
        leave ()
      end;
      enter sp_home;
      let h = Checked.switch_home ctx in
      leave ();
      let t = teardown fvh in
      Result.is_ok s && Result.is_ok h && t
  in
  let frames0 = Pm.frames_allocated (Machine.mem m) in
  let finish () =
    let values, audit = machine_finish m ~frames0 in
    let failures = ref [] in
    let fail s = failures := s :: !failures in
    (match Checked.vas_switch ctx vh with
    | Ok () ->
      let seen = digest (fun p -> Core.load_bytes core ~va:(base + (p * page)) ~len:page) in
      ignore (Checked.switch_home ctx);
      if seen <> expected then fail "fork: the parent segment changed"
    | Error e -> fail ("fork: cannot re-enter the parent: " ^ Error.to_string e));
    let frames = List.assoc "mem.frames_delta" values in
    if frames <> 0. then fail (Printf.sprintf "fork: %.0f frames not returned" frames);
    if audit.a_leaked <> 0 || audit.a_imbalanced <> [] then
      fail
        (Printf.sprintf "fork: page-table audit: %d leaked, %d imbalanced" audit.a_leaked
           (List.length audit.a_imbalanced));
    ( values
      @ span_values spans
          [ "core.vas_fork"; "core.vas_switch"; "core.switch_home"; "core.fork_teardown" ],
      List.rev !failures )
  in
  {
    Round.run;
    check = (fun _ -> true);
    cycles = (fun _ -> Core.cycles core);
    counters = machine_counters m sys;
    finish;
  }

(* ---------------- cluster ----------------

   [Cluster.run] with its defaults (3 machines, 8 shards, batch 16,
   pipeline 2, 10 % SET, tags) and 200 k clients x 2 requests; the
   closed loop runs inside the simulation and an op is one request. A
   round makes one call per [call_seconds] of its length (at least
   one), and its host metrics are the median call's. The cluster
   generates its own requests from [config.seed]. Set-up is timed as a
   run of the same shape with one request per shard: it builds the
   machines, stores and channels and serves almost nothing. *)

(* Host time of one full-size call on the reference 2-core machine; it
   only sets how many calls fit in a round. *)
let call_seconds = 1.3

let cluster_round ~size ~seed ~seconds ~setup_reps ~traced ~spans =
  let clients = match size with Full -> 200_000 | Smoke -> 2_000 in
  let cfg = { Cluster.default with clients; requests_per_client = 2; seed } in
  let run cfg = Recorder.with_tracing traced (fun () -> Cluster.run cfg) in
  let probe = { cfg with clients = cfg.shards; requests_per_client = 1 } in
  let _, setup_s = Round.setup_time (fun () -> run probe) setup_reps in
  let sp_run = Spans.id spans "cluster.run" in
  let expected = cfg.clients * cfg.requests_per_client in
  let n = float_of_int expected in
  let g0 = Gc.quick_stat () in
  let call () =
    (* Each call starts from a compacted heap, so the heap peak is one
       call's, not an accident of how the previous call's garbage lay. *)
    Gc.compact ();
    let a0 = Gc.minor_words () in
    let t0 = Round.now_ns () in
    Spans.enter spans sp_run ~cyc:0;
    let r = run cfg in
    Spans.leave spans ~cyc:r.duration_cycles;
    let t1 = Round.now_ns () in
    let words = Gc.minor_words () -. a0 in
    (r, float_of_int (t1 - t0) /. 1e9, words, Round.Speed.slowdown ())
  in
  let calls = List.init (max 1 (int_of_float (seconds /. call_seconds))) (fun _ -> call ()) in
  let g1 = Gc.quick_stat () in
  let r, _, _, _ = List.hd calls in
  let failures =
    List.concat_map
      (fun ((r : Cluster.result), _, _, _) ->
        (if r.requests <> expected then
           [ Printf.sprintf "cluster: %d of %d requests completed" r.requests expected ]
         else [])
        @ if r.crashed then [ "cluster: a shard crashed" ] else [])
      calls
  in
  let median f = Stats.median (List.map f calls) in
  (* per call, at the reference speed (see [Round.Speed]) *)
  let host_s = median (fun (_, s, _, f) -> s /. f) in
  let words = median (fun (_, _, w, _) -> w) in
  let served = Array.map float_of_int r.shard_served in
  let mean_served = Array.fold_left ( +. ) 0. served /. float_of_int (Array.length served) in
  let values =
    [
      ("host_ops_per_s", n /. host_s);
      (* the median call's mean host time per request *)
      ("host_op_us_p50", host_s *. 1e6 /. n);
      ("setup_s", setup_s);
      ("bench.host_ops_per_s_raw", n /. median (fun (_, s, _, _) -> s));
      ("bench.slowdown", median (fun (_, _, _, f) -> f));
      ( "bench.host_op_us_p99",
        List.fold_left (fun m (_, s, _, _) -> Float.max m s) 0. calls *. 1e6 /. n );
      ("sim_ops_per_s", r.throughput);
      ("sim_op_cycles_p50", float_of_int r.p50);
      ("sim_op_cycles_p99", float_of_int r.p99);
      ("alloc_words_per_op", words /. n);
      ("bench.self_ns_per_op", 0.);
      ("des.server_backlog_peak", float_of_int r.server_backlog_peak);
      ("des.edge_backlog_peak", float_of_int r.edge_backlog_peak);
      ("ipc.ring_stalls_per_kreq", float_of_int r.ring_stalls *. 1000. /. n);
      ( "ipc.batch_fill",
        if r.batches = 0 then 0. else n /. float_of_int r.batches /. float_of_int cfg.batch );
      ("cluster.run.host_s", median (fun (_, s, _, _) -> s));
      ("cluster.switches_per_request", float_of_int r.switches /. n);
      ("cluster.shard_imbalance", Array.fold_left Float.max 0. served /. mean_served);
      ("cluster.p50_bucket_edge_cycles", float_of_int r.p50);
      ("cluster.p99_bucket_edge_cycles", float_of_int r.p99);
    ]
    @ Round.gc_values ~ops:(expected * List.length calls) ~top_heap_words:g1.top_heap_words g0 g1
  in
  {
    Round.attempted = expected * List.length calls;
    failed = (if failures = [] then 0 else expected * List.length calls);
    failures;
    values;
    tail = None;
  }

(* ---------------- registry ---------------- *)

(* Run one round of [name] in the calling (child) process. The prefix is
   the op count the simulated metrics cover; it runs in about a second
   untraced. Set-up is timed [reps] times where it is cheap enough. *)
let round ~name ~size ~seed ~seconds ~traced ~spans =
  let per_op make ~full:(prefix, setup_reps) ~smoke =
    let prefix, setup_reps = match size with Full -> (prefix, setup_reps) | Smoke -> (smoke, 1) in
    let setup () = Recorder.with_tracing traced (fun () -> make ~size ~seed ~spans ()) in
    Round.run_per_op
      ~plan:{ Round.seconds; prefix; setup_reps }
      ~spans ~op_span:(Spans.id spans ("op." ^ name)) setup
  in
  match name with
  | "switch" -> per_op switch ~full:(400_000, 5) ~smoke:2_000
  | "bulk" -> per_op bulk ~full:(16_000, 1) ~smoke:100
  | "kv" -> per_op kv ~full:(100_000, 1) ~smoke:1_000
  | "fork" -> per_op fork ~full:(1_000, 1) ~smoke:50
  | "cluster" ->
    cluster_round ~size ~seed ~seconds ~setup_reps:(if size = Full then 3 else 1) ~traced ~spans
  | other -> invalid_arg ("unknown workload " ^ other)
