(* What the benchmark measures: its workloads and every metric it
   reports, with unit and direction. BENCHMARK.json at the repository
   root declares the same names; the smoke test checks the two agree. *)

type better = Higher | Lower

let better_name = function Higher -> "higher" | Lower -> "lower"

let workloads = [ "switch"; "bulk"; "kv"; "fork"; "cluster" ]
let per_op_workloads = [ "switch"; "bulk"; "kv"; "fork" ]

(* End-to-end metrics: (name, unit, better, regression bound as a share
   of the parent's median). Every workload reports every one of them. *)
let end_to_end =
  [
    ("host_ops_per_s", "ops/s", Higher, 0.10);
    ("host_op_us_p50", "us", Lower, 0.10);
    ("setup_s", "s", Lower, 0.25);
    ("sim_ops_per_s", "ops/sim_s", Higher, 0.02);
    ("sim_op_cycles_p50", "cycles", Lower, 0.02);
    ("sim_op_cycles_p99", "cycles", Lower, 0.02);
    ("alloc_words_per_op", "words/op", Lower, 0.02);
    ("heap_peak_mb", "MiB", Lower, 0.10);
  ]

(* Reported beside the end-to-end metrics but not gated: it is zero on
   a correct run, and the result line carries the same
   information as [attempted] and [failed]. *)
let error_rate = ("error_rate", "ratio", Lower)

(* The ABI entries whose per-entry counters are reported. *)
let abi_entries =
  [
    "vas_switch";
    "vas_switch_home";
    "pkey_switch";
    "seg_lock";
    "seg_unlock";
    "malloc";
    "free";
    "vas_fork";
    "vas_detach";
    "vas_delete";
    "seg_delete";
  ]

(* Per-layer metrics: (name, unit, better, workloads that measure it).
   Layers are named after the lib/ modules whose calls they wrap. A
   workload outside a metric's list reports it as 0. *)
let per_layer =
  let core_op op wls =
    [
      ("core." ^ op ^ ".calls", "count", Lower, wls);
      ("core." ^ op ^ ".host_ns_p50", "ns", Lower, wls);
      ("core." ^ op ^ ".host_ns_p99", "ns", Lower, wls);
      ("core." ^ op ^ ".sim_cycles_mean", "cycles", Lower, wls);
    ]
  in
  let bulk_op op =
    [
      ("machine." ^ op ^ ".calls", "count", Lower, [ "bulk" ]);
      ("machine." ^ op ^ ".host_ns_per_kib", "ns/KiB", Lower, [ "bulk" ]);
      ("machine." ^ op ^ ".sim_cycles_per_kib", "cycles/KiB", Lower, [ "bulk" ]);
    ]
  in
  let kv_op op =
    [
      ("kvstore." ^ op ^ ".calls", "count", Lower, [ "kv" ]);
      ("kvstore." ^ op ^ ".host_ns_p50", "ns", Lower, [ "kv" ]);
      ("kvstore." ^ op ^ ".host_ns_p99", "ns", Lower, [ "kv" ]);
      ("kvstore." ^ op ^ ".sim_cycles_p50", "cycles", Lower, [ "kv" ]);
      ("kvstore." ^ op ^ ".sim_cycles_p99", "cycles", Lower, [ "kv" ]);
    ]
  in
  let m = per_op_workloads and all = workloads in
  List.concat
    [
      core_op "vas_switch" [ "switch"; "fork" ];
      core_op "switch_home" [ "switch"; "fork" ];
      core_op "pkey_switch" [ "switch" ];
      core_op "vas_fork" [ "fork" ];
      core_op "fork_teardown" [ "fork" ];
      [ ("core.faults", "count", Lower, m) ];
      List.concat_map
        (fun e ->
          [
            ("abi." ^ e ^ ".calls", "count", Lower, m);
            ("abi." ^ e ^ ".sim_cycles", "cycles", Lower, m);
          ])
        abi_entries;
      [
        ("registry.switches_per_op", "1/op", Lower, m);
        ("registry.tag_assigns", "count", Lower, m);
        ("registry.tag_recycles", "count", Lower, m);
        ("tlb.hit_ratio", "ratio", Higher, m);
        ("tlb.misses_per_op", "1/op", Lower, m);
        ("tlb.flushes_per_op", "1/op", Lower, m);
        ("tlb.flushed_entries_per_op", "1/op", Lower, m);
        ("tlb.evictions_per_op", "1/op", Lower, m);
      ];
      bulk_op "load_bytes";
      bulk_op "store_bytes";
      bulk_op "memcpy";
      bulk_op "memset";
      [
        ("machine.rmw.host_ns_p50", "ns", Lower, [ "switch" ]);
        ("paging.pt_nodes_live", "count", Lower, m);
        ("paging.pt_shared_ratio", "ratio", Higher, m);
        ("paging.pt_leaked", "count", Lower, m);
        ("paging.pt_imbalanced", "count", Lower, m);
        ("paging.cow_faults_per_op", "1/op", Lower, m);
        ("paging.cow_copies_per_op", "1/op", Lower, m);
        ("mem.frames_delta", "frames", Lower, m);
      ];
      kv_op "get";
      kv_op "set";
      [
        ("kvstore.mismatches", "count", Lower, [ "kv" ]);
        ("kvstore.would_block", "count", Lower, [ "kv" ]);
        ("des.server_backlog_peak", "requests", Lower, [ "cluster" ]);
        ("des.edge_backlog_peak", "requests", Lower, [ "cluster" ]);
        ("ipc.ring_stalls_per_kreq", "1/kreq", Lower, [ "cluster" ]);
        ("ipc.batch_fill", "ratio", Higher, [ "cluster" ]);
        ("cluster.run.host_s", "s", Lower, [ "cluster" ]);
        ("cluster.switches_per_request", "1/req", Lower, [ "cluster" ]);
        ("cluster.shard_imbalance", "ratio", Lower, [ "cluster" ]);
        ("cluster.p50_bucket_edge_cycles", "cycles", Lower, [ "cluster" ]);
        ("cluster.p99_bucket_edge_cycles", "cycles", Lower, [ "cluster" ]);
        ("obs.trace_overhead", "ratio", Lower, all);
        ("obs.events_dropped", "count", Lower, m);
        ("gc.minor_collections_per_kop", "1/kop", Lower, all);
        ("gc.major_collections", "count", Lower, all);
        ("gc.promoted_words_per_op", "words/op", Lower, all);
        ("bench.host_op_us_p99", "us", Lower, all);
        ("bench.self_ns_per_op", "ns", Lower, all);
        ("bench.host_ops_per_s_raw", "ops/s", Higher, all);
        ("bench.slowdown", "ratio", Lower, all);
      ];
    ]
