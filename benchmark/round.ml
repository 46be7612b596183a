(* One measured round of one workload, run inside its own child
   process: set up, then a closed loop of operations until the round's
   time is up. *)

type t = {
  attempted : int;
  failed : int;
  failures : string list;  (** failed correctness checks, described *)
  values : (string * float) list;  (** every metric the round measured *)
  tail : (float * float) option;
      (** the highest percentile of host op time with at least ten
          samples beyond it, and its value in microseconds *)
}

let tail_of samples ~scale =
  Option.map
    (fun p -> (p, float_of_int (Stats.Samples.quantile samples (p /. 100.)) /. scale))
    (Stats.tail_percentile ~n:(Stats.Samples.length samples))

type plan = {
  seconds : float;  (** host time the loop runs for, at least *)
  prefix : int;
      (** ops whose simulated cycles and counters are reported: a fixed
          count, so simulated metrics do not depend on host speed *)
  setup_reps : int;  (** set-ups timed; the last one is measured *)
}

(* A workload instance, built by a set-up function. *)
type per_op = {
  run : int -> bool;
      (** the timed calls of op [i]; [false] on a typed fault *)
  check : int -> bool;
      (** untimed: op [i]'s outputs agree with the reference model *)
  cycles : int -> int;  (** simulated clock of the core op [i] runs on *)
  counters : unit -> (string * int) list;
      (** cumulative simulated counters, differenced over the prefix *)
  finish : unit -> (string * float) list * string list;
      (** end-of-round layer values and failed end-of-run checks *)
}

let now_ns = Spans.monotonic_ns
let reference_hz = 2.5e9

let timed f =
  let t0 = now_ns () in
  let x = f () in
  (x, float_of_int (now_ns () - t0) /. 1e9)

(* [f] run [reps] times: the last result and the median time in seconds. *)
let median_time f reps =
  let last = ref (timed f) and times = ref [] in
  for _ = 2 to reps do
    times := snd !last :: !times;
    last := timed f
  done;
  (fst !last, Stats.median (snd !last :: !times))

(* Layer metrics derived from counter deltas over the prefix. *)
let derive ~ops deltas =
  let get k = float_of_int (Option.value ~default:0 (List.assoc_opt k deltas)) in
  let per_op k = get k /. float_of_int (max 1 ops) in
  let passthrough =
    List.filter_map
      (fun (k, v) ->
        if
          String.starts_with ~prefix:"abi." k
          || String.starts_with ~prefix:"registry.tag_" k
          || String.ends_with ~suffix:".calls" k
        then Some (k, float_of_int v)
        else None)
      deltas
  in
  let cow =
    List.filter_map
      (fun k -> if List.mem_assoc k deltas then Some (k ^ "_per_op", per_op k) else None)
      [ "paging.cow_faults"; "paging.cow_copies" ]
  in
  let hits = get "tlb.hits" and misses = get "tlb.misses" in
  passthrough @ cow
  @ [
      ("tlb.hit_ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
      ("tlb.misses_per_op", per_op "tlb.misses");
      ("tlb.flushes_per_op", per_op "tlb.flushes");
      ("tlb.flushed_entries_per_op", per_op "tlb.flushed_entries");
      ("tlb.evictions_per_op", per_op "tlb.evictions");
      ("registry.switches_per_op", per_op "registry.switches");
    ]

let diff before after =
  List.map (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before))) after

(* [top_heap_words] is read where the workload's op count is fixed, so
   the heap peak does not depend on how many ops the host managed. *)
let gc_values ~ops ~top_heap_words (g0 : Gc.stat) (g1 : Gc.stat) =
  let n = float_of_int (max 1 ops) in
  [
    ("heap_peak_mb", float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.);
    ( "gc.minor_collections_per_kop",
      float_of_int (g1.minor_collections - g0.minor_collections) *. 1000. /. n );
    ("gc.major_collections", float_of_int (g1.major_collections - g0.major_collections));
    ("gc.promoted_words_per_op", (g1.promoted_words -. g0.promoted_words) /. n);
  ]

(* ---------------- machine speed ----------------

   The benchmark runs on shared hosts whose other tenants slow every
   process on them by 10-20 % for minutes at a time; over ten runs of
   identical code that drift, not the code, set the spread of raw host
   times. So right after each measured block the round also times a
   fixed reference kernel that no code under test touches: a pointer
   chase through a 32 MiB table, read through once first so that
   little of the timing depends on what the measured code left in the
   caches. Its duration over [reference_ns] is the block's slowdown:
   the block's rate is multiplied by it and its times divided by it,
   which states them at the reference machine's speed. The raw rate
   and the slowdown are reported beside them. *)

module Speed = struct
  module A1 = Bigarray.Array1

  let size = 1 lsl 22
  let iterations = 20_000

  (* the kernel's duration on an otherwise idle reference host *)
  let reference_ns = 2.5e6

  let table =
    lazy
      (let a = A1.create Bigarray.int Bigarray.c_layout size in
       for i = 0 to size - 1 do
         A1.unsafe_set a i (((i * 7919) + 13) land (size - 1))
       done;
       a)

  let prepare () = ignore (Lazy.force table)

  (* One run of the kernel: its duration relative to the reference.
     Always taken once, straight after measured work, so that every
     reading starts from the same cache state: repeated back to back
     the kernel speeds up by half as its table settles into the
     last-level cache. *)
  let slowdown () =
    let a = Lazy.force table in
    let sum = ref 0 in
    for i = 0 to size - 1 do
      sum := !sum + A1.unsafe_get a i
    done;
    let t0 = now_ns () in
    let x = ref !sum in
    for i = 1 to iterations do
      x := A1.unsafe_get a (((!x * 31) + i) land (size - 1))
    done;
    let t1 = now_ns () in
    ignore (Sys.opaque_identity !x);
    float_of_int (t1 - t0) /. reference_ns
end

(* Set-up time at the reference speed. The kernel's table is normally
   built by the parent before it forks the round's process, so neither
   building it nor its weight in the GC's accounting lands in set-up. *)
let setup_time setup reps =
  let w, raw = median_time setup reps in
  Speed.prepare ();
  (w, raw /. Speed.slowdown ())

(* Host rates and times are taken per block of this much timed host
   time, each at the reference speed, and the median block reported: a
   burst of interference then costs a block, not the round. *)
let block_ns = 100_000_000

let rate ~ops ~ns = float_of_int ops /. (float_of_int (max 1 ns) /. 1e9)

(* The closed loop: op [i + 1] starts when op [i] returns. Host time,
   minor words and simulated cycles are read around the timed calls
   only; inputs were generated before the loop and the reference-model
   check runs outside the timers. The loop runs at least [plan.prefix]
   ops and at least [plan.seconds]. *)
let run_per_op ~(plan : plan) ~spans ~op_span (setup : unit -> per_op) =
  let w, setup_s = setup_time setup plan.setup_reps in
  let host = Stats.Samples.create (1 lsl 16) in
  let sim = Stats.Samples.create plan.prefix in
  let snapshot () = w.counters () @ Spans.counts spans in
  let c0 = snapshot () in
  let c_prefix = ref c0 and heap_words = ref 0 in
  let failed = ref 0 and mismatched = ref 0 and words = ref 0 and host_ns = ref 0 in
  (* per block, at the reference speed: rate, median op time; and the
     raw rate and the slowdown *)
  let rates = ref [] and p50s = ref [] and raw_rates = ref [] and slowdowns = ref [] in
  let block_first = ref 0 and block_start = ref 0 and speed_ns = ref 0 in
  let close_block () =
    let t = now_ns () in
    let f = Speed.slowdown () in
    speed_ns := !speed_ns + (now_ns () - t);
    let ops = Stats.Samples.length host - !block_first in
    let raw = rate ~ops ~ns:(!host_ns - !block_start) in
    rates := (raw *. f) :: !rates;
    raw_rates := raw :: !raw_rates;
    slowdowns := f :: !slowdowns;
    p50s := (float_of_int (Stats.Samples.quantile host ~first:!block_first 0.5) /. f) :: !p50s;
    block_first := Stats.Samples.length host;
    block_start := !host_ns
  in
  let g0 = Gc.quick_stat () in
  let start = now_ns () in
  let deadline = start + int_of_float (plan.seconds *. 1e9) in
  let i = ref 0 and t_last = ref start in
  while !i < plan.prefix || !t_last < deadline do
    let op = !i in
    Spans.set_op spans op;
    let cyc0 = w.cycles op in
    let a0 = Gc.minor_words () in
    let t0 = now_ns () in
    Spans.enter spans op_span ~cyc:cyc0;
    let ok = try w.run op with _ -> false in
    let cyc1 = w.cycles op in
    Spans.leave spans ~cyc:cyc1;
    let t1 = now_ns () in
    let a1 = Gc.minor_words () in
    words := !words + Float.to_int (a1 -. a0);
    host_ns := !host_ns + (t1 - t0);
    Stats.Samples.add host (t1 - t0);
    if op < plan.prefix then Stats.Samples.add sim (cyc1 - cyc0);
    if not ok then incr failed
    else if not (w.check op) then begin
      incr failed;
      incr mismatched
    end;
    if op = plan.prefix - 1 then begin
      c_prefix := snapshot ();
      heap_words := (Gc.quick_stat ()).top_heap_words
    end;
    if !host_ns - !block_start >= block_ns then close_block ();
    t_last := t1;
    incr i
  done;
  (* a round too short for one full block is one block *)
  if !rates = [] then close_block ();
  let wall_ns = now_ns () - start - !speed_ns in
  let g1 = Gc.quick_stat () in
  let ops = !i in
  let layer, failures = w.finish () in
  let sim_total = Stats.Samples.sum sim in
  let failures =
    if !mismatched > 0 then
      Printf.sprintf "%d ops disagreed with the reference model" !mismatched :: failures
    else failures
  in
  let values =
    [
      ("host_ops_per_s", Stats.median !rates);
      ("host_op_us_p50", Stats.median !p50s /. 1e3);
      ("setup_s", setup_s);
      ("bench.host_ops_per_s_raw", Stats.median !raw_rates);
      ("bench.slowdown", Stats.median !slowdowns);
      ("bench.host_op_us_p99", float_of_int (Stats.Samples.quantile host 0.99) /. 1e3);
      ( "sim_ops_per_s",
        float_of_int plan.prefix *. reference_hz /. float_of_int (max 1 sim_total) );
      ("sim_op_cycles_p50", float_of_int (Stats.Samples.quantile sim 0.50));
      ("sim_op_cycles_p99", float_of_int (Stats.Samples.quantile sim 0.99));
      ("alloc_words_per_op", float_of_int !words /. float_of_int ops);
      ("bench.self_ns_per_op", float_of_int (wall_ns - !host_ns) /. float_of_int ops);
      ("core.faults", float_of_int (!failed - !mismatched));
    ]
    @ gc_values ~ops ~top_heap_words:!heap_words g0 g1
    @ derive ~ops:plan.prefix (diff c0 !c_prefix)
    @ layer
  in
  { attempted = ops; failed = !failed; failures; values; tail = tail_of host ~scale:1e3 }
