(* Tests of the benchmark itself: the span recorder's self time and
   ring, the order statistics, median-of-rounds aggregation, the
   --compare verdicts, simulated metrics that do not depend on tracing,
   and a --smoke run of the real executable that must print every
   metric BENCHMARK.json declares, with its unit, and pass every check. *)

open Sjbench_kit

let close ~rel expected actual =
  Float.abs (actual -. expected) <= rel *. Float.abs expected

(* ---------------- spans ---------------- *)

(* root [0,100] has children a [10,40] and b [50,70]; a has child g
   [20,30]. Self time is duration minus what the children cover. *)
let test_self_time () =
  let now = ref 0 in
  let t = Spans.create ~clock:(fun () -> !now) ~enabled:true () in
  let id = Spans.id t in
  let root = id "root" and a = id "a" and g = id "g" and b = id "b" in
  let enter at s = now := at; Spans.enter t s ~cyc:at in
  let leave at = now := at; Spans.leave t ~cyc:at in
  enter 0 root;
  enter 10 a;
  enter 20 g;
  leave 30;
  leave 40;
  enter 50 b;
  leave 70;
  leave 100;
  let get name = Option.get (Spans.summary t name) in
  Alcotest.(check int) "root total" 100 (get "root").total_ns;
  Alcotest.(check int) "root self = 100 - 30 - 20" 50 (get "root").self_ns;
  Alcotest.(check int) "a self = 30 - 10" 20 (get "a").self_ns;
  Alcotest.(check int) "leaf self = its duration" 10 (get "g").self_ns;
  Alcotest.(check int) "b self" 20 (get "b").self_ns;
  Alcotest.(check int) "simulated cycles follow the same spans" 100
    (get "root").sim_cycles_total

let count_events json =
  let n = ref 0 in
  String.iteri
    (fun i c -> if c = 'X' && i > 0 && json.[i - 1] = '"' then incr n)
    json;
  !n

let test_ring_and_chrome () =
  let now = ref 0 in
  let t = Spans.create ~clock:(fun () -> !now) ~capacity:3 ~enabled:true () in
  let s = Spans.id t "s" in
  for i = 1 to 5 do
    Spans.set_op t i;
    now := 10 * i;
    Spans.enter t s ~cyc:0;
    now := (10 * i) + 5;
    Spans.leave t ~cyc:0
  done;
  let json = Spans.to_chrome_json t in
  (match Sj_obs.Trace.check_string json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chrome trace malformed: %s" e);
  Alcotest.(check int) "ring keeps the last 3 spans" 3 (count_events json);
  Alcotest.(check int) "aggregates cover every span" 5 (Option.get (Spans.summary t "s")).calls;
  let disabled = Spans.create ~enabled:false () in
  Spans.enter disabled (Spans.id disabled "s") ~cyc:0;
  Spans.leave disabled ~cyc:0;
  Alcotest.(check bool) "a disabled recorder records nothing" true
    (Spans.summary disabled "s" = None && Spans.counts disabled = [])

(* ---------------- order statistics ---------------- *)

let test_tail_percentile () =
  let sel n = Stats.tail_percentile ~n in
  Alcotest.(check (option (float 0.))) "100k samples: p99.99 has 10 beyond" (Some 99.99) (sel 100_000);
  Alcotest.(check (option (float 0.))) "99,999 samples: only p99.9" (Some 99.9) (sel 99_999);
  Alcotest.(check (option (float 0.))) "1000 samples: p99" (Some 99.) (sel 1000);
  Alcotest.(check (option (float 0.))) "999 samples: p90" (Some 90.) (sel 999);
  Alcotest.(check (option (float 0.))) "20 samples: the median" (Some 50.) (sel 20);
  Alcotest.(check (option (float 0.))) "19 samples: no percentile" None (sel 19)

let test_exact_quantiles () =
  let rng = Sj_util.Rng.create ~seed:5 in
  let xs = List.init 10_001 (fun _ -> Sj_util.Rng.int rng 1_000_000) in
  let s = Stats.Samples.create 4 in
  List.iter (Stats.Samples.add s) xs;
  let sorted = Array.of_list (List.sort compare xs) in
  List.iter
    (fun q ->
      let rank = int_of_float (Float.ceil (q *. 10_001.)) in
      Alcotest.(check int) (Printf.sprintf "nearest-rank q=%g" q) sorted.(rank - 1)
        (Stats.Samples.quantile s q))
    [ 0.5; 0.9; 0.99; 0.999; 1.0 ]

let test_hist_error_bound () =
  let h = Stats.Hist.create () in
  for v = 1 to 100_000 do
    Stats.Hist.add h v
  done;
  List.iter
    (fun q ->
      let exact = q *. 100_000. in
      Alcotest.(check bool)
        (Printf.sprintf "q=%g within 1/64 of %g" q exact)
        true
        (close ~rel:(1. /. 64.) exact (Stats.Hist.quantile h q)))
    [ 0.01; 0.5; 0.9; 0.99 ]

(* Quartiles as Python's statistics.quantiles(values, n=4) gives them. *)
let test_quartiles () =
  let q1, m, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "1..10" [ 2.75; 5.5; 8.25 ] [ q1; m; q3 ];
  let q1, m, q3 = Stats.quartiles [ 4.; 1.; 3.; 2. ] in
  Alcotest.(check (list (float 1e-12))) "1..4" [ 1.25; 2.5; 3.75 ] [ q1; m; q3 ]

(* ---------------- aggregation and verdicts ---------------- *)

let round ?(failures = []) ?(failed = 0) values =
  { Round.attempted = 100; failed; failures; values; tail = None }

let test_median_of_rounds () =
  let u v sim = round [ ("host_ops_per_s", v); ("sim_op_cycles_p50", sim); ("tlb.misses_per_op", 9.) ] in
  let rounds =
    [
      (false, u 300. 7.);
      (true, round [ ("host_ops_per_s", 50.); ("tlb.misses_per_op", 2.) ]);
      (false, u 100. 7.);
      (true, round ~failed:1 ~failures:[ "x" ] [ ("host_ops_per_s", 100.); ("tlb.misses_per_op", 4.) ]);
      (false, u 200. 7.);
    ]
  in
  let r = Report.aggregate ~workload:"w" rounds in
  let m name = List.assoc name r.metrics in
  Alcotest.(check (float 0.)) "median over untraced rounds" 200. (m "host_ops_per_s").value;
  Alcotest.(check (float 0.)) "min" 100. (m "host_ops_per_s").lo;
  Alcotest.(check (float 0.)) "max" 300. (m "host_ops_per_s").hi;
  Alcotest.(check (float 0.)) "per-layer metrics from the traced rounds" 3.
    (m "tlb.misses_per_op").value;
  Alcotest.(check (float 1e-12)) "trace overhead = untraced / traced median" (200. /. 75.)
    (m "obs.trace_overhead").value;
  Alcotest.(check int) "attempted over every round" 500 r.attempted;
  Alcotest.(check (float 1e-12)) "error rate" (1. /. 500.) (m "error_rate").value;
  Alcotest.(check bool) "a failed check makes the run incorrect" false (Report.correct r)

let test_verdicts () =
  let v ?(better = Spec.Higher) ?(bound = 0.10) a b =
    Report.verdict_name (Report.verdict ~better ~bound a b)
  in
  let parent = List.init 10 (fun i -> 100. +. float_of_int (i mod 3)) in
  Alcotest.(check string) "10/10 wins beyond the parent's spread" "better"
    (v parent (List.map (fun x -> x *. 1.2) parent));
  Alcotest.(check string) "slightly lower, within the bound" "no worse"
    (v parent (List.map (fun x -> x *. 0.97) parent));
  Alcotest.(check string) "20 % lower" "worse" (v parent (List.map (fun x -> x *. 0.8) parent));
  Alcotest.(check string) "lower is better" "better"
    (v ~better:Spec.Lower parent (List.map (fun x -> x *. 0.8) parent));
  Alcotest.(check string) "too few pairs to claim a gain" "no worse"
    (v [ 100.; 101.; 102. ] [ 120.; 121.; 122. ]);
  let noisy = [ 60.; 140.; 70.; 130.; 100.; 90.; 110.; 80.; 120.; 100. ] in
  Alcotest.(check string) "spread wider than the bound" "unresolved"
    (v noisy (List.map (fun x -> x *. 0.95) noisy))

(* ---------------- simulated metrics ---------------- *)

let sim_values r =
  List.filter (fun (k, _) -> String.starts_with ~prefix:"sim_" k) r.Round.values

(* Simulated metrics depend on the seed only: not on tracing, and not
   on which round measured them. *)
let test_sim_identical () =
  List.iter
    (fun name ->
      let go traced =
        Workloads.round ~name ~size:Workloads.Smoke ~seed:2016 ~seconds:0. ~traced
          ~spans:(Spans.create ~enabled:traced ())
      in
      let a = go false and b = go false and c = go true in
      Alcotest.(check int) (name ^ ": three simulated metrics") 3 (List.length (sim_values a));
      Alcotest.(check (list (pair string (float 0.)))) (name ^ ": rerun") (sim_values a) (sim_values b);
      Alcotest.(check (list (pair string (float 0.)))) (name ^ ": traced") (sim_values a) (sim_values c))
    Spec.workloads

(* ---------------- BENCHMARK.json and the smoke run ---------------- *)

let benchmark_json = lazy (Json.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all))

let declared key =
  List.map
    (fun m ->
      let s k = Json.to_string_exn (Option.get (Json.member k m)) in
      (s "name", s "unit", s "better"))
    (Json.to_list (Option.get (Json.member key (Lazy.force benchmark_json))))

let test_spec_matches () =
  let mine l = List.map (fun (n, u, b, _) -> (n, u, Spec.better_name b)) l in
  let t3 = Alcotest.(list (triple string string string)) in
  Alcotest.check t3 "end_to_end" (mine Spec.end_to_end) (declared "end_to_end");
  Alcotest.check t3 "per_layer" (mine Spec.per_layer) (declared "per_layer");
  let bounds =
    List.map
      (fun m -> Json.to_float (Option.get (Json.member "bound" m)))
      (Json.to_list (Option.get (Json.member "end_to_end" (Lazy.force benchmark_json))))
  in
  Alcotest.(check (list (float 0.))) "bounds" (List.map (fun (_, _, _, b) -> b) Spec.end_to_end) bounds;
  Alcotest.(check (list string)) "workloads" Spec.workloads
    (List.map
       (fun w -> Json.to_string_exn (Option.get (Json.member "name" w)))
       (Json.to_list (Option.get (Json.member "workloads" (Lazy.force benchmark_json)))))

let run_smoke ~trace ~out =
  let args = [| "./sjbench.exe"; "--smoke"; "--trace"; (if trace then "1" else "0"); "--out"; out |] in
  let ic = Unix.open_process_args_in "./sjbench.exe" args in
  let lines = In_channel.input_lines ic in
  let status = Unix.close_process_in ic in
  Alcotest.(check bool) "exit status 0" true (status = Unix.WEXITED 0);
  Json.parse (List.nth lines (List.length lines - 1))

let test_smoke trace () =
  let out = if trace then "smoke-traced.json" else "smoke.json" in
  let line = run_smoke ~trace ~out in
  let get k = Option.get (Json.member k line) in
  Alcotest.(check bool) "every check passed" true (get "correct" = Json.Bool true);
  Alcotest.(check (float 0.)) "no failed ops" 0. (Json.to_float (get "failed"));
  Alcotest.(check bool) "ops attempted" true (Json.to_float (get "attempted") >= 1.);
  let key = if trace then "per_layer" else "end_to_end" in
  let metrics = get "metrics" in
  List.iter
    (fun w ->
      List.iter
        (fun (name, unit, _) ->
          match Json.member (w ^ "." ^ name) metrics with
          | None -> Alcotest.failf "%s: %s not printed" w name
          | Some m ->
            Alcotest.(check string) (w ^ "." ^ name ^ " unit") unit
              (Json.to_string_exn (Option.get (Json.member "unit" m)));
            ignore (Json.to_float (Option.get (Json.member "value" m))))
        (declared key))
    Spec.workloads;
  (* Each metric a workload exercises was measured, not filled in. *)
  let report = Json.parse (In_channel.with_open_bin out In_channel.input_all) in
  List.iter
    (fun w ->
      let w_json =
        List.find
          (fun x -> Json.member "workload" x = Some (Json.Str w))
          (Json.to_list (Option.get (Json.member "workloads" report)))
      in
      let measured = Option.get (Json.member "metrics" w_json) in
      let expected =
        if trace then
          List.filter_map (fun (n, _, _, ws) -> if List.mem w ws then Some n else None) Spec.per_layer
        else List.map (fun (n, _, _, _) -> n) Spec.end_to_end
      in
      List.iter
        (fun n -> if Json.member n measured = None then Alcotest.failf "%s: %s not measured" w n)
        expected)
    Spec.workloads;
  if trace then
    List.iter
      (fun w ->
        let json = In_channel.with_open_bin (Printf.sprintf "sjbench-trace-%s.json" w) In_channel.input_all in
        match Sj_obs.Trace.check_string json with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: chrome trace malformed: %s" w e)
      Spec.workloads

let () =
  Alcotest.run "sjbench"
    [
      ( "spans",
        [
          Alcotest.test_case "self time on a span tree" `Quick test_self_time;
          Alcotest.test_case "ring and chrome trace" `Quick test_ring_and_chrome;
        ] );
      ( "stats",
        [
          Alcotest.test_case "highest percentile with 10 beyond" `Quick test_tail_percentile;
          Alcotest.test_case "exact nearest-rank quantiles" `Quick test_exact_quantiles;
          Alcotest.test_case "log-linear histogram error bound" `Quick test_hist_error_bound;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
        ] );
      ( "report",
        [
          Alcotest.test_case "median of rounds" `Quick test_median_of_rounds;
          Alcotest.test_case "compare verdicts" `Quick test_verdicts;
        ] );
      ( "run",
        [
          Alcotest.test_case "simulated metrics ignore tracing" `Quick test_sim_identical;
          Alcotest.test_case "BENCHMARK.json matches the spec" `Quick test_spec_matches;
          Alcotest.test_case "smoke run, untraced" `Quick (test_smoke false);
          Alcotest.test_case "smoke run, traced" `Quick (test_smoke true);
        ] );
    ]
