(* Turning rounds into results: the median over rounds of every metric,
   the human-readable table, the one-line result the last line of
   output carries, the --out report, and the --compare verdicts. *)

type metric = { value : float; lo : float; hi : float; unit : string }

type result = {
  workload : string;
  attempted : int;
  failed : int;
  failures : string list;
  metrics : (string * metric) list;  (** declared metrics only, in declaration order *)
  rounds : (bool * Round.t) list;  (** (traced, round), in the order run *)
}

let correct r = r.failed = 0 && r.failures = []

let declared =
  List.map (fun (n, u, _, _) -> (n, u, `End_to_end)) Spec.end_to_end
  @ List.map (fun (n, u, _, _) -> (n, u, `Per_layer)) Spec.per_layer
  @ (let n, u, _ = Spec.error_rate in
     [ (n, u, `End_to_end) ])

let summarize unit values =
  match values with
  | [] -> None
  | _ ->
    Some
      {
        value = Stats.median values;
        lo = List.fold_left Float.min Float.infinity values;
        hi = List.fold_left Float.max Float.neg_infinity values;
        unit;
      }

(* End-to-end metrics come from the untraced rounds only; per-layer
   metrics from the traced rounds when there are any. *)
let aggregate ~workload rounds =
  let untraced = List.filter_map (fun (tr, r) -> if tr then None else Some r) rounds in
  let traced = List.filter_map (fun (tr, r) -> if tr then Some r else None) rounds in
  let values_of rs name = List.filter_map (fun (r : Round.t) -> List.assoc_opt name r.values) rs in
  let all = List.map snd rounds in
  let attempted = List.fold_left (fun a (r : Round.t) -> a + r.attempted) 0 all in
  let failed = List.fold_left (fun a (r : Round.t) -> a + r.failed) 0 all in
  let failures = List.sort_uniq compare (List.concat_map (fun (r : Round.t) -> r.failures) all) in
  let extra =
    [
      ("error_rate", [ float_of_int failed /. float_of_int (max 1 attempted) ]);
      ( "obs.trace_overhead",
        match (values_of untraced "host_ops_per_s", values_of traced "host_ops_per_s") with
        | (_ :: _ as u), (_ :: _ as t) -> [ Stats.median u /. Stats.median t ]
        | _ -> [] );
    ]
  in
  let metrics =
    List.filter_map
      (fun (name, unit, kind) ->
        let values =
          match List.assoc_opt name extra with
          | Some v -> v
          | None -> (
            match kind with
            | `Per_layer when traced <> [] -> values_of traced name
            | _ -> values_of untraced name)
        in
        Option.map (fun m -> (name, m)) (summarize unit values))
      declared
  in
  { workload; attempted; failed; failures; metrics; rounds }

(* ---------------- output ---------------- *)

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 100. then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.4g" v

let print_table oc r =
  Printf.fprintf oc "== %s: %d ops attempted, %d failed, checks %s\n" r.workload r.attempted
    r.failed
    (if correct r then "passed" else "FAILED");
  List.iter (fun f -> Printf.fprintf oc "   check failed: %s\n" f) r.failures;
  List.iteri
    (fun i (traced, (rd : Round.t)) ->
      Printf.fprintf oc "   round %d%s: %d ops, %s ops/s%s\n" (i + 1)
        (if traced then " (traced)" else "")
        rd.attempted
        (fmt_value (Option.value ~default:nan (List.assoc_opt "host_ops_per_s" rd.values)))
        (match rd.tail with
        | Some (p, us) -> Printf.sprintf ", host op p%g %s us" p (fmt_value us)
        | None -> ""))
    r.rounds;
  List.iter
    (fun (name, m) ->
      Printf.fprintf oc "   %-42s %14s %-10s [%s .. %s]\n" name (fmt_value m.value) m.unit
        (fmt_value m.lo) (fmt_value m.hi))
    r.metrics

let metric_json m = Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ]

(* The result line: exactly the end-to-end metrics (untraced
   run) or exactly the per-layer ones (traced run); a metric the
   workload does not exercise reads 0. *)
let result_line ~trace results =
  let names =
    if trace then List.map (fun (n, u, _, _) -> (n, u)) Spec.per_layer
    else List.map (fun (n, u, _, _) -> (n, u)) Spec.end_to_end
  in
  let single = match results with [ _ ] -> true | _ -> false in
  let metrics =
    List.concat_map
      (fun r ->
        List.map
          (fun (n, u) ->
            let m =
              match List.assoc_opt n r.metrics with
              | Some m -> m
              | None -> { value = 0.; lo = 0.; hi = 0.; unit = u }
            in
            ((if single then n else r.workload ^ "." ^ n), metric_json m))
          names)
      results
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (List.for_all correct results));
         ("attempted", Json.Num (float_of_int (List.fold_left (fun a r -> a + r.attempted) 0 results)));
         ("failed", Json.Num (float_of_int (List.fold_left (fun a r -> a + r.failed) 0 results)));
         ("metrics", Json.Obj metrics);
       ])

let report_json ~seed ~rounds ~seconds ~trace results =
  Json.Obj
    [
      ("seed", Json.Num (float_of_int seed));
      ("rounds", Json.Num (float_of_int rounds));
      ("seconds", Json.Num seconds);
      ("trace", Json.Bool trace);
      ( "workloads",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("workload", Json.Str r.workload);
                   ("correct", Json.Bool (correct r));
                   ("attempted", Json.Num (float_of_int r.attempted));
                   ("failed", Json.Num (float_of_int r.failed));
                   ("failures", Json.Arr (List.map (fun s -> Json.Str s) r.failures));
                   ( "metrics",
                     Json.Obj
                       (List.map
                          (fun (n, m) ->
                            ( n,
                              Json.Obj
                                [
                                  ("value", Json.Num m.value);
                                  ("unit", Json.Str m.unit);
                                  ("min", Json.Num m.lo);
                                  ("max", Json.Num m.hi);
                                ] ))
                          r.metrics) );
                 ])
             results) );
    ]

(* ---------------- comparing commits ----------------

   The rule of the choosing-metrics guide, section 8: a change is
   "better" only with at least ten pairs of runs, winning at least nine
   tenths of them, and medians further apart than the parent's
   interquartile range. Otherwise it is "no worse" when its median is
   within the bound, "worse" beyond it, and "unresolved" when the
   run-to-run spread is wider than the bound — unless every run of the
   change beats every run of the parent. *)

type verdict = Better | No_worse | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | No_worse -> "no worse"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let verdict ~better ~bound parent change =
  let beats x y = match better with Spec.Higher -> x > y | Spec.Lower -> x < y in
  let q1a, ma, q3a = Stats.quartiles parent and q1b, mb, q3b = Stats.quartiles change in
  let gain = match better with Spec.Higher -> (mb -. ma) /. ma | Spec.Lower -> (ma -. mb) /. ma in
  let spread =
    Float.max ((q3a -. q1a) /. Float.abs ma) ((q3b -. q1b) /. Float.abs mb)
  in
  let pairs = min (List.length parent) (List.length change) in
  let wins =
    List.fold_left2
      (fun acc a b -> if beats b a then acc + 1 else acc)
      0
      (List.filteri (fun i _ -> i < pairs) parent)
      (List.filteri (fun i _ -> i < pairs) change)
  in
  let every_run_better = List.for_all (fun b -> List.for_all (fun a -> beats b a) parent) change in
  if pairs >= 10 && wins * 10 >= pairs * 9 && gain > 0. && Float.abs (mb -. ma) > q3a -. q1a
  then Better
  else if spread > bound && not every_run_better then Unresolved
  else if -.gain > bound then Worse
  else No_worse

let load_report path =
  let ic = open_in_bin path in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  match Json.member "workloads" (Json.parse s) with
  | Some (Json.Arr ws) ->
    List.map
      (fun w ->
        let name = Json.to_string_exn (Option.get (Json.member "workload" w)) in
        let metrics =
          match Json.member "metrics" w with
          | Some (Json.Obj kv) ->
            List.filter_map
              (fun (k, v) -> Option.map (fun x -> (k, Json.to_float x)) (Json.member "value" v))
              kv
          | _ -> []
        in
        (name, metrics))
      ws
  | _ -> raise (Json.Parse_error (path ^ ": not an sjbench report (no \"workloads\")"))

(* Prints one row per workload x end-to-end metric; returns the number
   of rows judged worse. *)
let compare oc ~parent ~change =
  let parent = List.map load_report parent and change = List.map load_report change in
  let values reports w name =
    List.filter_map
      (fun rep -> Option.bind (List.assoc_opt w rep) (List.assoc_opt name))
      reports
  in
  let workloads =
    match parent with first :: _ -> List.map fst first | [] -> []
  in
  Printf.fprintf oc "%-8s %-20s %28s %28s %8s  %s\n" "workload" "metric"
    (Printf.sprintf "parent median [q1, q3] (n=%d)" (List.length parent))
    (Printf.sprintf "change median [q1, q3] (n=%d)" (List.length change))
    "change" "verdict";
  List.fold_left
    (fun worse w ->
      List.fold_left
        (fun worse (name, _, better, bound) ->
          match (values parent w name, values change w name) with
          | [], _ | _, [] -> worse
          | a, b ->
            let q1a, ma, q3a = Stats.quartiles a and q1b, mb, q3b = Stats.quartiles b in
            let v = verdict ~better ~bound a b in
            Printf.fprintf oc "%-8s %-20s %28s %28s %+7.2f%%  %s (bound %g%%)\n" w name
              (Printf.sprintf "%s [%s, %s]" (fmt_value ma) (fmt_value q1a) (fmt_value q3a))
              (Printf.sprintf "%s [%s, %s]" (fmt_value mb) (fmt_value q1b) (fmt_value q3b))
              ((mb -. ma) /. ma *. 100.)
              (verdict_name v) (bound *. 100.);
            if v = Worse then worse + 1 else worse)
        worse Spec.end_to_end)
    0 workloads
