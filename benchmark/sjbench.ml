(* sjbench: the repository's benchmark. See benchmark/README.md.

   The parent process only schedules: every (workload, round) runs in a
   child process of its own, one at a time, so each round starts from a
   fresh heap and its GC and heap numbers are its own. Rounds are
   interleaved round-robin across workloads and each metric is the
   median over rounds. *)

open Sjbench_kit

let usage =
  {|usage: sjbench [--workload NAME]... [--seed N] [--seconds S] [--rounds R]
               [--trace [0|1]] [--smoke] [--out FILE] [--trace-out FILE]
       sjbench --compare PARENT.json... -- CHANGE.json...

  --workload  switch | bulk | kv | fork | cluster (default: all five)
  --seed      input seed (default 2016)
  --seconds   host time measured per workload, split over the rounds
              (default 12; 0.05 with --smoke)
  --rounds    rounds per workload (default 3; 1 with --smoke)
  --trace     1: traced run, printing the per-layer metrics; half of each
              round's time runs untraced to measure the tracing overhead
  --smoke     small sizes, for the test suite
  --out       also write the full report (every round's spread) as JSON
  --trace-out Chrome trace of the last traced round
              (default sjbench-trace-WORKLOAD.json)
  --compare   judge CHANGE runs against PARENT runs (reports from --out)|}

type opts = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float option;
  mutable rounds : int option;
  mutable trace : bool;
  mutable smoke : bool;
  mutable out : string option;
  mutable trace_out : string option;
}

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("sjbench: " ^ s);
      prerr_endline usage;
      exit 2)
    fmt

let parse args =
  let o =
    {
      workloads = [];
      seed = 2016;
      seconds = None;
      rounds = None;
      trace = false;
      smoke = false;
      out = None;
      trace_out = None;
    }
  in
  let num conv flag v =
    match conv v with Some x -> x | None -> die "%s expects a number, got %S" flag v
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      if not (List.mem w Spec.workloads) then die "unknown workload %S" w;
      o.workloads <- o.workloads @ [ w ];
      go rest
    | "--seed" :: v :: rest ->
      o.seed <- num int_of_string_opt "--seed" v;
      go rest
    | "--seconds" :: v :: rest ->
      o.seconds <- Some (num float_of_string_opt "--seconds" v);
      go rest
    | "--rounds" :: v :: rest ->
      o.rounds <- Some (max 1 (num int_of_string_opt "--rounds" v));
      go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      o.trace <- v = "1";
      go rest
    | "--trace" :: rest ->
      o.trace <- true;
      go rest
    | "--smoke" :: rest ->
      o.smoke <- true;
      go rest
    | "--out" :: f :: rest ->
      o.out <- Some f;
      go rest
    | "--trace-out" :: f :: rest ->
      o.trace_out <- Some f;
      go rest
    | ("-h" | "--help") :: _ ->
      print_endline usage;
      exit 0
    | a :: _ -> die "unexpected argument %S" a
  in
  go args;
  o

(* ---------------- child processes ---------------- *)

let running = ref None

let stop_child () =
  match !running with
  | None -> ()
  | Some pid ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    running := None

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Run one round in a forked child; its result comes back marshalled
   over a pipe. *)
let in_child ~name ~size ~seed ~seconds ~traced ~trace_file : Round.t =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let result : (Round.t, string) result =
      try
        let spans = Spans.create ~enabled:traced () in
        let r = Workloads.round ~name ~size ~seed ~seconds ~traced ~spans in
        Option.iter (fun f -> write_file f (Spans.to_chrome_json spans)) trace_file;
        Ok r
      with e -> Error (Printexc.to_string e)
    in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc result [];
    close_out oc;
    Unix._exit 0
  | pid ->
    running := Some pid;
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let result =
      try (Marshal.from_channel ic : (Round.t, string) result)
      with End_of_file | Failure _ -> Error "the round's process died without a result"
    in
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    running := None;
    let failed why = { Round.attempted = 0; failed = 0; failures = [ why ]; values = []; tail = None } in
    match (result, status) with
    | Ok r, Unix.WEXITED 0 -> r
    | Error e, _ -> failed (Printf.sprintf "%s: %s" name e)
    | Ok _, _ -> failed (Printf.sprintf "%s: the round's process exited abnormally" name)

let run_benchmark o =
  let size = if o.smoke then Workloads.Smoke else Workloads.Full in
  let workloads = if o.workloads = [] then Spec.workloads else o.workloads in
  let rounds = Option.value o.rounds ~default:(if o.smoke then 1 else 3) in
  let seconds = Option.value o.seconds ~default:(if o.smoke then 0.05 else 12.) in
  let per_child = seconds /. float_of_int (if o.trace then 2 * rounds else rounds) in
  let trace_file w =
    Option.value o.trace_out ~default:(Printf.sprintf "sjbench-trace-%s.json" w)
  in
  let done_rounds = Hashtbl.create 8 in
  Round.Speed.prepare ();
  for round = 1 to rounds do
    List.iter
      (fun w ->
        List.iter
          (fun traced ->
            let trace_file = if traced && round = rounds then Some (trace_file w) else None in
            let r =
              in_child ~name:w ~size ~seed:o.seed ~seconds:per_child ~traced ~trace_file
            in
            Hashtbl.add done_rounds w (traced, r))
          (if o.trace then [ false; true ] else [ false ]))
      workloads
  done;
  let results =
    List.map
      (fun w -> Report.aggregate ~workload:w (List.rev (Hashtbl.find_all done_rounds w)))
      workloads
  in
  List.iter (Report.print_table stdout) results;
  Option.iter
    (fun f ->
      write_file f
        (Json.to_string
           (Report.report_json ~seed:o.seed ~rounds ~seconds ~trace:o.trace results)
        ^ "\n"))
    o.out;
  print_endline (Report.result_line ~trace:o.trace results);
  exit (if List.for_all Report.correct results then 0 else 1)

let () =
  let on_signal _ =
    stop_child ();
    exit 130
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  match List.tl (Array.to_list Sys.argv) with
  | "--compare" :: rest ->
    let rec split acc = function
      | "--" :: change -> (List.rev acc, change)
      | f :: more -> split (f :: acc) more
      | [] -> die "--compare needs PARENT files, then --, then CHANGE files"
    in
    let parent, change = split [] rest in
    if parent = [] || change = [] then die "--compare needs files on both sides of --";
    let worse = Report.compare stdout ~parent ~change in
    exit (if worse > 0 then 1 else 0)
  | args -> run_benchmark (parse args)
