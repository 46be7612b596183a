(* The traced run's span recorder.

   The benchmark brackets every call it makes into a layer with
   [enter]/[leave]; spans nest like the calls do, and every span of one
   operation carries that operation's id. For each span name the
   recorder keeps, online, the count, total and self host time, and a
   log-linear histogram of host durations and of the simulated cycles
   the call charged. Self time is a span's duration minus the part of it
   its child spans cover. The last [capacity] completed spans stay in a
   ring and are written out as a Chrome trace at the end of the run.

   A disabled recorder (the untraced run) costs one branch per call. *)

module Hist = Stats.Hist

type agg = {
  mutable count : int;
  mutable total_ns : int;
  mutable self_ns : int;
  host : Hist.t;
  mutable sim_total : int;
  sim : Hist.t;
}

type summary = {
  calls : int;
  total_ns : int;
  self_ns : int;
  host_ns_p50 : float;
  host_ns_p99 : float;
  sim_cycles_total : int;
  sim_cycles_p50 : float;
  sim_cycles_p99 : float;
}

let max_depth = 32
let default_capacity = 65_536

type t = {
  enabled : bool;
  clock : unit -> int;
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable aggs : agg array;
  (* open spans, innermost at [depth - 1] *)
  st_id : int array;
  st_start : int array;
  st_cyc : int array;
  st_child : int array;
  st_seq : int array;
  mutable depth : int;
  mutable seq : int;
  mutable op : int;
  (* ring of completed spans *)
  capacity : int;
  r_id : int array;
  r_start : int array;
  r_dur : int array;
  r_self : int array;
  r_seq : int array;
  r_parent : int array;
  r_op : int array;
  mutable r_len : int;
  mutable r_next : int;
}

let monotonic_ns () = Int64.to_int (Monotonic_clock.now ())

let create ?(clock = monotonic_ns) ?(capacity = default_capacity) ~enabled () =
  let ring = if enabled then capacity else 0 in
  {
    enabled;
    clock;
    ids = Hashtbl.create 16;
    names = [||];
    aggs = [||];
    st_id = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_cyc = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_seq = Array.make max_depth 0;
    depth = 0;
    seq = 0;
    op = 0;
    capacity = ring;
    r_id = Array.make ring 0;
    r_start = Array.make ring 0;
    r_dur = Array.make ring 0;
    r_self = Array.make ring 0;
    r_seq = Array.make ring 0;
    r_parent = Array.make ring 0;
    r_op = Array.make ring 0;
    r_len = 0;
    r_next = 0;
  }

(* Intern a span name; done at set-up, so the hot path passes ints. *)
let id t name =
  match Hashtbl.find_opt t.ids name with
  | Some i -> i
  | None ->
    let i = Array.length t.names in
    Hashtbl.replace t.ids name i;
    t.names <- Array.append t.names [| name |];
    t.aggs <-
      Array.append t.aggs
        [|
          {
            count = 0;
            total_ns = 0;
            self_ns = 0;
            host = Hist.create ();
            sim_total = 0;
            sim = Hist.create ();
          };
        |];
    i

let set_op t op = t.op <- op

let enter t id ~cyc =
  if t.enabled then begin
    let d = t.depth in
    if d >= max_depth then invalid_arg "Spans.enter: nesting too deep";
    t.st_id.(d) <- id;
    t.st_cyc.(d) <- cyc;
    t.st_child.(d) <- 0;
    t.st_seq.(d) <- t.seq;
    t.seq <- t.seq + 1;
    t.depth <- d + 1;
    t.st_start.(d) <- t.clock ()
  end

let leave t ~cyc =
  if t.enabled then begin
    let now = t.clock () in
    let d = t.depth - 1 in
    if d < 0 then invalid_arg "Spans.leave: no open span";
    t.depth <- d;
    let id = t.st_id.(d) and start = t.st_start.(d) in
    let dur = now - start in
    let self = dur - t.st_child.(d) in
    let parent = if d > 0 then t.st_seq.(d - 1) else -1 in
    if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
    let a = t.aggs.(id) in
    a.count <- a.count + 1;
    a.total_ns <- a.total_ns + dur;
    a.self_ns <- a.self_ns + self;
    Hist.add a.host dur;
    let sim = cyc - t.st_cyc.(d) in
    a.sim_total <- a.sim_total + sim;
    Hist.add a.sim sim;
    let k = t.r_next in
    t.r_id.(k) <- id;
    t.r_start.(k) <- start;
    t.r_dur.(k) <- dur;
    t.r_self.(k) <- self;
    t.r_seq.(k) <- t.st_seq.(d);
    t.r_parent.(k) <- parent;
    t.r_op.(k) <- t.op;
    t.r_next <- (if k + 1 = t.capacity then 0 else k + 1);
    if t.r_len < t.capacity then t.r_len <- t.r_len + 1
  end

let summary t name =
  match Hashtbl.find_opt t.ids name with
  | None -> None
  | Some i ->
    let a = t.aggs.(i) in
    if a.count = 0 then None
    else
      Some
        {
          calls = a.count;
          total_ns = a.total_ns;
          self_ns = a.self_ns;
          host_ns_p50 = Hist.quantile a.host 0.50;
          host_ns_p99 = Hist.quantile a.host 0.99;
          sim_cycles_total = a.sim_total;
          sim_cycles_p50 = Hist.quantile a.sim 0.50;
          sim_cycles_p99 = Hist.quantile a.sim 0.99;
        }

(* Completed-span counts per name, as cumulative counters; none when
   the recorder is disabled. *)
let counts t =
  if not t.enabled then []
  else Array.to_list (Array.mapi (fun i name -> (name ^ ".calls", t.aggs.(i).count)) t.names)

(* Chrome trace-event JSON ("X" complete events, microseconds from the
   first retained span), oldest span first. *)
let to_chrome_json t =
  let b = Buffer.create (t.r_len * 96) in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = if t.r_len < t.capacity then 0 else t.r_next in
  let t0 = ref max_int in
  for j = 0 to t.r_len - 1 do
    t0 := min !t0 t.r_start.((first + j) mod t.capacity)
  done;
  for j = 0 to t.r_len - 1 do
    let k = (first + j) mod t.capacity in
    if j > 0 then Buffer.add_char b ',';
    Printf.bprintf b
      "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"op\":%d,\"self_us\":%.3f}}"
      (Json.escape t.names.(t.r_id.(k)))
      (float_of_int (t.r_start.(k) - !t0) /. 1e3)
      (float_of_int t.r_dur.(k) /. 1e3)
      t.r_seq.(k) t.r_parent.(k) t.r_op.(k)
      (float_of_int t.r_self.(k) /. 1e3)
  done;
  Buffer.add_string b "],\"displayTimeUnit\":\"ns\"}";
  Buffer.contents b
