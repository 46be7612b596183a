(* Order statistics for the benchmark: exact quantiles over recorded
   samples, the median and quartiles across runs, and the log-linear
   histogram the span recorder keeps. *)

module A1 = Bigarray.Array1

(* ---------------- exact quantiles over recorded samples ----------------

   Samples live outside the OCaml heap so that recording millions of
   per-op timings neither allocates minor words inside the measured
   loop nor inflates the heap-peak metric. *)

module Samples = struct
  type t = { mutable data : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t; mutable len : int }

  let create capacity =
    { data = A1.create Bigarray.int Bigarray.c_layout (max 16 capacity); len = 0 }

  let length t = t.len

  let add t v =
    if t.len = A1.dim t.data then begin
      let bigger = A1.create Bigarray.int Bigarray.c_layout (2 * t.len) in
      A1.blit t.data (A1.sub bigger 0 t.len);
      t.data <- bigger
    end;
    A1.unsafe_set t.data t.len v;
    t.len <- t.len + 1

  let sum t =
    let s = ref 0 in
    for i = 0 to t.len - 1 do
      s := !s + A1.unsafe_get t.data i
    done;
    !s

  (* Hoare selection over positions [first, len): afterwards position
     [k] holds the value it would hold if that range were sorted.
     Expected linear time. *)
  let select t ~first k =
    let a = t.data in
    let swap i j =
      let x = A1.unsafe_get a i in
      A1.unsafe_set a i (A1.unsafe_get a j);
      A1.unsafe_set a j x
    in
    let lo = ref first and hi = ref (t.len - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      (* median of three as the pivot, so sorted input stays linear *)
      if A1.unsafe_get a mid < A1.unsafe_get a !lo then swap mid !lo;
      if A1.unsafe_get a !hi < A1.unsafe_get a !lo then swap !hi !lo;
      if A1.unsafe_get a !hi < A1.unsafe_get a mid then swap !hi mid;
      let pivot = A1.unsafe_get a mid in
      let i = ref !lo and j = ref !hi in
      while !i <= !j do
        while A1.unsafe_get a !i < pivot do incr i done;
        while A1.unsafe_get a !j > pivot do decr j done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      if k <= !j then hi := !j else if k >= !i then lo := !i else lo := !hi
    done;
    A1.get a k

  (* Nearest-rank quantile of the samples from position [first] on: the
     smallest with at least a share [q] of them at or below it.
     Reorders those samples. *)
  let quantile ?(first = 0) t q =
    let n = t.len - first in
    if n <= 0 then 0
    else
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      select t ~first (first + max 0 (min (n - 1) (rank - 1)))
end

(* ---------------- summaries across rounds and runs ---------------- *)

let sorted l = List.sort compare l

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list (sorted l) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First quartile, median and third quartile, computed exactly as
   Python's [statistics.quantiles(values, n=4)] (its default
   "exclusive" method), so spreads printed here match the ones an
   external check computes from the same values. *)
let quartiles l =
  match sorted l with
  | [] -> (nan, nan, nan)
  | [ x ] -> (x, x, x)
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (cut 1, cut 2, cut 3)

(* The highest reported percentile that still has at least ten samples
   above it: with fewer, a "p99" is one or two outliers, not a tail. *)
let tail_percentile ~n =
  List.find_opt
    (fun p -> float_of_int n *. (1. -. (p /. 100.)) >= 10.)
    [ 99.99; 99.9; 99.; 90.; 50. ]

(* ---------------- log-linear histogram ----------------

   64 linear sub-buckets per power of two: values below 64 are exact,
   larger ones land in a bucket whose width is at most 1/64 of its lower
   edge, so a quantile read back is within 1.6 % of a recorded value.
   Fixed size, allocation-free on [add]. *)

module Hist = struct
  let sub_bits = 6
  let sub = 1 lsl sub_bits
  let buckets = sub + ((Sys.int_size - sub_bits) * sub)

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make buckets 0; n = 0 }

  let rec msb v acc = if v > 1 then msb (v lsr 1) (acc + 1) else acc

  let index v =
    if v < sub then max v 0
    else
      let e = msb v 0 in
      sub + ((e - sub_bits) * sub) + ((v lsr (e - sub_bits)) land (sub - 1))

  (* [lo, lo + width) of bucket [b]. *)
  let range b =
    if b < sub then (b, 1)
    else
      let e = ((b - sub) / sub) + sub_bits and s = (b - sub) mod sub in
      ((sub + s) lsl (e - sub_bits), 1 lsl (e - sub_bits))

  let add t v =
    let b = index v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1

  (* Interpolated inside the bucket holding rank [q * n], so the value
     moves with the recorded distribution rather than snapping to a
     bucket edge. *)
  let quantile t q =
    if t.n = 0 then 0.
    else
      let target = q *. float_of_int t.n in
      let rec go b cum =
        let c = t.counts.(b) in
        if c > 0 && (float_of_int (cum + c) >= target || b = buckets - 1) then
          let lo, width = range b in
          let within = Float.max 0. (target -. float_of_int cum) /. float_of_int c in
          float_of_int lo +. (float_of_int width *. Float.min 1. within)
        else if b = buckets - 1 then 0.
        else go (b + 1) (cum + c)
      in
      go 0 0
end
