(* Tests for simulated physical memory. *)
open Sj_util
module Pm = Sj_mem.Phys_mem

let mk () = Pm.create ~size:(Size.mib 4) ~numa_nodes:2

let test_create () =
  let m = mk () in
  Alcotest.(check int) "size" (Size.mib 4) (Pm.size m);
  Alcotest.(check int) "frames" 1024 (Pm.frames_total m);
  Alcotest.(check int) "none allocated" 0 (Pm.frames_allocated m)

let test_alloc_free () =
  let m = mk () in
  let f = Pm.alloc_frame m in
  Alcotest.(check bool) "allocated" true (Pm.is_allocated m f);
  Alcotest.(check int) "count" 1 (Pm.frames_allocated m);
  Pm.free_frame m f;
  Alcotest.(check bool) "freed" false (Pm.is_allocated m f);
  Alcotest.(check int) "count back to zero" 0 (Pm.frames_allocated m)

let test_double_free () =
  let m = mk () in
  let f = Pm.alloc_frame m in
  Pm.free_frame m f;
  Alcotest.check_raises "double free"
    (Invalid_argument "Phys_mem.free_frame: frame not allocated") (fun () -> Pm.free_frame m f)

let test_frame_reuse () =
  let m = mk () in
  let f1 = Pm.alloc_frame m in
  Pm.free_frame m f1;
  let f2 = Pm.alloc_frame m in
  Alcotest.(check int) "freed frame reused" (f1 :> int) (f2 :> int)

let test_numa_placement () =
  let m = mk () in
  let f0 = Pm.alloc_frame ~node:0 m in
  let f1 = Pm.alloc_frame ~node:1 m in
  Alcotest.(check int) "node 0" 0 (Pm.node_of_frame m f0);
  Alcotest.(check int) "node 1" 1 (Pm.node_of_frame m f1)

let test_numa_fallback () =
  (* Tiny memory: exhaust node 0, allocation spills to node 1. *)
  let m = Pm.create ~size:(Size.kib 16) ~numa_nodes:2 in
  let _ = Pm.alloc_frame ~node:0 m in
  let _ = Pm.alloc_frame ~node:0 m in
  let f = Pm.alloc_frame ~node:0 m in
  Alcotest.(check int) "spilled to node 1" 1 (Pm.node_of_frame m f)

let test_out_of_memory () =
  let m = Pm.create ~size:(Size.kib 8) ~numa_nodes:1 in
  let _ = Pm.alloc_frame m and _ = Pm.alloc_frame m in
  Alcotest.check_raises "oom" Pm.Out_of_memory (fun () -> ignore (Pm.alloc_frame m))

let test_zero_on_alloc () =
  let m = mk () in
  let f = Pm.alloc_frame m in
  let pa = Pm.base_of_frame f in
  Alcotest.(check int) "reads zero" 0 (Pm.read8 m ~pa);
  Alcotest.(check int64) "reads zero 64" 0L (Pm.read64 m ~pa)

let test_rw_roundtrip () =
  let m = mk () in
  let f = Pm.alloc_frame m in
  let pa = Pm.base_of_frame f in
  Pm.write8 m ~pa 0xAB;
  Alcotest.(check int) "byte" 0xAB (Pm.read8 m ~pa);
  Pm.write64 m ~pa:(pa + 8) 0x1122334455667788L;
  Alcotest.(check int64) "word" 0x1122334455667788L (Pm.read64 m ~pa:(pa + 8))

let test_cross_frame_access () =
  let m = mk () in
  (* Two consecutive frames from the bump allocator are physically adjacent. *)
  let f1 = Pm.alloc_frame m in
  let f2 = Pm.alloc_frame m in
  Alcotest.(check int) "adjacent" ((f1 :> int) + 1) (f2 :> int);
  let pa = Pm.base_of_frame f1 + Addr.page_size - 4 in
  Pm.write64 m ~pa 0x0102030405060708L;
  Alcotest.(check int64) "straddling word" 0x0102030405060708L (Pm.read64 m ~pa);
  let data = Bytes.of_string "hello, spacejmp!" in
  Pm.write_bytes m ~pa data;
  Alcotest.(check string) "straddling bytes" "hello, spacejmp!"
    (Bytes.to_string (Pm.read_bytes m ~pa ~len:(Bytes.length data)))

let test_unallocated_access_rejected () =
  let m = mk () in
  Alcotest.(check_raises) "read unallocated"
    (Invalid_argument "Phys_mem.read8: access to unallocated frame 100") (fun () ->
      ignore (Pm.read8 m ~pa:(100 * Addr.page_size)))

let test_zero_frame () =
  let m = mk () in
  let f = Pm.alloc_frame m in
  let pa = Pm.base_of_frame f in
  Pm.write8 m ~pa 1;
  Pm.zero_frame m f;
  Alcotest.(check int) "zeroed" 0 (Pm.read8 m ~pa)

(* Freed frames come back last-freed-first, per node, with the frames
   an aligned contiguous allocation skips queued in ascending order
   (so the highest skipped frame comes back first). Frame numbers feed
   simulated addresses and cycles, so the order is pinned literally. *)
let test_free_list_order () =
  let m = Pm.create ~size:(Size.mib 8) ~numa_nodes:2 in
  let got = ref [] in
  let take (f : Pm.frame) =
    got := (f :> int) :: !got;
    f
  in
  let alloc ?node () = take (Pm.alloc_frame ?node m) in
  let contiguous ?node ?align n =
    Array.iter (fun f -> ignore (take f)) (Pm.alloc_frames_contiguous ?node ?align m ~n)
  in
  let a = Pm.alloc_frames m ~n:5 in
  Array.iter (fun f -> ignore (take f)) a;
  Pm.free_frame m a.(1);
  Pm.free_frame m a.(3);
  ignore (alloc ());
  ignore (alloc ());
  contiguous ~align:512 4;
  let f511 = alloc () in
  ignore (alloc ());
  Pm.free_frame m a.(0);
  Pm.free_frame m f511;
  ignore (alloc ~node:1 ());
  ignore (alloc ());
  ignore (alloc ());
  ignore (alloc ());
  contiguous ~node:1 ~align:8 3;
  let g = alloc ~node:1 () in
  Pm.free_frame m g;
  Pm.free_frame m a.(2);
  ignore (alloc ~node:1 ());
  ignore (alloc ());
  ignore (alloc ~node:1 ());
  Alcotest.(check (list int)) "frame numbers"
    [ 0; 1; 2; 3; 4; 3; 1; 512; 513; 514; 515; 511; 510; 1024; 511; 0; 509; 1032; 1033; 1034;
      1031; 1031; 2; 1030 ]
    (List.rev !got)

let test_owner_counts () =
  let m = mk () in
  let f = Pm.alloc_frame m in
  Alcotest.(check int) "one owner" 1 (Pm.frame_refs m f);
  for _ = 1 to 299 do Pm.share_frame m f done;
  Alcotest.(check int) "past one byte" 300 (Pm.frame_refs m f);
  Alcotest.check_raises "shared frame cannot be freed outright"
    (Invalid_argument (Printf.sprintf "Phys_mem.free_frame: frame %d has 300 owners" (f :> int)))
    (fun () -> Pm.free_frame m f);
  for _ = 1 to 299 do Pm.release_frame m f done;
  Alcotest.(check int) "back to one" 1 (Pm.frame_refs m f);
  Alcotest.(check int) "still allocated" 1 (Pm.frames_allocated m);
  Pm.release_frame m f;
  Alcotest.(check bool) "last release frees" false (Pm.is_allocated m f);
  Alcotest.(check int) "free" 0 (Pm.frame_refs m f);
  Alcotest.check_raises "release of a free frame"
    (Invalid_argument "Phys_mem.release_frame: frame not allocated") (fun () -> Pm.release_frame m f)

let test_copy_frame () =
  let m = mk () in
  let src = Pm.alloc_frame m and dst = Pm.alloc_frame m in
  Pm.write64 m ~pa:(Pm.base_of_frame dst + 8) 7L;
  Pm.copy_frame m ~src ~dst;
  Alcotest.(check int64) "blank source copies as zeroes" 0L (Pm.read64 m ~pa:(Pm.base_of_frame dst + 8));
  Pm.write64 m ~pa:(Pm.base_of_frame src + 16) 0x1234L;
  Pm.copy_frame m ~src ~dst;
  Alcotest.(check int64) "contents copied" 0x1234L (Pm.read64 m ~pa:(Pm.base_of_frame dst + 16));
  Pm.write64 m ~pa:(Pm.base_of_frame src + 16) 1L;
  Alcotest.(check int64) "copy is independent" 0x1234L (Pm.read64 m ~pa:(Pm.base_of_frame dst + 16))

let prop_rw_roundtrip =
  QCheck.Test.make ~name:"write64/read64 roundtrip at random offsets" ~count:300
    QCheck.(pair (int_bound (Size.mib 4 - 8)) int64)
    (fun (off, v) ->
      let m = Pm.create ~size:(Size.mib 4) ~numa_nodes:1 in
      let _ = Pm.alloc_frames m ~n:1024 in
      Pm.write64 m ~pa:off v;
      Pm.read64 m ~pa:off = v)

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"write_bytes/read_bytes roundtrip" ~count:200
    QCheck.(pair (int_bound (Size.kib 64)) string)
    (fun (off, s) ->
      QCheck.assume (String.length s > 0);
      let m = Pm.create ~size:(Size.kib 128) ~numa_nodes:1 in
      let _ = Pm.alloc_frames m ~n:32 in
      let off = off mod (Size.kib 128 - String.length s) in
      Pm.write_bytes m ~pa:off (Bytes.of_string s);
      Bytes.to_string (Pm.read_bytes m ~pa:off ~len:(String.length s)) = s)

let suite =
  [
    Alcotest.test_case "create" `Quick test_create;
    Alcotest.test_case "alloc/free" `Quick test_alloc_free;
    Alcotest.test_case "double free detected" `Quick test_double_free;
    Alcotest.test_case "frame reuse" `Quick test_frame_reuse;
    Alcotest.test_case "NUMA placement" `Quick test_numa_placement;
    Alcotest.test_case "NUMA fallback" `Quick test_numa_fallback;
    Alcotest.test_case "out of memory" `Quick test_out_of_memory;
    Alcotest.test_case "zero on alloc" `Quick test_zero_on_alloc;
    Alcotest.test_case "read/write roundtrip" `Quick test_rw_roundtrip;
    Alcotest.test_case "cross-frame access" `Quick test_cross_frame_access;
    Alcotest.test_case "unallocated access rejected" `Quick test_unallocated_access_rejected;
    Alcotest.test_case "zero_frame" `Quick test_zero_frame;
    QCheck_alcotest.to_alcotest prop_rw_roundtrip;
    QCheck_alcotest.to_alcotest prop_bytes_roundtrip;
    Alcotest.test_case "free-list order pinned" `Quick test_free_list_order;
    Alcotest.test_case "owner counts" `Quick test_owner_counts;
    Alcotest.test_case "copy_frame" `Quick test_copy_frame;
  ]
