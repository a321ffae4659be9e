(* Tests for the cache simulator, hierarchy, machines, and cost model. *)

open Vc_mem

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_cache () =
  (* 4 sets x 2 ways x 64B lines = 512 B *)
  Cache.create { Cache.size_bytes = 512; ways = 2; line_bytes = 64 }

let test_cache_config_errors () =
  Alcotest.check_raises "zero size" (Invalid_argument "Cache.create: sizes must be positive")
    (fun () -> ignore (Cache.create { Cache.size_bytes = 0; ways = 1; line_bytes = 64 }));
  Alcotest.check_raises "non-pow2 sets"
    (Invalid_argument "Cache.create: set count 3 not a power of two") (fun () ->
      ignore (Cache.create { Cache.size_bytes = 3 * 64; ways = 1; line_bytes = 64 }))

let test_cache_hits_and_misses () =
  let c = small_cache () in
  check_bool "cold miss" false (Cache.access c ~addr:0);
  check_bool "warm hit" true (Cache.access c ~addr:0);
  check_bool "same line hit" true (Cache.access c ~addr:63);
  check_bool "next line miss" false (Cache.access c ~addr:64);
  check_int "accesses" 4 (Cache.accesses c);
  check_int "misses" 2 (Cache.misses c);
  Alcotest.(check (float 1e-9)) "miss rate" 0.5 (Cache.miss_rate c)

let test_cache_lru_eviction () =
  let c = small_cache () in
  (* set stride = 4 sets * 64 = 256B; these three lines map to set 0 *)
  ignore (Cache.access c ~addr:0);
  ignore (Cache.access c ~addr:256);
  ignore (Cache.access c ~addr:0);
  (* touch 0 again: 256 is now LRU *)
  ignore (Cache.access c ~addr:512);
  (* evicts 256 *)
  check_bool "0 still resident" true (Cache.access c ~addr:0);
  check_bool "256 evicted" false (Cache.access c ~addr:256)

let test_cache_working_set_cliff () =
  (* a working set that fits is all hits on the second pass; one that
     doesn't fit (streaming LRU) keeps missing - the Fig. 11 cliff *)
  let run lines =
    let c = small_cache () in
    for pass = 1 to 2 do
      ignore pass;
      for i = 0 to lines - 1 do
        ignore (Cache.access c ~addr:(i * 64))
      done
    done;
    Cache.miss_rate c
  in
  Alcotest.(check (float 1e-9)) "fits: second pass all hits" 0.5 (run 4);
  check_bool "thrash: high miss rate" true (run 16 > 0.9)

let test_cache_access_range () =
  let c = small_cache () in
  check_int "spans two lines" 2 (Cache.access_range c ~addr:60 ~bytes:8);
  check_int "now hits" 0 (Cache.access_range c ~addr:60 ~bytes:8);
  check_int "zero bytes still touches" 0 (Cache.access_range c ~addr:60 ~bytes:0)

let test_cache_reset_clear () =
  let c = small_cache () in
  ignore (Cache.access c ~addr:0);
  Cache.reset_counters c;
  check_int "counters zero" 0 (Cache.accesses c);
  check_bool "contents kept" true (Cache.access c ~addr:0);
  Cache.clear c;
  check_bool "contents gone" false (Cache.access c ~addr:0);
  check_int "resident after one" 1 (Cache.resident_lines c)

(* Reference model: the stamp-based LRU the simulator used before sets were
   kept in recency order.  Each way carries the clock value of its last
   use; a miss fills the first invalid way, else the way with the oldest
   stamp.  The cache must agree with it access for access. *)
module Stamp_lru = struct
  type t = {
    ways : int;
    line_bytes : int;
    set_mask : int;
    tags : int array;
    stamps : int array;
    mutable clock : int;
    mutable accesses : int;
    mutable misses : int;
  }

  let create (c : Cache.config) =
    let sets = c.Cache.size_bytes / (c.Cache.ways * c.Cache.line_bytes) in
    {
      ways = c.Cache.ways;
      line_bytes = c.Cache.line_bytes;
      set_mask = sets - 1;
      tags = Array.make (sets * c.Cache.ways) (-1);
      stamps = Array.make (sets * c.Cache.ways) 0;
      clock = 0;
      accesses = 0;
      misses = 0;
    }

  let access t ~addr =
    let line = addr / t.line_bytes in
    let base = (line land t.set_mask) * t.ways in
    t.accesses <- t.accesses + 1;
    t.clock <- t.clock + 1;
    let hit = ref false and victim = ref base and oldest = ref max_int in
    let i = ref base in
    while (not !hit) && !i < base + t.ways do
      if t.tags.(!i) = line then begin
        hit := true;
        t.stamps.(!i) <- t.clock
      end
      else begin
        let stamp = if t.tags.(!i) = -1 then -1 else t.stamps.(!i) in
        if stamp < !oldest then begin
          oldest := stamp;
          victim := !i
        end;
        incr i
      end
    done;
    if not !hit then begin
      t.misses <- t.misses + 1;
      t.tags.(!victim) <- line;
      t.stamps.(!victim) <- t.clock
    end;
    !hit

  let lines_of t ~addr ~bytes =
    let bytes = max bytes 1 in
    List.init
      (((addr + bytes - 1) / t.line_bytes) - (addr / t.line_bytes) + 1)
      (fun k -> ((addr / t.line_bytes) + k) * t.line_bytes)

  let reset_counters t =
    t.accesses <- 0;
    t.misses <- 0

  let clear t =
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    Array.fill t.stamps 0 (Array.length t.stamps) 0;
    t.clock <- 0;
    reset_counters t

  let resident_lines t = Array.fold_left (fun n tag -> if tag >= 0 then n + 1 else n) 0 t.tags
end

type op = Access of int * int | Clear | Reset

let show_op = function
  | Access (a, b) -> Printf.sprintf "access %d+%d" a b
  | Clear -> "clear"
  | Reset -> "reset"

let show_config (c : Cache.config) =
  Printf.sprintf "%dB/%dw/%dB" c.Cache.size_bytes c.Cache.ways c.Cache.line_bytes

(* 1-4 ways, 1-8 sets, 16-64 byte lines. *)
let gen_config ~line_bytes =
  QCheck.Gen.(
    map2
      (fun ways sets_log ->
        { Cache.size_bytes = ways * (1 lsl sets_log) * line_bytes; ways; line_bytes })
      (int_range 1 4) (int_range 0 3))

(* Accesses over a few times the cache's capacity, so sets conflict; most
   touch one line, some span several. *)
let gen_ops ~span =
  QCheck.Gen.(
    list_size (int_range 1 400)
      (frequency
         [
           (30, map2 (fun a b -> Access (a, b)) (int_bound span) (int_range 1 8));
           (5, map2 (fun a b -> Access (a, b)) (int_bound span) (int_range 1 200));
           (1, return Clear);
           (1, return Reset);
         ]))

let cache_matches_stamp_lru =
  let gen =
    QCheck.Gen.(
      int_range 4 6 >>= fun line_log ->
      gen_config ~line_bytes:(1 lsl line_log) >>= fun config ->
      map (fun ops -> (config, ops)) (gen_ops ~span:(4 * config.Cache.size_bytes)))
  in
  let print (config, ops) = show_config config ^ ": " ^ String.concat "; " (List.map show_op ops) in
  QCheck.Test.make ~name:"recency-ordered sets = stamp LRU" ~count:300
    (QCheck.make ~print gen) (fun (config, ops) ->
      let c = Cache.create config and o = Stamp_lru.create config in
      let same () =
        Cache.accesses c = o.Stamp_lru.accesses
        && Cache.misses c = o.Stamp_lru.misses
        && Cache.resident_lines c = Stamp_lru.resident_lines o
      in
      List.for_all
        (fun op ->
          (match op with
          | Access (addr, 1) -> Cache.access c ~addr = Stamp_lru.access o ~addr
          | Access (addr, bytes) ->
              let misses =
                List.length
                  (List.filter
                     (fun addr -> not (Stamp_lru.access o ~addr))
                     (Stamp_lru.lines_of o ~addr ~bytes))
              in
              Cache.access_range c ~addr ~bytes = misses
          | Clear ->
              Cache.clear c;
              Stamp_lru.clear o;
              true
          | Reset ->
              Cache.reset_counters c;
              Stamp_lru.reset_counters o;
              true)
          && same ())
        ops)

(* The same check through two levels: penalties and per-level counts. *)
let hierarchy_matches_stamp_lru =
  let gen =
    QCheck.Gen.(
      int_range 4 6 >>= fun line_log ->
      let line_bytes = 1 lsl line_log in
      pair (gen_config ~line_bytes) (gen_config ~line_bytes) >>= fun (c1, c2) ->
      map
        (fun ops -> (c1, c2, ops))
        (gen_ops ~span:(4 * max c1.Cache.size_bytes c2.Cache.size_bytes)))
  in
  let print (c1, c2, ops) =
    show_config c1 ^ " + " ^ show_config c2 ^ ": " ^ String.concat "; " (List.map show_op ops)
  in
  QCheck.Test.make ~name:"hierarchy = stamp LRU per level" ~count:300
    (QCheck.make ~print gen) (fun (c1, c2, ops) ->
      let h =
        Hierarchy.create
          [
            { Hierarchy.label = "L1"; cache = Cache.create c1; miss_penalty = 7.0 };
            { Hierarchy.label = "L2"; cache = Cache.create c2; miss_penalty = 93.5 };
          ]
      in
      let o1 = Stamp_lru.create c1 and o2 = Stamp_lru.create c2 in
      let penalty = ref 0.0 in
      List.for_all
        (fun op ->
          (match op with
          | Access (addr, bytes) ->
              Hierarchy.access h ~addr ~bytes;
              List.iter
                (fun addr ->
                  if not (Stamp_lru.access o1 ~addr) then begin
                    penalty := !penalty +. 7.0;
                    if not (Stamp_lru.access o2 ~addr) then penalty := !penalty +. 93.5
                  end)
                (Stamp_lru.lines_of o1 ~addr ~bytes)
          | Clear ->
              Hierarchy.clear h;
              Stamp_lru.clear o1;
              Stamp_lru.clear o2;
              penalty := 0.0
          | Reset ->
              Hierarchy.reset_counters h;
              Stamp_lru.reset_counters o1;
              Stamp_lru.reset_counters o2;
              penalty := 0.0);
          Hierarchy.penalty_cycles h = !penalty
          && Hierarchy.level_stats h
             = [
                 ("L1", o1.Stamp_lru.accesses, o1.Stamp_lru.misses);
                 ("L2", o2.Stamp_lru.accesses, o2.Stamp_lru.misses);
               ])
        ops)

(* A strided access is the loop of its single accesses: the same counts,
   penalties and recency state as [count] calls of [Hierarchy.access], and
   as the stamp-based reference model.  Strides cover 0, sub-line,
   line-crossing and set-aliasing spans; sizes cover multi-line accesses. *)
let strided_matches_singles =
  let gen =
    QCheck.Gen.(
      int_range 4 6 >>= fun line_log ->
      let line_bytes = 1 lsl line_log in
      pair (gen_config ~line_bytes) (gen_config ~line_bytes) >>= fun (c1, c2) ->
      let span = 4 * max c1.Cache.size_bytes c2.Cache.size_bytes in
      let stride =
        frequency
          [
            (1, return 0);
            (3, int_range 1 (2 * line_bytes));
            (2, map (fun k -> k * c1.Cache.size_bytes / c1.Cache.ways) (int_range 1 3));
            (1, int_bound span);
          ]
      in
      map
        (fun ops -> (c1, c2, ops))
        (list_size (int_range 1 60)
           (quad (int_bound span) stride (int_range 0 12)
              (frequency [ (3, int_range 1 8); (1, int_range 1 200) ]))))
  in
  let print (c1, c2, ops) =
    show_config c1 ^ " + " ^ show_config c2 ^ ": "
    ^ String.concat "; "
        (List.map
           (fun (a, s, n, b) -> Printf.sprintf "%d+%d x%d stride %d" a b n s)
           ops)
  in
  QCheck.Test.make ~name:"strided access = singles = stamp LRU"
    ~count:300 (QCheck.make ~print gen) (fun (c1, c2, ops) ->
      let hierarchy () =
        Hierarchy.create
          [
            { Hierarchy.label = "L1"; cache = Cache.create c1; miss_penalty = 7.0 };
            { Hierarchy.label = "L2"; cache = Cache.create c2; miss_penalty = 93.5 };
          ]
      in
      let strided = hierarchy () and single = hierarchy () in
      let o1 = Stamp_lru.create c1 and o2 = Stamp_lru.create c2 in
      let penalty = ref 0.0 in
      List.for_all
        (fun (addr, stride, count, bytes) ->
          Hierarchy.access_strided strided ~addr ~stride ~count ~bytes;
          for i = 0 to count - 1 do
            let addr = addr + (i * stride) in
            Hierarchy.access single ~addr ~bytes;
            List.iter
              (fun addr ->
                if not (Stamp_lru.access o1 ~addr) then begin
                  penalty := !penalty +. 7.0;
                  if not (Stamp_lru.access o2 ~addr) then penalty := !penalty +. 93.5
                end)
              (Stamp_lru.lines_of o1 ~addr ~bytes)
          done;
          let stats = Hierarchy.level_stats strided in
          Hierarchy.penalty_cycles strided = !penalty
          && Hierarchy.penalty_cycles single = !penalty
          && stats = Hierarchy.level_stats single
          && stats
             = [
                 ("L1", o1.Stamp_lru.accesses, o1.Stamp_lru.misses);
                 ("L2", o2.Stamp_lru.accesses, o2.Stamp_lru.misses);
               ]
          && List.for_all2
               (fun a b -> Cache.resident_lines a.Hierarchy.cache = Cache.resident_lines b.Hierarchy.cache)
               (Hierarchy.levels strided) (Hierarchy.levels single))
        ops)

let test_hierarchy_mixed_line_sizes () =
  let level label line_bytes =
    {
      Hierarchy.label;
      cache = Cache.create { Cache.size_bytes = 4096; ways = 4; line_bytes };
      miss_penalty = 10.0;
    }
  in
  Alcotest.check_raises "differing line sizes"
    (Invalid_argument "Hierarchy.create: level L2 has 128-byte lines, L1 has 64") (fun () ->
      ignore (Hierarchy.create [ level "L1" 64; level "L2" 128 ]))

let test_hierarchy_routing () =
  let h =
    Hierarchy.create
      [
        { Hierarchy.label = "L1"; cache = small_cache (); miss_penalty = 10.0 };
        {
          Hierarchy.label = "L2";
          cache = Cache.create { Cache.size_bytes = 4096; ways = 4; line_bytes = 64 };
          miss_penalty = 100.0;
        };
      ]
  in
  Hierarchy.access h ~addr:0 ~bytes:4;
  (* cold: misses both levels *)
  Alcotest.(check (float 1e-9)) "cold penalty" 110.0 (Hierarchy.penalty_cycles h);
  Hierarchy.access h ~addr:0 ~bytes:4;
  Alcotest.(check (float 1e-9)) "hit adds nothing" 110.0 (Hierarchy.penalty_cycles h);
  (match Hierarchy.level_stats h with
  | [ ("L1", 2, 1); ("L2", 1, 1) ] -> ()
  | _ -> Alcotest.fail "unexpected level stats");
  (* evict line 0 from L1 (it stays in the larger L2) *)
  for i = 1 to 8 do
    Hierarchy.access h ~addr:(i * 256) ~bytes:4
  done;
  let before = Hierarchy.penalty_cycles h in
  Hierarchy.access h ~addr:0 ~bytes:4;
  Alcotest.(check (float 1e-9)) "L1 miss, L2 hit" (before +. 10.0)
    (Hierarchy.penalty_cycles h)

let test_hierarchy_miss_rate_lookup () =
  let h = Hierarchy.xeon_e5 () in
  Hierarchy.access h ~addr:0 ~bytes:4;
  Alcotest.(check (float 1e-9)) "L1d rate" 1.0 (Hierarchy.miss_rate h "L1d");
  Alcotest.check_raises "unknown label" Not_found (fun () ->
      ignore (Hierarchy.miss_rate h "L7"))

let test_presets () =
  let e5 = Hierarchy.xeon_e5 () in
  (match Hierarchy.levels e5 with
  | [ l1; llc ] ->
      check_int "E5 L1 32KB" (32 * 1024) (Cache.config l1.Hierarchy.cache).Cache.size_bytes;
      check_int "E5 LLC 20MB" (20 * 1024 * 1024)
        (Cache.config llc.Hierarchy.cache).Cache.size_bytes
  | _ -> Alcotest.fail "E5 has two levels");
  let phi = Hierarchy.xeon_phi () in
  match Hierarchy.levels phi with
  | [ _; l2 ] ->
      check_int "Phi L2 512KB" (512 * 1024) (Cache.config l2.Hierarchy.cache).Cache.size_bytes
  | _ -> Alcotest.fail "Phi has two levels"

let test_machines () =
  Alcotest.(check string) "find e5" "e5" (Machine.find "e5").Machine.name;
  Alcotest.(check string) "find phi" "phi" (Machine.find "phi").Machine.name;
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Machine.find "m1"));
  check_bool "phi limit below e5" true
    (Machine.xeon_phi.Machine.max_live_threads < Machine.xeon_e5.Machine.max_live_threads)

let test_cost () =
  let vm = Vc_simd.Vm.create Vc_simd.Isa.sse42 in
  let h = Hierarchy.xeon_e5 () in
  Vc_simd.Vm.scalar_ops vm 100;
  Hierarchy.access h ~addr:0 ~bytes:4;
  (* cold: 10 + 150 penalty *)
  Alcotest.(check (float 1e-9)) "cycles" 260.0 (Cost.cycles vm h);
  Alcotest.(check (float 1e-9)) "cpi" 2.6 (Cost.cpi vm h);
  Alcotest.(check (float 1e-9)) "speedup" 2.0
    (Cost.speedup ~baseline_cycles:520.0 ~cycles:260.0);
  Alcotest.(check (float 1e-9)) "guarded" 0.0 (Cost.speedup ~baseline_cycles:1.0 ~cycles:0.0)

let () =
  Alcotest.run "vc_mem"
    [
      ( "cache",
        [
          Alcotest.test_case "config errors" `Quick test_cache_config_errors;
          Alcotest.test_case "hits and misses" `Quick test_cache_hits_and_misses;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "working-set cliff" `Quick test_cache_working_set_cliff;
          Alcotest.test_case "access range" `Quick test_cache_access_range;
          Alcotest.test_case "reset/clear" `Quick test_cache_reset_clear;
          QCheck_alcotest.to_alcotest cache_matches_stamp_lru;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "routing" `Quick test_hierarchy_routing;
          Alcotest.test_case "miss-rate lookup" `Quick test_hierarchy_miss_rate_lookup;
          Alcotest.test_case "presets" `Quick test_presets;
          Alcotest.test_case "mixed line sizes" `Quick test_hierarchy_mixed_line_sizes;
          QCheck_alcotest.to_alcotest hierarchy_matches_stamp_lru;
          QCheck_alcotest.to_alcotest strided_matches_singles;
        ] );
      ("machine", [ Alcotest.test_case "lookup and limits" `Quick test_machines ]);
      ("cost", [ Alcotest.test_case "cycle model" `Quick test_cost ]);
    ]
