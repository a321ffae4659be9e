type level = { label : string; cache : Cache.t; miss_penalty : float }

(* [penalty] is a one-cell float array so that adding a miss penalty stores
   the sum unboxed instead of allocating a fresh boxed float. *)
type t = { levels : level list; line_shift : int; penalty : float array }

let create levels =
  match levels with
  | [] -> invalid_arg "Hierarchy.create: no levels"
  | first :: _ ->
      let line_bytes l = (Cache.config l.cache).Cache.line_bytes in
      List.iter
        (fun l ->
          if line_bytes l <> line_bytes first then
            invalid_arg
              (Printf.sprintf "Hierarchy.create: level %s has %d-byte lines, %s has %d"
                 l.label (line_bytes l) first.label (line_bytes first)))
        levels;
      { levels; line_shift = Cache.line_shift first.cache; penalty = [| 0.0 |] }

let levels t = t.levels

(* Look [line] up nearest-first; each miss adds its level's penalty and
   goes one level out. *)
let rec walk penalty line = function
  | [] -> ()
  | level :: outer ->
      if not (Cache.access_line level.cache line) then begin
        penalty.(0) <- penalty.(0) +. level.miss_penalty;
        walk penalty line outer
      end

let access_strided t ~addr ~stride ~count ~bytes =
  let span = max bytes 1 - 1 in
  for i = 0 to count - 1 do
    let start = addr + (i * stride) in
    for line = start asr t.line_shift to (start + span) asr t.line_shift do
      walk t.penalty line t.levels
    done
  done

let access t ~addr ~bytes = access_strided t ~addr ~stride:0 ~count:1 ~bytes

let penalty_cycles t = t.penalty.(0)

let find_level t label =
  match List.find_opt (fun l -> l.label = label) t.levels with
  | Some l -> l
  | None -> raise Not_found

let miss_rate t label = Cache.miss_rate (find_level t label).cache

let level_stats t =
  List.map (fun l -> (l.label, Cache.accesses l.cache, Cache.misses l.cache)) t.levels

let delta ~since now =
  List.map2
    (fun (l0, a0, m0) (l1, a1, m1) ->
      if l0 <> l1 then invalid_arg "Hierarchy.delta: mismatched snapshots";
      (l1, a1 - a0, m1 - m0))
    since now

let reset_counters t =
  t.penalty.(0) <- 0.0;
  List.iter (fun l -> Cache.reset_counters l.cache) t.levels

let clear t =
  t.penalty.(0) <- 0.0;
  List.iter (fun l -> Cache.clear l.cache) t.levels

let kib n = n * 1024
let mib n = n * 1024 * 1024

let xeon_e5 () =
  create
    [
      {
        label = "L1d";
        cache = Cache.create { Cache.size_bytes = kib 32; ways = 8; line_bytes = 64 };
        miss_penalty = 10.0;
      };
      {
        label = "LLC";
        cache = Cache.create { Cache.size_bytes = mib 20; ways = 20; line_bytes = 64 };
        miss_penalty = 150.0;
      };
    ]

let xeon_phi () =
  create
    [
      {
        label = "L1d";
        cache = Cache.create { Cache.size_bytes = kib 32; ways = 8; line_bytes = 64 };
        miss_penalty = 15.0;
      };
      {
        label = "L2";
        cache = Cache.create { Cache.size_bytes = kib 512; ways = 8; line_bytes = 64 };
        miss_penalty = 300.0;
      };
    ]
