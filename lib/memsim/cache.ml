type config = { size_bytes : int; ways : int; line_bytes : int }

(* Each set's ways are kept in recency order: the most recently used line
   first, invalid ways (tag -1) at the tail.  A hit moves its way to the
   front; a miss evicts the last way (an invalid one if there is any, else
   the least recently used) and puts the new line in front.  This is LRU
   with invalid ways filled first, without per-way timestamps. *)
type t = {
  config : config;
  sets : int;
  set_mask : int;
  ways : int;
  line_shift : int;  (* log2 line_bytes *)
  tags : int array;  (* sets * ways; -1 = invalid *)
  mutable accesses : int;
  mutable misses : int;
}

let config t = t.config

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let create config =
  if config.size_bytes <= 0 || config.ways <= 0 || config.line_bytes <= 0 then
    invalid_arg "Cache.create: sizes must be positive";
  if config.size_bytes mod (config.ways * config.line_bytes) <> 0 then
    invalid_arg "Cache.create: size must be a multiple of ways * line";
  let sets = config.size_bytes / (config.ways * config.line_bytes) in
  if not (is_power_of_two sets) then
    invalid_arg (Printf.sprintf "Cache.create: set count %d not a power of two" sets);
  if not (is_power_of_two config.line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  {
    config;
    sets;
    set_mask = sets - 1;
    ways = config.ways;
    line_shift = log2 config.line_bytes;
    tags = Array.make (sets * config.ways) (-1);
    accesses = 0;
    misses = 0;
  }

let line_shift t = t.line_shift

(* The full line number doubles as the tag; distinct lines mapping to the
   same set always have distinct line numbers. *)
let access_line t line =
  let tags = t.tags in
  let base = (line land t.set_mask) * t.ways in
  t.accesses <- t.accesses + 1;
  if Array.unsafe_get tags base = line then true
  else begin
    (* Find the line's way.  On a miss the last way is the victim: it is
       invalid whenever the set is not full, since invalid ways sit at the
       tail. *)
    let last = base + t.ways - 1 in
    let i = ref (base + 1) in
    while !i < last && Array.unsafe_get tags !i <> line do
      incr i
    done;
    let i = if !i > last then last else !i in
    let hit = Array.unsafe_get tags i = line in
    if not hit then t.misses <- t.misses + 1;
    for j = i downto base + 1 do
      Array.unsafe_set tags j (Array.unsafe_get tags (j - 1))
    done;
    Array.unsafe_set tags base line;
    hit
  end

let access t ~addr = access_line t (addr asr t.line_shift)

let access_range t ~addr ~bytes =
  let bytes = max bytes 1 in
  let first = addr asr t.line_shift in
  let last = (addr + bytes - 1) asr t.line_shift in
  let misses = ref 0 in
  for line = first to last do
    if not (access_line t line) then incr misses
  done;
  !misses

let accesses t = t.accesses
let misses t = t.misses

let miss_rate t =
  if t.accesses = 0 then 0.0 else float_of_int t.misses /. float_of_int t.accesses

let reset_counters t =
  t.accesses <- 0;
  t.misses <- 0

let clear t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  reset_counters t

let lines t = t.sets * t.ways

let resident_lines t =
  Array.fold_left (fun acc tag -> if tag >= 0 then acc + 1 else acc) 0 t.tags
