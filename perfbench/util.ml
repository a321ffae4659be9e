(* Clocks, statistics, process probes and the metric sink shared by the
   workloads. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks (numpy's default), so a
   quantile moves smoothly with the samples instead of jumping between
   them. *)
let quantile samples q =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median samples = quantile samples 0.5
let sum = List.fold_left ( +. ) 0.0

let geomean = function
  | [] -> nan
  | xs ->
      exp (sum (List.map log xs) /. float_of_int (List.length xs))

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* Deterministic Fisher-Yates shuffle driven by the run's seed. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set ("VmHWM") of a process, from procfs. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match read_file path with
  | exception Sys_error _ -> 0.0
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
                     Some (float_of_int kb /. 1024.0))
             | _ -> None)
      |> Option.value ~default:0.0

(* CPU seconds the live threads of a process have run, from each
   thread's schedstat (nanoseconds, stolen time excluded).  A thread that
   exits takes its time with it, so read this while the threads of
   interest are alive. *)
let threads_cpu_seconds pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match read_file (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | exception Sys_error _ -> acc
      | text -> (
          match String.split_on_char ' ' (String.trim text) with
          | ns :: _ -> acc +. (float_of_string ns *. 1e-9)
          | [] -> acc))
    0.0
    (try Sys.readdir dir with Sys_error _ -> [||])

let nproc () = Domain.recommended_domain_count ()

(* Process start of this benchmark binary: spawn to exit of a copy that
   stops right after every linked module has initialised.  Median of
   [n] spawns. *)
let startup_flag = "--startup-probe"

let startup_s ?(n = 101) () =
  let exe = Sys.executable_name in
  let once () =
    let t0 = now () in
    let pid = Unix.create_process exe [| exe; startup_flag |] Unix.stdin Unix.stdout Unix.stderr in
    ignore (Unix.waitpid [] pid : int * Unix.process_status);
    now () -. t0
  in
  median (List.init n (fun _ -> once ()))

(* ------------------------------------------------------------------ *)
(* Metric sink: every value a run reports, in emission order.  The
   checks tally [attempted]/[failed] for the result line. *)

type metric = { name : string; value : float; unit_ : string }

let metrics : metric list ref = ref []
let attempted = ref 0
let failed = ref 0

let report name unit_ value =
  metrics := { name; value; unit_ } :: List.filter (fun m -> m.name <> name) !metrics

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "[perfbench] FAILED: %s\n%!" what
  end

let note fmt = Printf.eprintf (fmt ^^ "\n%!")
