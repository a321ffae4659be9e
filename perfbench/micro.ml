(* Host time of the cost-model primitives and the wire-protocol functions,
   timed from outside.  Combined with the exact counts a run's reports
   carry, they give the computed share of engine time each primitive
   accounts for. *)

module Compact = Vc_simd.Compact
module P = Vc_serve.Protocol
module Report = Vc_core.Report

(* Median over [rounds] of the mean time per call of [iters] calls. *)
let per_call ?(rounds = 7) ~iters f =
  let round () =
    let t0 = Util.now () in
    for i = 1 to iters do
      f i
    done;
    (Util.now () -. t0) /. float_of_int iters
  in
  Util.median (List.init rounds (fun _ -> round ()))

(* A walk shaped like the engine's: word accesses streaming through a
   16 KiB window that stays in L1, and one access in sixteen far away in
   a 1 MiB region (the engine's measured L1 miss rate is ~6%). *)
let cache_access_ns () =
  let h = Vc_mem.Hierarchy.xeon_e5 () in
  per_call ~iters:200_000 (fun i ->
      let addr = if i land 15 = 0 then (i * 4148) land 0xfffff else (i * 4) land 0x3fff in
      Vc_mem.Hierarchy.access h ~addr ~bytes:4)
  *. 1e9

(* Each engine on a machine and width the evaluation uses it at. *)
let partition_cases =
  let e5 = Vc_mem.Machine.xeon_e5.isa and phi = Vc_mem.Machine.xeon_phi.isa in
  [
    ("sequential", Compact.Sequential, e5, 4);
    ("full_table", Compact.Full_table, e5, 4);
    ("factorized", Compact.Factorized { sub_width = 8 }, e5, 16);
    ("prefix_scatter", Compact.Prefix_scatter { sub_width = 8 }, phi, 16);
  ]

let lanes_per_call = 256

(* Cost of one partition as [per_call + per_pass × passes], fitted from
   two stream lengths; the pass count comes from the VM's own counter. *)
type compact_cost = { ns_256 : float; per_call_ns : float; per_pass_ns : float }

let compact_cost engine isa width =
  let mask = Array.init lanes_per_call (fun i -> (i * 7919) land 5 < 2) in
  let at n =
    let vm = Vc_simd.Vm.create isa in
    let call () =
      ignore
        (Compact.partition ~vm ~engine ~width ~n ~pred:(Array.get mask) : int array * int array)
    in
    let before = (Vc_simd.Vm.snapshot vm).compaction_passes in
    call ();
    let passes = (Vc_simd.Vm.snapshot vm).compaction_passes - before in
    (per_call ~iters:(max 200 (500_000 / n)) (fun _ -> call ()) *. 1e9, float_of_int passes)
  in
  let t_small, p_small = at (2 * width) and t_large, p_large = at lanes_per_call in
  let per_pass_ns =
    if p_large > p_small then (t_large -. t_small) /. (p_large -. p_small) else 0.0
  in
  { ns_256 = t_large; per_call_ns = t_small -. (per_pass_ns *. p_small); per_pass_ns }

let vm_batch_ns () =
  let vm = Vc_simd.Vm.create Vc_simd.Isa.sse42 in
  per_call ~iters:200_000 (fun i ->
      Vc_simd.Vm.batch vm ~classify:true ~width:4 ~n:(1 + (i land 255)) ~insns_per_task:12 ())
  *. 1e9

let hit_line =
  P.request_line { (P.run_request ~bench:"nqueens") with id = "12345"; engine = "compiled" }

let protocol_parse_us () =
  per_call ~iters:20_000 (fun _ -> ignore (P.parse_request hit_line : (P.request, _) result))
  *. 1e6

let protocol_render_us () =
  let module J = Vc_exp.Jsonx in
  let fields =
    [
      ("reducers", J.Obj [ ("solutions", J.Int 352) ]);
      ("tasks", J.Int 2_056_148);
      ("base_tasks", J.Int 1_765_296);
      ("max_depth", J.Int 10);
      ("cycles", J.Float 1.23456789e7);
      ("engine", J.String "engine");
      ("wall_ms", J.Float 0.5123);
      ("queue_wait_ms", J.Float 0.0412);
      ("exec_ms", J.Float 0.4011);
      ("serialize_ms", J.Float 0.07);
    ]
  in
  per_call ~iters:20_000 (fun _ -> ignore (P.ok_line ~id:"12345" ~trace:"t-000042" fields : string))
  *. 1e6

type t = { access_ns : float; compact : (string * compact_cost) list }

let run () =
  Span.with_ ~layer:"micro" "primitives" @@ fun () ->
  let access_ns = cache_access_ns () in
  let compact =
    List.map
      (fun (name, engine, isa, width) -> (name, compact_cost engine isa width))
      partition_cases
  in
  Util.report "cache.access_ns" "ns" access_ns;
  List.iter (fun (name, c) -> Util.report ("compact.partition_ns." ^ name) "ns" c.ns_256) compact;
  Util.report "vm.batch_ns" "ns" (vm_batch_ns ());
  Util.report "protocol.parse_us" "us" (protocol_parse_us ());
  Util.report "protocol.render_us" "us" (protocol_render_us ());
  { access_ns; compact }

(* The engine a report's run compacted with: its machine's default at the
   benchmark's lane width (4 lanes when the workload is not a built-in). *)
let qctx = lazy (Vc_exp.Sweep.create ~quick:true ())

let engine_of (r : Report.t) =
  let machine = Vc_mem.Machine.find r.machine in
  let width =
    match Vc_bench.Registry.find r.benchmark with
    | e -> Vc_exp.Sweep.width_on (Lazy.force qctx) e machine
    | exception Not_found -> 4
  in
  match Compact.default_for machine.isa ~width with
  | Compact.Sequential -> "sequential"
  | Full_table -> "full_table"
  | Factorized _ -> "factorized"
  | Prefix_scatter _ -> "prefix_scatter"

(* Computed shares of engine host time: exact counts × the primitive's
   measured cost ÷ the engine's own seconds. *)
let shares t (c : Exec_wl.model_counts) =
  let cache_s = float_of_int c.l1_accesses *. t.access_ns *. 1e-9 in
  let compact_s =
    Util.sum
      (List.map
         (fun (r : Report.t) ->
           let k = List.assoc (engine_of r) t.compact in
           ((float_of_int r.compaction_calls *. k.per_call_ns)
           +. (float_of_int r.compaction_passes *. k.per_pass_ns))
           *. 1e-9)
         c.reports)
  in
  Util.report "cache.share" "ratio" (Util.ratio cache_s c.engine_seconds);
  Util.report "compact.share" "ratio" (Util.ratio compact_s c.engine_seconds)
