(* The [exec] workload: every built-in benchmark and every runtime-loaded
   .rtp workload on the three executors — the cost-model engine, the
   blocked interpreter and the compiled SoA backend.

   Set-up is the front end a user of `vcilk run` pays: registry and .rtp
   load, parse, validate, the Fig. 7 transform, compilation to a spec and
   SoA kernel instantiation.  Each run is timed from outside and its
   reducers and task counts are checked against the registry's reference
   values (or the .rtp file's pinned [expect]) and the pinned counts. *)

module R = Vc_bench.Registry
module B = Vc_core.Backend
module Report = Vc_core.Report

let workload_dirs = [ "examples/dsl"; "test/corpus" ]
let machine = Vc_mem.Machine.xeon_e5
let strategy = Vc_core.Policy.Hybrid { max_block = 4096; reexpand = true }
let executors = [ "engine"; "blocked"; "compiled" ]

type item = {
  name : string;
  rtp : bool;
  spec : Vc_core.Spec.t;  (** what the cost-model engine runs *)
  source : B.source;  (** what the two backends run *)
  roots : int array list;
  expect : (string * int) list;
}

type front = {
  mutable parse : float list;
  mutable validate : float list;
  mutable transform : float list;
  mutable compile : float list;
  mutable instantiate : float list;
  mutable registry : float list;
}

let front =
  { parse = []; validate = []; transform = []; compile = []; instantiate = []; registry = [] }

(* Parse → validate → transform → compile → instantiate one DSL program,
   timing each stage. *)
let front_end ~name text ~roots =
  let time stage f = Util.timed (fun () -> Span.with_ ~layer:"front_end" stage f) in
  let program, dt = time "parse" (fun () -> Vc_lang.Parser.parse_string text) in
  front.parse <- dt :: front.parse;
  let (_ : Vc_lang.Validate.info), dt =
    time "validate" (fun () -> Vc_lang.Validate.check_exn program)
  in
  front.validate <- dt :: front.validate;
  let blocked, dt = time "transform" (fun () -> Vc_core.Transform.transform program) in
  front.transform <- dt :: front.transform;
  let args = match roots with r :: _ -> Array.to_list r | [] -> [] in
  let spec, dt =
    time "compile" (fun () ->
        { (Vc_core.Compile.spec_of_program ~name program ~args) with Vc_core.Spec.roots })
  in
  front.compile <- dt :: front.compile;
  let decls =
    List.map (fun d -> (d.Vc_lang.Ast.red_name, d.Vc_lang.Ast.red_op)) program.Vc_lang.Ast.reducers
  in
  let (_ : Vc_core.Codegen.Soa.inst), dt =
    time "instantiate" (fun () ->
        Vc_core.Codegen.Soa.instantiate blocked ~reducers:(Vc_lang.Reducer.make_set decls))
  in
  front.instantiate <- dt :: front.instantiate;
  (spec, blocked)

let load_workloads () =
  List.concat_map
    (fun dir ->
      let r, dt =
        Util.timed (fun () ->
            Span.with_ ~layer:"registry" ("load " ^ dir) (fun () -> R.load_dir dir))
      in
      front.registry <- dt :: front.registry;
      match r with
      | Ok l -> l
      | Error e -> failwith (Vc_core.Vc_error.to_string e))
    workload_dirs

(* The items at one scale.  Quick scale is the warm-up (and the probe
   other workloads' traced runs use); full scale is what is measured. *)
let build_items ~quick =
  let qctx = Vc_exp.Sweep.create ~quick:true () in
  let builtins =
    List.map
      (fun (e : R.entry) ->
        let native =
          Span.with_ ~layer:"registry" ("spec " ^ e.name) (fun () ->
              if quick then Vc_exp.Sweep.spec_of qctx e else e.spec ())
        in
        let source, roots =
          match e.dsl with
          | Some dsl ->
              let program, roots = dsl ~quick in
              let _, blocked =
                front_end ~name:e.name (Vc_lang.Pp.program_to_string program) ~roots
              in
              (B.Ir blocked, roots)
          | None -> (B.Native native, native.Vc_core.Spec.roots)
        in
        { name = e.name; rtp = false; spec = native; source; roots; expect = [] })
      R.all
  in
  let rtps =
    List.map
      (fun (l : R.loaded) ->
        let e = l.entry in
        let _, roots = (Option.get e.dsl) ~quick in
        let spec, blocked = front_end ~name:e.name (Util.read_file l.path) ~roots in
        {
          name = e.name;
          rtp = true;
          spec;
          source = B.Ir blocked;
          roots;
          expect = (if quick then l.quick_expected else e.expected ());
        })
      (load_workloads ())
  in
  builtins @ rtps

type run = {
  r_item : item;
  r_exec : string;
  r_secs : float;
  r_k : float;  (** host-speed factor around the run ([Calib.micro_factor]) *)
  r_words : float;
  r_tasks : int;
  r_report : Report.t option;
  r_result : B.result option;
}

let opts = { B.default_opts with strategy }

(* Runs of the micro reference just before and just after each timed
   run; their best times give the run's host-speed factor. *)
let micro_runs = 20

let run_one ~quick item exec =
  (* every run starts right after a completed major collection, so no run
     pays for the garbage of the one before it *)
  Gc.compact ();
  let before = Calib.micro_best micro_runs in
  let w0 = Gc.minor_words () in
  let t0 = Util.now () in
  let outcome, report, result =
    Span.with_ ~layer:exec (item.name ^ " " ^ exec) (fun () ->
        match exec with
        | "engine" ->
            let r = Vc_core.Engine.run ~spec:item.spec ~machine ~strategy () in
            ( { Pins.reducers = r.reducers; tasks = r.tasks; base_tasks = r.base_tasks },
              Some r,
              None )
        | name ->
            let backend = Option.get (B.find name) in
            let r = B.timed_run ~opts backend item.source ~roots:item.roots in
            ( { Pins.reducers = r.reducers; tasks = r.tasks; base_tasks = r.base_tasks },
              None,
              Some r ))
  in
  let secs = Util.now () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let k = Calib.micro_factor ~before ~after:(Calib.micro_best micro_runs) in
  let what = Printf.sprintf "%s on %s (%s)" item.name exec (Pins.scale_name ~quick) in
  if item.expect <> [] then
    Util.check (what ^ ": reducers differ from the reference")
      (Pins.same_reducers item.expect outcome.reducers);
  Pins.check ~quick ~what item.name outcome;
  { r_item = item; r_exec = exec; r_secs = secs; r_k = k; r_words = words; r_tasks = outcome.tasks;
    r_report = report; r_result = result }

(* One run of every pair, in a fixed order: the heap each run inherits,
   and so the peak RSS, must not depend on the seed. *)
let pass ~quick items =
  Util.timed (fun () ->
      List.concat_map (fun i -> List.map (fun x -> run_one ~quick i x) executors) items)

(* Reference reducer values of the built-ins: the registry's native
   reference at full scale, the pins at quick scale. *)
let with_references ~quick items =
  List.map
    (fun it ->
      if it.rtp then it
      else
        let expect =
          if quick then
            match Pins.outcome ~quick it.name with Some p -> p.reducers | None -> []
          else (R.find it.name).expected ()
        in
        { it with expect })
    items

(* Set up [repeats] times (median reported); the last items run. *)
let setup ?(repeats = 101) ~quick () =
  let samples = ref [] and items = ref [] in
  for _ = 1 to repeats do
    let its, dt =
      Util.timed (fun () -> Span.with_ ~layer:"bench" "setup" (fun () -> build_items ~quick))
    in
    samples := dt :: !samples;
    items := its
  done;
  (Util.median !samples, with_references ~quick !items)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let mtasks r = float_of_int r.r_tasks /. r.r_secs /. 1e6
let runs_of exec runs = List.filter (fun r -> r.r_exec = exec) runs

let words_per_task runs =
  Util.ratio (Util.sum (List.map (fun r -> r.r_words) runs))
    (float_of_int (List.fold_left (fun a r -> a + r.r_tasks) 0 runs))

let report_front () =
  let us l = Util.median l *. 1e6 in
  Util.report "lang.parse_us" "us" (us front.parse);
  Util.report "lang.validate_us" "us" (us front.validate);
  Util.report "core.transform_us" "us" (us front.transform);
  Util.report "core.compile_us" "us" (us front.compile);
  Util.report "codegen.instantiate_us" "us" (us front.instantiate);
  Util.report "bench.registry_load_ms" "ms" (Util.median front.registry *. 1e3)

(* Exact cost-model counts summed over engine reports. *)
type model_counts = {
  tasks : int;
  scalar_ops : int;
  vector_ops : int;
  l1_accesses : int;
  l1_misses : int;
  compaction_calls : int;
  compaction_passes : int;
  engine_seconds : float;
  reports : Report.t list;
}

let model_counts (reports : Report.t list) =
  List.fold_left
    (fun c (r : Report.t) ->
      let acc, miss =
        match r.cache with (_, a, m) :: _ -> (a, m) | [] -> (0, 0)
      in
      {
        c with
        tasks = c.tasks + r.tasks;
        scalar_ops = c.scalar_ops + r.scalar_ops;
        vector_ops = c.vector_ops + r.vector_ops;
        l1_accesses = c.l1_accesses + acc;
        l1_misses = c.l1_misses + miss;
        compaction_calls = c.compaction_calls + r.compaction_calls;
        compaction_passes = c.compaction_passes + r.compaction_passes;
        engine_seconds = c.engine_seconds +. r.wall_seconds;
      })
    { tasks = 0; scalar_ops = 0; vector_ops = 0; l1_accesses = 0; l1_misses = 0;
      compaction_calls = 0; compaction_passes = 0; engine_seconds = 0.0; reports }
    reports

let report_model_counts c =
  let per_task n = Util.ratio (float_of_int n) (float_of_int c.tasks) in
  Util.report "vm.scalar_ops_per_task" "count" (per_task c.scalar_ops);
  Util.report "vm.vector_ops_per_task" "count" (per_task c.vector_ops);
  Util.report "cache.accesses_per_task" "count" (per_task c.l1_accesses);
  Util.report "cache.l1_miss_rate" "ratio"
    (Util.ratio (float_of_int c.l1_misses) (float_of_int c.l1_accesses));
  Util.report "compact.calls" "count" (float_of_int c.compaction_calls);
  Util.report "compact.passes" "count" (float_of_int c.compaction_passes)

(* Per-layer view of one traced pass. *)
let report_layers runs =
  List.iter
    (fun exec ->
      List.iter
        (fun (e : R.entry) ->
          let r = List.find (fun r -> r.r_exec = exec && r.r_item.name = e.name) runs in
          Util.report (Printf.sprintf "%s.%s.mtasks_s" exec e.name) "Mtasks/s" (mtasks r))
        R.all;
      Util.report (exec ^ ".words_per_task") "words" (words_per_task (runs_of exec runs)))
    executors;
  let rtp = List.filter (fun r -> r.r_item.rtp) (runs_of "engine" runs) in
  Util.report "engine.rtp.mtasks_s" "Mtasks/s" (Util.geomean (List.map mtasks rtp));
  let compiled = List.filter_map (fun r -> r.r_result) (runs_of "compiled" runs) in
  let total f = float_of_int (List.fold_left (fun a r -> a + f r) 0 compiled) in
  Util.report "sched.levels" "count" (total (fun r -> r.B.max_depth));
  Util.report "sched.switches" "count" (total (fun r -> r.B.switches));
  Util.report "sched.reexpansions" "count" (total (fun r -> r.B.reexpansions));
  report_front ();
  model_counts (List.filter_map (fun r -> r.r_report) runs)

(* A pair's time is its best run at nominal host speed: interference
   from other tenants of the host only ever slows a run down, and it
   comes in spells of seconds.  After one pass in a fixed order, rounds in
   seeded order repeat every pair while [seconds] last, up to [rounds]
   passes in all, so each pair's runs spread over the whole measurement
   and a slow spell rarely covers all of them.  The cap keeps the number
   of runs a best time is taken over the same on a slower host.  A slow
   spell can also last a whole run, so each run is scaled by the micro
   reference around it ([r_k]).  Over the same eight seeds, scaling each
   round by the whole reference around it left [work_s] a spread of 0.13
   of its median, this 0.05. *)
let rounds = 12

let best_of first all =
  List.map
    (fun r ->
      List.fold_left
        (fun b x ->
          if x.r_item.name = r.r_item.name && x.r_exec = r.r_exec && x.r_secs *. x.r_k < b.r_secs *. b.r_k
          then x
          else b)
        r all)
    first

let measure ~rng ~seconds items =
  let t_start = Util.now () in
  let first = fst (pass ~quick:true items) in
  let rec repeat n acc =
    if n = 0 || Util.now () -. t_start >= seconds then acc
    else
      repeat (n - 1)
        (List.map (fun r -> run_one ~quick:true r.r_item r.r_exec) (Util.shuffle rng first) @ acc)
  in
  let all = repeat (rounds - 1) first in
  (best_of first all, List.length all)

(* What `vcilk run --quick` pays, for every pair: a full-scale pass takes
   about as long as a whole run, so only quick-scale runs can be repeated
   often enough for a best time.  [work_s] is one best pass, which
   minmax's native spec dominates; [service_ms] weighs every pair alike. *)
let e2e ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  let startup = Util.startup_s () in
  let setup_s, items = setup ~quick:true () in
  (* warm-up: one unmeasured pass *)
  ignore (pass ~quick:true items);
  let best, timed = measure ~rng ~seconds items in
  Calib.check_micro ();
  let scaled = List.map (fun r -> r.r_secs *. r.r_k) best in
  let unscaled = List.map (fun r -> r.r_secs) best in
  Util.report "setup_s" "s" (startup +. setup_s);
  Util.report "work_s" "s" (Util.sum scaled);
  Util.report "service_ms" "ms" (Util.geomean scaled *. 1e3);
  let ks = List.map (fun r -> r.r_k) best in
  Util.note "[exec] %d pairs, %d timed runs; unscaled work %.4f s, service %.4f ms; factors %.3f-%.3f"
    (List.length best) timed (Util.sum unscaled) (Util.geomean unscaled *. 1e3)
    (List.fold_left Float.min infinity ks) (List.fold_left Float.max 0.0 ks)

(* Traced run.  At full scale (the exec workload's own traced run) one
   untraced set-up and pass runs before the traced ones and one after, so
   a drift of the host's speed over the run cancels; their mean is the
   untraced time the traced tree (one set-up, one pass) accounts for, and
   the tracing overhead is the difference.  As a probe for another
   workload it runs once at quick scale. *)
let traced ~full =
  let quick = not full in
  let once () =
    let _, items = setup ~repeats:1 ~quick () in
    pass ~quick items
  in
  let untraced () =
    Span.enabled := false;
    let _, wall = Util.timed once in
    Span.enabled := true;
    wall
  in
  let before =
    if full then begin
      Span.enabled := false;
      let _, warm = setup ~repeats:1 ~quick:true () in
      ignore (pass ~quick:true warm);
      untraced ()
    end
    else 0.0
  in
  let ((runs, _), wall), root =
    Span.root ~layer:"bench" (if full then "exec" else "probe exec") (fun () ->
        Util.timed once)
  in
  if full then begin
    let untraced_s = (before +. untraced ()) /. 2.0 in
    Util.report "trace.overhead_frac" "ratio" ((wall /. untraced_s) -. 1.0);
    (root, untraced_s, report_layers runs)
  end
  else (root, wall, report_layers runs)
