(* The [sweep] workload: cold quick-scale sweeps in one process, with
   no disk cache.  Each measured round is what
   `vcilk table 1 --quick --no-cache` pays: [Sweep.prewarm `Seq_only]
   fans the sequential points out over the pool, then the generators
   that read only those points render from the warm memo.  The traced
   run covers the whole sweep — [Sweep.prewarm `Full] and every
   Tables/Figures/Claims generator, what `vcilk verify --quick
   --no-cache` pays.

   Correctness: every modeled quantity of every point (the fields
   [Report.equal] compares; host wall-clock excluded) is digested and
   compared with the pinned digest, and every paper claim must hold. *)

module S = Vc_exp.Sweep
module R = Vc_bench.Registry
module Report = Vc_core.Report

let null_fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let generators =
  Vc_exp.
    [
      ("table1", Tables.table1); ("table2", Tables.table2); ("table3", Tables.table3);
      ("figure9", Figures.figure9); ("figure10", Figures.figure10);
      ("figure11", Figures.figure11); ("figure12", Figures.figure12);
      ("figure13", Figures.figure13); ("figure14", Figures.figure14);
      ("figure15", Figures.figure15); ("figure16", Figures.figure16);
      ("figure17", Figures.figure17);
    ]

(* Set-up: context creation and spec build. *)
let setup_ctx ~jobs =
  let ctx = S.create ~quick:true ~jobs ~cache_dir:None () in
  List.iter (fun e -> ignore (S.spec_of ctx e : Vc_core.Spec.t)) R.all;
  ctx

let digest ctx runs =
  List.map
    (fun (k, (r : Report.t)) ->
      S.key_string ctx k ^ Marshal.to_string { r with wall_seconds = 0.0 } [ Marshal.No_sharing ])
    runs
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let check_claims verdicts =
  let held = List.length (List.filter (fun v -> v.Vc_exp.Claims.holds) verdicts) in
  List.iter
    (fun v -> if not v.Vc_exp.Claims.holds then Util.note "[sweep] claim failed: %s" v.claim)
    verdicts;
  Util.check
    (Printf.sprintf "claims: %d/%d hold, %d pinned" held (List.length verdicts) (Pins.claims ()))
    (held = List.length verdicts && held = Pins.claims ());
  held

let check_digest ctx =
  let d = digest ctx (S.runs ctx) in
  let pinned = Pins.sweep_digest () in
  if d <> pinned then Util.note "[sweep] modeled digest %s, pinned %s" d pinned;
  Util.check "sweep: modeled quantities differ from the pinned digest" (d = pinned)

type pass = {
  wall : float;  (** prewarm + generators + claims *)
  prewarm : float;
  points : (S.key * Report.t) list;  (** memo right after prewarm *)
}

(* One cold sweep.  Checks run after the clock stops. *)
let cold_pass ~jobs ~rng ~scope =
  let ctx, setup_s = Util.timed (fun () -> setup_ctx ~jobs) in
  let t0 = Util.now () in
  S.prewarm ~scope ctx;
  let prewarm = Util.now () -. t0 in
  let points = S.runs ctx in
  let verdicts =
    if scope = `Full then begin
      List.iter (fun (_, g) -> g ctx null_fmt) (Util.shuffle rng generators);
      Vc_exp.Claims.all ctx
    end
    else []
  in
  let wall = Util.now () -. t0 in
  Util.check "sweep: contained point failures" (S.failures ctx = []);
  if scope = `Full then begin
    ignore (check_claims verdicts : int);
    check_digest ctx
  end;
  (setup_s, { wall; prewarm; points })

(* The generators that read only sequential points: `vcilk table 1` and
   `vcilk figure 9` prewarm just those before they print. *)
let seq_generators = Vc_exp.[ ("table1", Tables.table1); ("figure9", Figures.figure9) ]

(* One cold sequential-scope sweep, then its generators from the warm
   memo, each timed as its best of [gen_repeats] renderings (a rendering
   takes tens of microseconds), interleaved with the micro reference
   ([Calib.micro]), whose best time comes back with them.  Checks run
   after the clock stops: no contained failures, the generators simulated
   nothing beyond the prewarm, and the modeled quantities match the
   pinned digest. *)
let gen_repeats = 200

let seq_round ~rng =
  let ctx = setup_ctx ~jobs:1 in
  let t0 = Util.now () in
  S.prewarm ~scope:`Seq_only ctx;
  let simulated = S.simulations ctx in
  let order = Util.shuffle rng seq_generators in
  let best = Array.make (List.length order) infinity in
  let micro = ref infinity and micro_total = ref 0.0 in
  for _ = 1 to gen_repeats do
    List.iteri
      (fun i (_, g) -> best.(i) <- Float.min best.(i) (snd (Util.timed (fun () -> g ctx null_fmt))))
      order;
    let dt = Calib.micro () in
    micro := Float.min !micro dt;
    micro_total := !micro_total +. dt
  done;
  let gens = List.mapi (fun i (name, _) -> (name, best.(i))) order in
  let wall = Util.now () -. t0 -. !micro_total in
  Util.check "sweep: contained point failures" (S.failures ctx = []);
  Util.check "sweep: generators simulated points the prewarm left out"
    (S.simulations ctx = simulated);
  let d = digest ctx (S.runs ctx) in
  if d <> Pins.sweep_seq_digest () then
    Util.note "[sweep] modeled digest %s, pinned %s" d (Pins.sweep_seq_digest ());
  Util.check "sweep: modeled quantities differ from the pinned digest"
    (d = Pins.sweep_seq_digest ());
  (wall, gens, !micro)

(* A full cold sweep takes about as long as a whole run, and one sample
   of it drifts with the host's speed; so the measured operation is the
   cold sweep `vcilk table 1 --quick --no-cache` pays, repeated while
   [seconds] last (up to [rounds] times).  minmax's two sequential points
   are most of it.  It runs on one domain: on two, the two minmax points
   run at once, and a whole run's rounds settled at either of two speeds
   ~1.35x apart, which no statistic over the rounds could hide (spread
   0.29 over four seeds).  Like exec, each round is scaled to nominal
   host speed by the reference around it ([Calib]); a round takes ~3 s,
   so work is the median round.  A rendering, which takes microseconds,
   keeps its best time, scaled by the best time of the micro reference
   run beside it: the reference around a round had left the rendering's
   spread at 0.07-0.24 of its median over sets of five to ten seeds, the
   micro reference brought it to ~0.08 (six seeds, twice).  The full sweep on [nproc] domains,
   with its claims and whole-memo digest, is the traced run's. *)
let rounds = 12

let e2e ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  let startup = Util.startup_s () in
  let setups = List.init 101 (fun _ -> snd (Util.timed (fun () -> setup_ctx ~jobs:1))) in
  (* warm-up: one unmeasured round *)
  ignore (seq_round ~rng : float * (string * float) list * float);
  let t_start = Util.now () in
  let before = ref (Calib.sample ()) in
  let rec loop n acc =
    if n = 0 || (acc <> [] && Util.now () -. t_start >= seconds) then acc
    else begin
      Gc.compact ();
      let wall, gens, micro = seq_round ~rng in
      let after = Calib.sample () in
      let k = Calib.factor ~before:!before ~after in
      before := after;
      loop (n - 1) ((wall, gens, micro, k) :: acc)
    end
  in
  let samples = loop rounds [] in
  (* [scaled] false gives the unscaled figures, for the record *)
  let work scaled =
    Util.median (List.map (fun (wall, _, _, k) -> if scaled then wall *. k else wall) samples)
  in
  let service scaled =
    let best f = List.fold_left (fun m s -> Float.min m (f s)) infinity samples in
    let k = if scaled then Calib.micro_nominal_s /. best (fun (_, _, micro, _) -> micro) else 1.0 in
    Util.geomean
      (List.map
         (fun (name, _) -> best (fun (_, gens, _, _) -> List.assoc name gens) *. k *. 1e3)
         seq_generators)
  in
  Calib.check_micro ();
  Util.report "setup_s" "s" (startup +. Util.median setups);
  Util.report "work_s" "s" (work true);
  Util.report "service_ms" "ms" (service true);
  let lo, hi = Calib.range () in
  Util.note "[sweep] %d cold sequential-scope sweeps; unscaled work %.4f s, service %.5f ms; reference %.4f-%.4f s"
    (List.length samples) (work false) (service false) lo hi

(* ------------------------------------------------------------------ *)
(* Traced run: the same points, each timed serially through the public
   per-point functions, in the order [prewarm] schedules them. *)

type point = {
  bench : string;
  kind : string;  (** seq | engine | strawman *)
  secs : float;  (** span duration: sweep memo + simulation *)
  words : float;
  report : Report.t;
}

(* Sweep's own selections for the strawman and compaction points; the key
   check below fails if they drift from [prewarm]'s. *)
let strawman_benchmarks = [ "fib"; "nqueens" ]
let compaction_benchmarks = [ "fib"; "nqueens" ]

let traced_points ctx ~scope =
  let acc = ref [] in
  let point kind (e : R.entry) (m : Vc_mem.Machine.t) label f =
    let name = Printf.sprintf "%s %s %s" label e.name m.name in
    let w0 = Gc.minor_words () in
    let t0 = Util.now () in
    Span.with_ ~layer:"sweep" name (fun () ->
        let r : Report.t = f () in
        let t1 = Util.now () in
        ignore
          (Span.record ~parent:(Span.current ()) ~layer:kind ~t0:(t1 -. r.wall_seconds) ~t1 name
            : int);
        acc :=
          { bench = e.name; kind; secs = Util.now () -. t0; words = Gc.minor_words () -. w0;
            report = r }
          :: !acc)
  in
  List.iter
    (fun e ->
      List.iter (fun m -> point "seq_exec" e m "seq" (fun () -> S.seq ctx e m)) S.machines)
    R.all;
  if scope = `Full then begin
    List.iter
      (fun e ->
        List.iter
          (fun m ->
            point "engine" e m "bfs" (fun () -> S.bfs_only ctx e m);
            List.iter
              (fun block ->
                point "engine" e m (Printf.sprintf "noreexp/%d" block) (fun () ->
                    S.hybrid ctx e m ~reexpand:false ~block);
                point "engine" e m (Printf.sprintf "reexp/%d" block) (fun () ->
                    S.hybrid ctx e m ~reexpand:true ~block))
              (S.blocks_of ctx e))
          S.machines)
      R.all;
    List.iter
      (fun name ->
        let e = R.find name in
        List.iter
          (fun m -> point "strawman" e m "strawman" (fun () -> S.strawman ctx e m))
          S.machines)
      strawman_benchmarks;
    List.iter
      (fun name ->
        let e = R.find name in
        List.iter
          (fun m ->
            let block, _ = S.best ctx e m ~reexpand:true in
            point "engine" e m (Printf.sprintf "seqcompact/%d" block) (fun () ->
                S.with_compaction ctx e m ~compact:Vc_simd.Compact.Sequential ~block))
          S.machines)
      compaction_benchmarks
  end;
  List.rev !acc

let traced ~full ~seed =
  let rng = Random.State.make [| seed |] in
  let jobs = Util.nproc () in
  let scope = if full then `Full else `Seq_only in
  (* untraced reference: the key set prewarm produces and its pool use *)
  Span.enabled := false;
  let reference_setup_s, reference = cold_pass ~jobs ~rng ~scope in
  Span.enabled := true;
  let (ctx, points, simulations, held), root =
    Span.root ~layer:"bench" (if full then "sweep" else "probe sweep") (fun () ->
        let ctx = setup_ctx ~jobs:1 in
        let points = traced_points ctx ~scope in
        let simulations = S.simulations ctx in
        let held =
          if full then begin
            List.iter
              (fun (name, g) -> Span.with_ ~layer:"generators" name (fun () -> g ctx null_fmt))
              generators;
            check_claims
              (Span.with_ ~layer:"generators" "claims" (fun () -> Vc_exp.Claims.all ctx))
          end
          else begin
            (* a probe enters the other sweep layers once, on the cheapest
               inputs: the strawman on fib, and table 1, which reads only
               sequential points *)
            let fib = R.find "fib" in
            List.iter
              (fun (m : Vc_mem.Machine.t) ->
                Span.with_ ~layer:"strawman" ("strawman fib " ^ m.name) (fun () ->
                    ignore (S.strawman ctx fib m : Report.t)))
              S.machines;
            Span.with_ ~layer:"generators" "table1" (fun () -> Vc_exp.Tables.table1 ctx null_fmt);
            0
          end
        in
        (ctx, points, simulations, held))
  in
  let keys = List.map fst reference.points in
  let traced_keys =
    List.filter (fun k -> List.mem k keys) (List.map fst (S.runs ctx))
  in
  Util.check "sweep: traced points cover exactly the prewarm keys"
    (traced_keys = keys && List.length points = List.length keys);
  Util.report "sweep.points" "count" (float_of_int (List.length reference.points));
  Util.report "sweep.simulations" "count" (float_of_int simulations);
  List.iter
    (fun (e : R.entry) ->
      Util.report
        (Printf.sprintf "sweep.%s_s" e.name)
        "s"
        (Util.sum
           (List.filter_map (fun p -> if p.bench = e.name then Some p.secs else None) points)))
    R.all;
  Util.report "sweep.longest_point_s" "s"
    (List.fold_left (fun m p -> Float.max m p.secs) 0.0 points);
  let reference_point_s =
    Util.sum (List.map (fun (_, (r : Report.t)) -> r.wall_seconds) reference.points)
  in
  Util.report "pool.efficiency" "ratio"
    (reference_point_s /. (float_of_int jobs *. reference.prewarm));
  let words ps =
    Util.ratio (Util.sum (List.map (fun p -> p.words) ps))
      (float_of_int (List.fold_left (fun a p -> a + p.report.tasks) 0 ps))
  in
  Util.report "sweep.words_per_task" "words" (words points);
  let engine = List.filter (fun p -> p.kind <> "seq_exec") points in
  (* a Seq_only probe has no engine points; its sequential runs stand in *)
  let engine = if engine = [] then points else engine in
  Util.report "engine.words_per_task" "words" (words engine);
  List.iter
    (fun (e : R.entry) ->
      let ps = List.filter (fun p -> p.bench = e.name) engine in
      Util.report
        (Printf.sprintf "engine.%s.mtasks_s" e.name)
        "Mtasks/s"
        (float_of_int (List.fold_left (fun a p -> a + p.report.tasks) 0 ps)
        /. Util.sum (List.map (fun p -> p.secs) ps)
        /. 1e6))
    R.all;
  Util.report "claims.held" "count" (float_of_int held);
  (* The untraced pass ran its points in parallel, and each point there
     runs slower than alone, so comparing times would hide the cost of
     tracing; it is measured directly instead. *)
  if full then Util.report "trace.overhead_frac" "ratio" (Span.overhead_frac root);
  let counts = Exec_wl.model_counts (List.map (fun p -> p.report) engine) in
  (* the untraced work: set-up, the prewarm on every domain, then the
     generators on one *)
  let untraced_s =
    reference_setup_s +. (reference.prewarm *. float_of_int jobs) +. reference.wall
    -. reference.prewarm
  in
  (root, untraced_s, counts)
