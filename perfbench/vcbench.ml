(* The repository benchmark.

     vcbench.exe --workload sweep|exec|serve --seed N --seconds S --trace 0|1

   With --trace 0 it measures the workload's end-to-end metrics; with
   --trace 1 it records spans around every call into a layer and reports
   the per-layer metrics.  BENCHMARK.json (read from the working
   directory) names the metrics and their units; the last line of
   standard output is one JSON object with the outcome and exactly those
   metrics.  The exit code is 0 only when every output was correct.

     vcbench.exe --print-pins

   prints the reference values pinned.json holds, for review when a
   change legitimately alters them. *)

module J = Vc_exp.Jsonx

(* (name, unit) of every entry of one BENCHMARK.json list; workloads
   have no unit *)
let declared key =
  match J.parse (Util.read_file "BENCHMARK.json") with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok doc ->
      let str k m = match J.member k m with J.String s -> s | _ -> "" in
      List.map (fun m -> (str "name" m, str "unit" m)) (J.to_list (J.member key doc))

(* Layers the self-time breakdown names.  [trace.accounted_frac] sums
   the workload's own self times over its untraced end-to-end time; a
   layer the workload never enters reports its self time in the probes
   instead. *)
let layers =
  [ "bench"; "registry"; "front_end"; "sweep"; "generators"; "seq_exec"; "engine"; "strawman";
    "blocked"; "compiled"; "generator"; "transport"; "serve.queue"; "serve.exec";
    "serve.serialize" ]

let report_self_times ~root ~probes ~untraced_s =
  let own = Span.self_times root in
  let in_probes l =
    Util.sum
      (List.map
         (fun p -> Option.value ~default:0.0 (List.assoc_opt l (Span.self_times p)))
         probes)
  in
  List.iter
    (fun l ->
      Util.report ("self_s." ^ l) "s"
        (match List.assoc_opt l own with Some v -> v | None -> in_probes l))
    layers;
  let accounted = List.filter (fun (l, _) -> List.mem l layers) own in
  Util.report "trace.accounted_frac" "ratio"
    (Util.ratio (Util.sum (List.map snd accounted)) untraced_s)

let traced workload ~seed ~seconds =
  Span.enabled := true;
  let micro = Micro.run () in
  (* Layers this workload does not exercise are measured on small probes
     of the other workloads first; the workload's own pass runs last and
     its values take precedence. *)
  let probe_sweep () =
    let root, _, _ = Sweep_wl.traced ~full:false ~seed in
    root
  in
  let probe_serve () = fst (Serve_wl.traced ~full:false ~seed ~seconds) in
  let (root, untraced_s, counts), probes =
    match workload with
    | "sweep" ->
        let exec_root, _, _ = Exec_wl.traced ~full:false in
        let serve_root = probe_serve () in
        (Sweep_wl.traced ~full:true ~seed, [ exec_root; serve_root ])
    | "exec" ->
        let sweep_root = probe_sweep () in
        let serve_root = probe_serve () in
        (Exec_wl.traced ~full:true, [ sweep_root; serve_root ])
    | _ ->
        let sweep_root = probe_sweep () in
        let exec_root, _, counts = Exec_wl.traced ~full:false in
        let root, untraced_s = Serve_wl.traced ~full:true ~seed ~seconds in
        ((root, untraced_s, counts), [ sweep_root; exec_root ])
  in
  Exec_wl.report_model_counts counts;
  Micro.shares micro counts;
  report_self_times ~root ~probes ~untraced_s;
  (try Unix.mkdir Serve_wl.run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Span.write (Printf.sprintf "%s/trace-%s-%d.json" Serve_wl.run_dir workload seed)

let e2e workload ~seed ~seconds =
  match workload with
  | "sweep" ->
      Sweep_wl.e2e ~seed ~seconds;
      Util.report "peak_rss_mb" "MB" (Util.peak_rss_mb "self")
  | "exec" ->
      Exec_wl.e2e ~seed ~seconds;
      Util.report "peak_rss_mb" "MB" (Util.peak_rss_mb "self")
  | _ -> Serve_wl.e2e ~seed ~seconds

let result_line specs =
  let reported = !Util.metrics in
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun m -> m.Util.name = name) reported with
        | None -> failwith ("metric not measured: " ^ name)
        | Some m when m.unit_ <> unit_ ->
            failwith (Printf.sprintf "metric %s measured in %s, declared in %s" name m.unit_ unit_)
        | Some m ->
            if not (Float.is_finite m.value) then failwith ("metric not finite: " ^ name);
            Printf.printf "%-32s %16.6f %s\n" name m.value unit_;
            (name, J.Obj [ ("value", J.Float m.value); ("unit", J.String unit_) ]))
      specs
  in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (!Util.failed = 0));
         ("attempted", J.Int !Util.attempted);
         ("failed", J.Int !Util.failed);
         ("metrics", J.Obj metrics);
       ])

let print_pins () =
  let scale quick =
    let items = Exec_wl.build_items ~quick in
    List.map
      (fun (it : Exec_wl.item) ->
        let r =
          Vc_core.Backend.timed_run ~opts:Exec_wl.opts Vc_core.Backend.compiled it.source
            ~roots:it.roots
        in
        ( it.name,
          Pins.to_json { reducers = r.reducers; tasks = r.tasks; base_tasks = r.base_tasks } ))
      items
  in
  let quick = scale true and full = scale false in
  let seq = Sweep_wl.setup_ctx ~jobs:(Util.nproc ()) in
  Vc_exp.Sweep.prewarm ~scope:`Seq_only seq;
  let ctx = Sweep_wl.setup_ctx ~jobs:(Util.nproc ()) in
  Vc_exp.Sweep.prewarm ctx;
  List.iter (fun (_, g) -> g ctx Sweep_wl.null_fmt) Sweep_wl.generators;
  let claims = Vc_exp.Claims.all ctx in
  print_string
    (J.to_pretty_string
       (J.Obj
          [
            ("sweep_digest", J.String (Sweep_wl.digest ctx (Vc_exp.Sweep.runs ctx)));
            ("sweep_seq_digest", J.String (Sweep_wl.digest seq (Vc_exp.Sweep.runs seq)));
            ("claims", J.Int (List.length claims));
            ( "benchmarks",
              J.Obj
                (List.map
                   (fun (name, q) -> (name, J.Obj [ ("quick", q); ("full", List.assoc name full) ]))
                   quick) );
          ]))

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = Util.startup_flag then exit 0;
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let pins = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer traced (1) run");
      ("--print-pins", Arg.Set pins, " print the reference values pinned.json holds");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "vcbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match
    if !pins then (print_pins (); None)
    else begin
      if not (List.mem_assoc !workload (declared "workloads")) then
        failwith ("unknown workload " ^ !workload);
      let specs = declared (if !trace = 0 then "end_to_end" else "per_layer") in
      if !trace = 0 then e2e !workload ~seed:!seed ~seconds:!seconds
      else traced !workload ~seed:!seed ~seconds:!seconds;
      Util.report "failed_frac" "ratio"
        (Util.ratio (float_of_int !Util.failed) (float_of_int !Util.attempted));
      Some (result_line specs)
    end
  with
  | None -> ()
  | Some line ->
      print_endline line;
      exit (if !Util.failed = 0 then 0 else 1)
  | exception e ->
      Printf.eprintf "vcbench: %s\n" (Printexc.to_string e);
      exit 2
