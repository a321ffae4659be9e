(* The [serve] workload: a `vcilk serve` daemon (quick scale, no disk
   cache, [nproc] workers) in its own process, driven by this process as an
   open loop of independent users over [nproc] connections.

   The traffic is the one the repository has measured serving under:
   `vcilk loadgen --quick --mix fib:4,uts:1` on both engines, at a rate
   inside the measured 50–200 req/s.  It runs in two phases of equal
   length, one per request class:
   - hit: the recorded plain requests, answered from the daemon's warm
     sweep memo, so execution is a lookup and transport/protocol dominate;
   - miss: the same requests with a per-request task budget, which the
     daemon runs through the supervisor every time, so execution
     dominates.

   Arrivals are Poisson, drawn from the seed; every request is timed from
   the moment it was due, so a stalled generator or daemon shows as
   latency, and the generator's own lateness is reported.  Every [ok]
   reply is checked against the pinned reducers and task counts. *)

module P = Vc_serve.Protocol
module J = Vc_exp.Jsonx

let vcilk = "_build/default/bin/vcilk.exe"
let run_dir = ".perfbench"

(* The recorded mix, at rates inside the recorded range.  Hits arrive
   at its top, 200 req/s: a hit costs the daemon ~0.14 ms of CPU there,
   but at 80 req/s its cost swung with how often the daemon's threads
   went idle between requests (0.19-0.25 ms, spread 0.20 over ten
   seeds, against 0.07 at 200).  Misses arrive at 80 req/s: each costs
   ~6 ms of daemon CPU, so 200 would keep both workers busy more than
   half the time.  A 25 s run has 2500 hits and 1000 misses, enough for
   a p99 per class. *)
let mix = [ ("fib", 4); ("uts", 1) ]
let engines = [ "engine"; "compiled" ]
let hit_rps = 200.0
let miss_rps = 80.0

(* Unmeasured hit traffic before the measured phases, so that the
   collection work the memo warm-up left behind is paid first. *)
let settle_secs = 2.0

(* max_rps: the completion rate at the highest rung of this ladder
   (offered miss requests per second) where every request is answered
   [ok], the miss p99 meets [latency_limit_ms], and the backlog left when
   the rung's arrivals stop drains within that limit. *)
let ladder = [ 100.0; 150.0; 200.0; 300.0; 400.0; 600.0; 800.0 ]
let latency_limit_ms = 250.0

let miss_budget = 100_000_000

(* Queue bound of the daemon, above any backlog the nominal load builds,
   so requests queue rather than being refused. *)
let max_queue = 1024

type cls = Hit | Miss

let cls_name = function Hit -> "hit" | Miss -> "miss"

type req = { id : int; cls : cls; bench : string; engine : string; due : float }

let request_of r =
  let base = { (P.run_request ~bench:r.bench) with id = string_of_int r.id; engine = r.engine } in
  match r.cls with Hit -> base | Miss -> { base with max_tasks = Some miss_budget }

let choices = List.concat_map (fun e -> List.map (fun (b, w) -> ((b, e), w)) mix) engines

(* [n] draws in exact proportion to the weights (largest remainder), so
   every run serves the same multiset of requests and only their order
   and arrival times depend on the seed. *)
let apportion n choices =
  let total = float_of_int (List.fold_left (fun a (_, w) -> a + w) 0 choices) in
  let quotas = List.map (fun (x, w) -> (x, float_of_int (n * w) /. total)) choices in
  let floors = List.map (fun (x, q) -> (x, int_of_float q, q -. Float.floor q)) quotas in
  let short = n - List.fold_left (fun a (_, k, _) -> a + k) 0 floors in
  let by_rem = List.stable_sort (fun (_, _, a) (_, _, b) -> compare b a) floors in
  List.concat
    (List.mapi (fun i (x, k, _) -> List.init (if i < short then k + 1 else k) (fun _ -> x)) by_rem)

(* Arrivals of one class as a Poisson process over [secs] seconds at rate
   [rps], conditioned on its expected count: that many uniform arrival
   times. *)
let schedule rng ~cls ~first_id ~rps ~secs =
  let n = int_of_float (Float.round (rps *. secs)) in
  let times = List.sort compare (List.init n (fun _ -> Random.State.float rng secs)) in
  List.mapi
    (fun i ((bench, engine), due) -> { id = first_id + i; cls; bench; engine; due })
    (List.combine (Util.shuffle rng (apportion n choices)) times)

(* ------------------------------------------------------------------ *)
(* Daemon process *)

type daemon = { pid : int; sock : string }

let connect sock () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX sock);
    fd
  with e ->
    Unix.close fd;
    raise e

let read_line fd =
  match P.read_frame ~timeout:5.0 ~max_frame:(1 lsl 20) (P.reader fd) with
  | P.Frame line -> Some line
  | _ -> None

let ping sock =
  match connect sock () with
  | exception Unix.Unix_error _ -> false
  | fd ->
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          P.write_line fd "/ping";
          read_line fd = Some "pong")

let start () =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sock = Printf.sprintf "%s/serve-%d.sock" run_dir (Unix.getpid ()) in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile (run_dir ^ "/serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let args =
    [| vcilk; "serve"; "--quick"; "--no-cache"; "--workers"; string_of_int (Util.nproc ());
       "--socket"; sock; "--max-queue"; string_of_int max_queue |]
  in
  let pid = Unix.create_process vcilk args null null log in
  Unix.close null;
  Unix.close log;
  let deadline = Util.now () +. 60.0 in
  let rec wait () =
    if ping sock then ()
    else if Util.now () > deadline then begin
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid : int * Unix.process_status);
      failwith "serve: daemon did not answer /ping"
    end
    else begin
      Unix.sleepf 0.01;
      wait ()
    end
  in
  wait ();
  { pid; sock }

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid : int * Unix.process_status);
  try Unix.unlink d.sock with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Open-loop client *)

type sample = {
  r : req;
  mutable sent : float;
  mutable recv : float;
  mutable reply : P.reply option;
}

let field name (rep : P.reply) =
  match J.member name rep.r_raw with J.Null -> 0.0 | v -> J.to_float v

(* Send [reqs] at their due times (relative to now) round-robin over
   [conns] connections; wait up to [grace] seconds past the last due
   time for replies.  Returns the samples and the daemon's CPU seconds
   while the connections were open (their server threads end when they
   close). *)
let drive d ~conns ~grace reqs =
  let fds = Array.init conns (fun _ -> connect d.sock ()) in
  let samples = Hashtbl.create 4096 in
  let lock = Mutex.create () in
  List.iter
    (fun r -> Hashtbl.replace samples r.id { r; sent = 0.0; recv = 0.0; reply = None })
    reqs;
  let remaining = Atomic.make (List.length reqs) in
  let stop = Atomic.make false in
  let reader fd () =
    let rd = P.reader fd in
    let rec loop () =
      if Atomic.get stop then ()
      else
        match P.read_frame ~timeout:0.05 ~max_frame:(1 lsl 20) rd with
        | P.Frame line ->
            let t = Util.now () in
            (match P.parse_reply line with
            | Ok rep -> (
                match int_of_string_opt rep.r_id with
                | Some id ->
                    Mutex.protect lock (fun () ->
                        match Hashtbl.find_opt samples id with
                        | Some s when s.reply = None ->
                            s.recv <- t;
                            s.reply <- Some rep;
                            Atomic.decr remaining
                        | _ -> ())
                | None -> ())
            | Error _ -> ());
            loop ()
        | P.Timeout_frame -> loop ()
        | P.Eof | P.Oversized -> ()
    in
    loop ()
  in
  let readers = Array.to_list (Array.map (fun fd -> Thread.create (reader fd) ()) fds) in
  let cpu0 = Util.threads_cpu_seconds d.pid in
  let base = Util.now () +. 0.02 in
  let last_due = ref base in
  List.iteri
    (fun i r ->
      let due = base +. r.due in
      last_due := due;
      let wait = due -. Util.now () in
      if wait > 0.0 then Unix.sleepf wait;
      let s = Hashtbl.find samples r.id in
      s.sent <- Util.now ();
      try P.write_line fds.(i mod conns) (P.request_line (request_of r))
      with Unix.Unix_error _ -> ())
    reqs;
  while Atomic.get remaining > 0 && Util.now () < !last_due +. grace do
    Unix.sleepf 0.005
  done;
  let cpu = Util.threads_cpu_seconds d.pid -. cpu0 in
  Atomic.set stop true;
  List.iter Thread.join readers;
  Array.iter Unix.close fds;
  (* due times become absolute for the span view *)
  ( List.map
      (fun r ->
        let s = Hashtbl.find samples r.id in
        { s with r = { r with due = base +. r.due } })
      reqs,
    cpu )

let latency_ms s = (s.recv -. s.r.due) *. 1e3
let answered s = s.reply <> None
let ok s = match s.reply with Some rep -> rep.r_status = P.Ok_ | None -> false

let correct s =
  match s.reply with
  | Some rep when rep.r_status = P.Ok_ -> (
      match Pins.outcome ~quick:true s.r.bench with
      | Some p ->
          Pins.same_reducers p.reducers rep.r_reducers
          && p.tasks = rep.r_tasks && p.base_tasks = rep.r_base_tasks
      | None -> false)
  | _ -> false

let overloaded s =
  match s.reply with Some rep -> rep.r_status = P.Overloaded | None -> false

(* Warm the daemon's memo: every hit request once, one at a time. *)
let warm d =
  let reqs =
    List.mapi
      (fun i ((bench, engine), _) -> { id = 1_000_000 + i; cls = Hit; bench; engine; due = 0.0 })
      choices
  in
  List.iter
    (fun r ->
      match drive d ~conns:1 ~grace:60.0 [ r ] with
      | [ s ], _ -> Util.check (Printf.sprintf "serve warm-up %s/%s" r.bench r.engine) (correct s)
      | _ -> assert false)
    reqs

let setup () =
  let d = start () in
  warm d;
  d

let check_samples phase samples =
  List.iter
    (fun s ->
      let what = Printf.sprintf "serve %s request %d (%s %s)" phase s.r.id s.r.bench s.r.engine in
      Util.check
        (match s.reply with
        | None -> what ^ ": lost"
        | Some rep when rep.r_status <> P.Ok_ ->
            Printf.sprintf "%s: status %s" what (P.status_name rep.r_status)
        | Some _ -> what ^ ": reply diverges from the pinned outcome")
        (correct s))
    samples

(* accepted = completed_ok + completed_err + in_flight, from /stats *)
let check_conservation d =
  match Vc_serve.Loadgen.fetch_stats ~connect:(connect d.sock) with
  | None -> Util.check "serve: /stats unreachable" false
  | Some line ->
      let kv =
        String.split_on_char ' ' line
        |> List.filter_map (fun f ->
               match String.split_on_char '=' f with
               | [ k; v ] -> Option.map (fun v -> (k, v)) (float_of_string_opt v)
               | _ -> None)
      in
      let get k = Option.value ~default:nan (List.assoc_opt k kv) in
      Util.check
        (Printf.sprintf "serve: /stats conservation (%s)" line)
        (get "accepted" = get "completed_ok" +. get "completed_err" +. get "in_flight")

let quantile_of f samples q = Util.quantile (List.map f samples) q
let of_cls c = List.filter (fun s -> s.r.cls = c && answered s)
let round_trip_s s = s.recv -. s.sent

(* The nominal load: a hit phase, then a miss phase, each [secs] long.
   Returns the samples and the daemon's CPU seconds in each phase. *)
let nominal d rng ~secs =
  let conns = Util.nproc () in
  check_samples "settle"
    (fst
       (drive d ~conns ~grace:30.0
          (schedule rng ~cls:Hit ~first_id:3_000_000 ~rps:hit_rps ~secs:settle_secs)));
  let hits = schedule rng ~cls:Hit ~first_id:0 ~rps:hit_rps ~secs in
  let misses = schedule rng ~cls:Miss ~first_id:(List.length hits) ~rps:miss_rps ~secs in
  let hit_samples, hit_cpu = drive d ~conns ~grace:30.0 hits in
  let miss_samples, miss_cpu = drive d ~conns ~grace:30.0 misses in
  (hit_samples @ miss_samples, hit_cpu, miss_cpu)

let e2e ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  let setups = ref [] in
  let daemon = ref None in
  for i = 1 to 3 do
    let d, dt = Util.timed setup in
    setups := dt :: !setups;
    if i < 3 then stop d else daemon := Some d
  done;
  let d = Option.get !daemon in
  Fun.protect ~finally:(fun () -> stop d) (fun () ->
      let samples, hit_cpu, miss_cpu = nominal d rng ~secs:(seconds /. 2.0) in
      check_samples "nominal" samples;
      check_conservation d;
      Util.report "setup_s" "s" (Util.median !setups);
      Util.report "work_s" "s" (hit_cpu +. miss_cpu);
      Util.report "service_ms" "ms"
        (hit_cpu /. float_of_int (List.length (of_cls Hit samples)) *. 1e3);
      Util.report "peak_rss_mb" "MB" (Util.peak_rss_mb (string_of_int d.pid));
      Util.note "[serve] %d requests (%d hit, %d miss), daemon cpu %.2f s + %.2f s"
        (List.length samples) (List.length (of_cls Hit samples)) (List.length (of_cls Miss samples))
        hit_cpu miss_cpu)

(* ------------------------------------------------------------------ *)
(* Traced run *)

(* Spans are built after the fact from timestamps the untraced client
   takes anyway, so tracing adds no work to the measured loop.  A
   request's span runs from its due time to its reply; its children are
   the generator's lateness and the server's three phases, so its self
   time is the transport. *)
let spans_of ~root samples =
  List.iter
    (fun s ->
      match s.reply with
      | None -> ()
      | Some rep ->
          let id =
            Span.record ~req:s.r.id ~parent:root ~layer:"transport" ~t0:s.r.due ~t1:s.recv
              (Printf.sprintf "%s %s %s" (cls_name s.r.cls) s.r.bench s.r.engine)
          in
          let child layer t0 ms =
            let t1 = t0 +. (ms /. 1e3) in
            ignore (Span.record ~req:s.r.id ~parent:id ~layer ~t0 ~t1 layer : int);
            t1
          in
          let t = child "generator" s.r.due ((s.sent -. s.r.due) *. 1e3) in
          let t = child "serve.queue" t (field "queue_wait_ms" rep) in
          let t = child "serve.exec" t (field "exec_ms" rep) in
          ignore (child "serve.serialize" t (field "serialize_ms" rep) : float))
    samples

let run_ladder d rng ~rung_secs =
  let rec climb best first_id = function
    | [] -> best
    | rps :: rest ->
        let reqs = schedule rng ~cls:Miss ~first_id ~rps ~secs:rung_secs in
        let samples, _ = drive d ~conns:(Util.nproc ()) ~grace:(latency_limit_ms /. 1e3) reqs in
        let p99 = quantile_of latency_ms (of_cls Miss samples) 0.99 in
        let clean = List.for_all ok samples in
        let achieved =
          let last = List.fold_left (fun m s -> Float.max m s.recv) 0.0 samples in
          let first = List.fold_left (fun m s -> Float.min m s.r.due) infinity samples in
          float_of_int (List.length samples) /. (last -. first)
        in
        Util.note "[serve] ladder %.0f rps: miss p99 %.1f ms, all ok %b, achieved %.1f rps" rps p99
          clean achieved;
        if clean && p99 <= latency_limit_ms then climb achieved (first_id + List.length reqs) rest
        else best
  in
  climb 0.0 2_000_000 ladder

let traced ~full ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  let d, setup_s = Util.timed setup in
  Fun.protect ~finally:(fun () -> stop d) (fun () ->
      let secs = if full then seconds /. 2.0 else 2.0 in
      let t0 = Util.now () in
      let samples, _, _ = nominal d rng ~secs in
      let t1 = Util.now () in
      check_samples "traced" samples;
      (* The phase's own span is not a layer: its requests overlap.  The
         only work tracing adds is building the spans afterwards. *)
      let root, build_s =
        Util.timed (fun () ->
            let root =
              Span.record ~parent:0 ~layer:"open_loop" ~t0 ~t1
                (if full then "serve" else "probe serve")
            in
            spans_of ~root samples;
            root)
      in
      let hits = of_cls Hit samples and misses = of_cls Miss samples in
      let phase name ss q = quantile_of (fun s -> field name (Option.get s.reply)) ss q in
      let report = Util.report in
      report "serve.hit_samples" "count" (float_of_int (List.length hits));
      report "serve.miss_samples" "count" (float_of_int (List.length misses));
      report "serve.hit_p50_ms" "ms" (quantile_of latency_ms hits 0.5);
      report "serve.hit_p99_ms" "ms" (quantile_of latency_ms hits 0.99);
      report "serve.miss_p50_ms" "ms" (quantile_of latency_ms misses 0.5);
      report "serve.miss_p99_ms" "ms" (quantile_of latency_ms misses 0.99);
      let all_ok = List.filter ok samples in
      let hits_ok = List.filter ok hits and misses_ok = List.filter ok misses in
      let transport s = (round_trip_s s *. 1e3) -. (Option.get s.reply).r_wall_ms in
      report "serve.transport_ms.p50" "ms" (quantile_of transport all_ok 0.5);
      report "serve.transport_ms.p99" "ms" (quantile_of transport all_ok 0.99);
      report "serve.serialize_ms.p50" "ms" (phase "serialize_ms" all_ok 0.5);
      report "serve.exec_ms.hit.p50" "ms" (phase "exec_ms" hits_ok 0.5);
      report "serve.exec_ms.hit.p99" "ms" (phase "exec_ms" hits_ok 0.99);
      report "serve.exec_ms.miss.p50" "ms" (phase "exec_ms" misses_ok 0.5);
      report "serve.exec_ms.miss.p99" "ms" (phase "exec_ms" misses_ok 0.99);
      report "serve.queue_wait_ms.p50" "ms" (phase "queue_wait_ms" all_ok 0.5);
      report "serve.queue_wait_ms.p99" "ms" (phase "queue_wait_ms" all_ok 0.99);
      let count p = float_of_int (List.length (List.filter p samples)) in
      report "serve.overloaded" "count" (count overloaded);
      report "serve.lost" "count" (count (fun s -> not (answered s)));
      report "serve.divergences" "count" (count (fun s -> ok s && not (correct s)));
      report "gen.lateness_ms.p99" "ms"
        (quantile_of (fun s -> (s.sent -. s.r.due) *. 1e3) samples 0.99);
      let latency_s = Util.sum (List.map latency_ms (List.filter answered samples)) /. 1e3 in
      Util.note "[serve] traced: %d hit and %d miss samples, set-up %.3f s, spans built in %.4f s"
        (List.length hits) (List.length misses) setup_s build_s;
      if full then report "trace.overhead_frac" "ratio" (build_s /. latency_s);
      check_conservation d;
      let max_rps = run_ladder d rng ~rung_secs:(if full then 3.0 else 1.0) in
      report "serve.max_rps" "1/s" max_rps;
      (root, latency_s))
