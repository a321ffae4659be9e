exception Task_limit_exceeded of int

(* Growable parallel stacks of frames and depths.  Frames live in a Block
   so the spec's accessors apply; the block's rows are the stack slots.
   The loop only counts tasks, base tasks and pushes; their instruction
   weights are charged once, after the run, since nothing reads the
   counters before then. *)

let run ?(max_tasks = 200_000_000) ~(spec : Spec.t) ~(machine : Vc_mem.Machine.t) () =
  let m = Measure.create machine in
  let vm = m.Measure.vm in
  let isa = machine.Vc_mem.Machine.isa in
  let nfields = Schema.num_fields spec.Spec.schema in
  let elem = Schema.elem_bytes spec.Spec.schema ~isa in
  let reducers = Spec.make_reducers spec in
  let insns = spec.Spec.insns in
  let wall_start = Unix.gettimeofday () in

  (* The software stack. *)
  let stack = ref (Block.create ~label:"stack" m.Measure.addr ~schema:spec.Spec.schema ~isa ~capacity:1024) in
  let depths = ref (Array.make 1024 0) in
  let pushes = ref 0 in
  (* Append row [src_row] of [src] as a frame at [depth]. *)
  let push_row ~src ~src_row depth =
    stack := Block.ensure_room !stack m.Measure.addr ~extra:1;
    if Block.size !stack >= Array.length !depths then begin
      let grown = Array.make (2 * Array.length !depths) 0 in
      Array.blit !depths 0 grown 0 (Array.length !depths);
      depths := grown
    end;
    Block.copy_row ~src ~src_row ~dst:!stack;
    let row = Block.size !stack - 1 in
    !depths.(row) <- depth;
    (* frame spill: one scalar store per field, a column span apart.  The
       SoA transformation turns exactly these into packed vector stores,
       so they count as vectorizable work in the Table 3 split. *)
    Vc_simd.Vm.scalar_store vm
      ~addr:(Block.field_addr !stack ~field:0 ~row)
      ~stride:(Block.capacity !stack * elem) ~count:nfields ~bytes:elem;
    incr pushes
  in
  (* Scratch space for the popped frame ("registers") and for children in
     flight; modeled as register traffic, not memory. *)
  let scratch = Block.create ~label:"scratch" m.Measure.addr ~schema:spec.Spec.schema ~isa ~capacity:1 in
  let child_scratch =
    Block.create ~label:"child" m.Measure.addr ~schema:spec.Spec.schema ~isa
      ~capacity:(max 1 spec.Spec.num_spawns)
  in
  List.iter
    (fun frame ->
      Block.clear scratch;
      Block.push scratch frame;
      push_row ~src:scratch ~src_row:0 0)
    spec.Spec.roots;
  let tasks = ref 0 and base = ref 0 and live_peak = ref 0 in
  while Block.size !stack > 0 do
    incr tasks;
    if !tasks > max_tasks then raise (Task_limit_exceeded max_tasks);
    let top = Block.size !stack - 1 in
    let depth = !depths.(top) in
    (* the popped frame is live until its children are pushed *)
    if top + 1 > !live_peak then live_peak := top + 1;
    Metrics.tasks_at_level m.Measure.metrics ~depth ~n:1;
    (* pop: one scalar load per field, a column span apart *)
    Block.clear scratch;
    Block.copy_row ~src:!stack ~src_row:top ~dst:scratch;
    Vc_simd.Vm.scalar_load vm
      ~addr:(Block.field_addr !stack ~field:0 ~row:top)
      ~stride:(Block.capacity !stack * elem) ~count:nfields ~bytes:elem;
    Block.truncate !stack top;
    if spec.Spec.is_base scratch 0 then begin
      incr base;
      Metrics.base_at_level m.Measure.metrics ~depth ~n:1;
      spec.Spec.exec_base reducers scratch 0
    end
    else begin
      (* Collect children, then push them in reverse site order so the
         site-0 child is on top: left-to-right depth-first order. *)
      Block.clear child_scratch;
      for site = 0 to spec.Spec.num_spawns - 1 do
        ignore (spec.Spec.spawn scratch 0 ~site ~dst:child_scratch : bool)
      done;
      for child = Block.size child_scratch - 1 downto 0 do
        push_row ~src:child_scratch ~src_row:child (depth + 1)
      done
    end
  done;
  (* The per-run charges.  Every task pays its pop bookkeeping (2), check
     and scalar residue, then its base or inductive body (the latter with
     every spawn site); the scalar residue stays non-vectorizable under
     the transformation, so it is not kernel work, while each frame moved
     on a push or pop is. *)
  let inductive = !tasks - !base in
  let base_insns = !base * insns.Spec.base_insns in
  let inductive_insns =
    inductive
    * (insns.Spec.inductive_insns + (spec.Spec.num_spawns * insns.Spec.spawn_insns))
  in
  Vc_simd.Vm.scalar_ops vm
    ((!tasks * (2 + insns.Spec.check_insns + insns.Spec.scalar_insns))
    + base_insns + inductive_insns);
  Metrics.kernel_ops m.Measure.metrics
    (((!pushes + !tasks) * nfields)
    + (!tasks * insns.Spec.check_insns)
    + base_insns + inductive_insns);
  Metrics.live_threads m.Measure.metrics !live_peak;
  let wall = Unix.gettimeofday () -. wall_start in
  Measure.report m ~benchmark:spec.Spec.name ~strategy:"seq"
    ~reducers:(Vc_lang.Reducer.values reducers) ~wall_seconds:wall
