(** Sequential depth-first execution of a {!Spec.t} — the baseline every
    speedup in the paper is measured against (Table 1's "Time" column).

    A software stack of frames is walked depth-first; each task pays its
    kernel instruction weights as scalar instructions plus the per-frame
    stack traffic, all routed through the cost model, so the baseline's
    cycles are measured under exactly the same model as the vectorized
    runs.

    Stack traffic is charged per frame: each push and pop is one strided
    scalar store or load (one element per SoA column), so the cache model
    sees every field access in field order.  Instruction weights are
    charged per run: the loop counts tasks, base tasks and pushes, and
    the scalar and kernel instruction counts, the per-level task counts
    and the live-frame peak are added to the counters once, after the
    last task.  Issue cycles are a function of the final counts, so the
    report is the same as charging each task as it runs. *)

exception Task_limit_exceeded of int

val run :
  ?max_tasks:int ->
  spec:Spec.t ->
  machine:Vc_mem.Machine.t ->
  unit ->
  Report.t
(** [max_tasks] (default 200M) guards runaway specs. *)
