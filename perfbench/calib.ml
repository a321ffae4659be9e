(* The host-speed reference.  On a shared host the speed of
   allocation-heavy code drifts by up to ~40% over minutes, for every
   process alike, so a time taken in one run says as much about the
   host's neighbours as about the program.  The exec and sweep
   workloads, which time such code on one domain, run this fixed
   computation, owned by the benchmark, beside what they time and scale
   each time by a nominal time of the reference over its best time
   there: a time at nominal host speed.  The sweep runs it whole before
   its first round and after every round ([sample]); runs and renderings
   run its miniature right beside them ([micro]).  A change to the
   program cannot move the reference; a change of the host's speed moves
   both.

   The computation is exhaustive minimax over tic-tac-toe, copying the
   board at every move, so it recurses and allocates the way the
   engine's native specs do. *)

let lines =
  [| (0, 1, 2); (3, 4, 5); (6, 7, 8); (0, 3, 6); (1, 4, 7); (2, 5, 8); (0, 4, 8); (2, 4, 6) |]

let winner b =
  Array.fold_left
    (fun w (x, y, z) -> if w = 0 && b.(x) <> 0 && b.(x) = b.(y) && b.(y) = b.(z) then b.(x) else w)
    0 lines

(* Value of [b] with [p] to move (+1 maximises), counting the nodes. *)
let rec minimax b p nodes =
  incr nodes;
  match winner b with
  | 0 ->
      let best = ref None in
      for i = 0 to 8 do
        if b.(i) = 0 then begin
          let c = Array.copy b in
          c.(i) <- p;
          let v = minimax c (-p) nodes in
          best :=
            Some (match !best with None -> v | Some w -> if p = 1 then max v w else min v w)
        end
      done;
      Option.value ~default:0 !best
  | w -> w

(* About the reference's best time on an idle host of the kind the
   benchmark was tuned on. *)
let nominal_s = 0.05

(* Every sample of the run, for the record. *)
let samples = ref []

(* Best of five runs of the reference: the host's speed now.  With
   three, the factor's own noise (its best time moved by ~10% between
   neighbouring samples on a quiet host) made a steady workload less
   steady.  A wrong result is a broken host. *)
let sample () =
  let best = ref infinity in
  for _ = 1 to 5 do
    let nodes = ref 0 in
    let v, dt = Util.timed (fun () -> minimax (Array.make 9 0) 1 nodes) in
    Util.check "reference computation: tic-tac-toe is a draw over 549946 nodes"
      (v = 0 && !nodes = 549946);
    best := Float.min !best dt
  done;
  samples := !best :: !samples;
  !best

(* The factor that takes a time measured between two samples to nominal
   host speed. *)
let factor ~before ~after = nominal_s /. Float.min before after

let range () =
  (List.fold_left Float.min infinity !samples, List.fold_left Float.max 0.0 !samples)

(* The reference in miniature: the same minimax from a mid-game board
   (206 nodes, ~12 us).  The host's speed changes in spells of seconds,
   within a round as well as between rounds, so the whole reference, run
   around a round, samples another moment than the one a run or a
   rendering takes.  The miniature runs right beside each timed run or
   rendering instead, and the time is scaled by [micro_nominal_s] over
   the miniature's best time there. *)
let micro_board = [| 1; -1; 1; 0; -1; 0; 0; 0; 0 |]
let micro_nominal_s = 12e-6

(* Wrong results of the miniature; [check_micro] turns them into one
   failed check, so its thousands of runs do not swell [attempted]. *)
let micro_wrong = ref 0

let micro () =
  let nodes = ref 0 in
  let v, dt = Util.timed (fun () -> minimax (Array.copy micro_board) 1 nodes) in
  if v <> 0 || !nodes <> 206 then incr micro_wrong;
  dt

(* Best of [n] runs of the miniature: the host's speed at this moment. *)
let micro_best n = List.fold_left (fun m _ -> Float.min m (micro ())) infinity (List.init n Fun.id)

let micro_factor ~before ~after = micro_nominal_s /. Float.min before after

let check_micro () =
  Util.check "micro reference: the mid-game board is a draw over 206 nodes" (!micro_wrong = 0)
