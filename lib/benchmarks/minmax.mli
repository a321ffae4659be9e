(** minmax: exhaustive game-tree search for tic-tac-toe (paper §6.1,
    benchmark 8, "min-max search for tic-tac-toe" — structurally similar
    to nqueens: large fan-out, leaves at almost every level).

    The task-parallel kernel explores the full game tree and reduces the
    outcome tallies (X wins / O wins / draws) — associative, commutative
    updates as Fig. 2 requires, in lieu of the minimax return value, which
    a spawn-only language cannot thread upward.  The native reference
    additionally computes the true minimax value (0 for tic-tac-toe) as an
    independent check of the same tree.

    Scaled to the 3×3 board (≈ 550k tasks); the paper's 4×4 board is
    accepted via {!params}. *)

type params = { size : int }
(** Board is [size × size]; win = a full row, column, or diagonal. *)

val default : params
(** 3×3. *)

val paper : params
(** 4×4 (2.4G tasks at depth 13 in the paper — simulator-hostile). *)

type outcome = { x_wins : int; o_wins : int; draws : int }

(** {1 Boards}

    A board is an array of [size * size] cells, row-major: 0 empty, 1 X,
    2 O. *)

val lines : int -> int array list
(** The cell indices of every winning line (rows, columns, both diagonals)
    of a [size × size] board. *)

val winner : lines:int array list -> int array -> int
(** 1 if X holds a full line, else 2 if O does, else 0. *)

val full : int array -> bool
(** No empty cell left. *)

val reference : params -> outcome
(** Exhaustive tally by native recursion. *)

val minimax_value : params -> int
(** True minimax value from X's perspective (+1 X win, 0 draw, -1 O win);
    0 for the 3×3 game. *)

val spec : params -> Vc_core.Spec.t
