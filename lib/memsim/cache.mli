(** A set-associative LRU cache.

    One level of the simulated memory hierarchy.  Fed with the executors'
    actual address streams, it reproduces the paper's cache-miss figures
    (Figs. 11 and 13): the miss-rate cliffs appear exactly when a thread
    block's working set outgrows a level's capacity.

    Replacement is LRU, invalid ways first.  Each set keeps its ways in
    recency order (most recently used first, invalid ways at the tail), so
    a hit moves its way to the front and a miss evicts the last way; no
    per-way timestamps are stored. *)

type t

type config = {
  size_bytes : int;  (** total capacity *)
  ways : int;  (** associativity *)
  line_bytes : int;  (** cache-line size (64 on both paper platforms) *)
}

val config : t -> config

val create : config -> t
(** Raises [Invalid_argument] unless sizes are positive, the line and way
    counts divide evenly, and the set count is a power of two. *)

val access : t -> addr:int -> bool
(** Access the line containing [addr]; returns [true] on hit.  Updates LRU
    state and counters.  Call once per line touched (see {!access_range}).
    [addr] must be non-negative; it is not checked. *)

val access_range : t -> addr:int -> bytes:int -> int
(** Access every line overlapped by [addr, addr+bytes); returns the number
    of misses.  [addr] must be non-negative; it is not checked. *)

val line_shift : t -> int
(** [log2 line_bytes]: the line number of [addr] is [addr asr line_shift]. *)

val access_line : t -> int -> bool
(** [access_line t line] is [access t ~addr:(line lsl line_shift t)]
    without the shift, for callers that already hold a line number (the
    {!Hierarchy} walk).  [line] must be non-negative; it is not checked. *)

val accesses : t -> int
val misses : t -> int

val miss_rate : t -> float
(** [misses / accesses]; 0 when never accessed. *)

val reset_counters : t -> unit
(** Zero the counters, keeping cache contents (used to measure a region of
    interest after warm-up). *)

val clear : t -> unit
(** Invalidate all lines and zero the counters. *)

val lines : t -> int
(** Total number of lines (capacity / line size). *)

val resident_lines : t -> int
(** Number of currently valid lines — for inspecting fill state in tests. *)
