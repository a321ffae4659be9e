type params = { size : int }

let default = { size = 3 }
let paper = { size = 4 }

type outcome = { x_wins : int; o_wins : int; draws : int }

(* Cells: 0 empty, 1 X, 2 O.  Player to move: 1 or 2. *)

let lines size =
  let n = size in
  let rows = List.init n (fun r -> List.init n (fun c -> (r * n) + c)) in
  let cols = List.init n (fun c -> List.init n (fun r -> (r * n) + c)) in
  let diag1 = [ List.init n (fun i -> (i * n) + i) ] in
  let diag2 = [ List.init n (fun i -> (i * n) + (n - 1 - i)) ] in
  List.map Array.of_list (rows @ cols @ diag1 @ diag2)

let winner ~lines board =
  let wins player =
    List.exists (fun line -> Array.for_all (fun i -> board.(i) = player) line) lines
  in
  if wins 1 then 1 else if wins 2 then 2 else 0

let full board = Array.for_all (fun c -> c <> 0) board

let reference { size } =
  let lines = lines size in
  let cells = size * size in
  let board = Array.make cells 0 in
  let tally = { x_wins = 0; o_wins = 0; draws = 0 } in
  let acc = ref tally in
  let rec go player =
    match winner ~lines board with
    | 1 -> acc := { !acc with x_wins = !acc.x_wins + 1 }
    | 2 -> acc := { !acc with o_wins = !acc.o_wins + 1 }
    | _ ->
        if full board then acc := { !acc with draws = !acc.draws + 1 }
        else
          for i = 0 to cells - 1 do
            if board.(i) = 0 then begin
              board.(i) <- player;
              go (3 - player);
              board.(i) <- 0
            end
          done
  in
  go 1;
  !acc

let minimax_value { size } =
  let lines = lines size in
  let cells = size * size in
  let board = Array.make cells 0 in
  let rec go player =
    match winner ~lines board with
    | 1 -> 1
    | 2 -> -1
    | _ ->
        if full board then 0
        else begin
          let best = ref (if player = 1 then -2 else 2) in
          for i = 0 to cells - 1 do
            if board.(i) = 0 then begin
              board.(i) <- player;
              let v = go (3 - player) in
              board.(i) <- 0;
              if player = 1 then best := max !best v else best := min !best v
            end
          done;
          !best
        end
  in
  go 1

let spec { size } =
  let lines = lines size in
  let cells = size * size in
  (* fields: player to move, then one field per cell *)
  let fields = "player" :: List.init cells (fun i -> Printf.sprintf "b%d" i) in
  let schema = Vc_core.Schema.create ~lane_kind:Vc_simd.Lane.I8 fields in
  let root = Array.make (cells + 1) 0 in
  root.(0) <- 1;
  (* The callbacks read the cell columns directly.  [line_fields] holds the
     cell fields of every line back to back, [size] per line. *)
  let line_fields = Array.concat (List.map (Array.map succ) lines) in
  let nlines = List.length lines in
  (* [winner ~lines] on the board in row [row]. *)
  let winner_at blk row =
    let x = ref false and o = ref false in
    for l = 0 to nlines - 1 do
      let first = l * size in
      let v = Vc_core.Block.get blk ~field:line_fields.(first) ~row in
      if v = 1 || v = 2 then begin
        let k = ref 1 in
        while !k < size && Vc_core.Block.get blk ~field:line_fields.(first + !k) ~row = v do
          incr k
        done;
        if !k = size then if v = 1 then x := true else o := true
      end
    done;
    if !x then 1 else if !o then 2 else 0
  in
  let full_at blk row =
    let i = ref 1 in
    while !i <= cells && Vc_core.Block.get blk ~field:!i ~row <> 0 do
      incr i
    done;
    !i > cells
  in
  {
    Vc_core.Spec.name = "minmax";
    description = Printf.sprintf "tic-tac-toe %dx%d outcome tally" size size;
    schema;
    num_spawns = cells;
    roots = [ root ];
    reducers =
      [
        ("x_wins", Vc_lang.Reducer.Sum);
        ("o_wins", Vc_lang.Reducer.Sum);
        ("draws", Vc_lang.Reducer.Sum);
      ];
    is_base = (fun blk row -> winner_at blk row <> 0 || full_at blk row);
    exec_base =
      (fun reducers blk row ->
        match winner_at blk row with
        | 1 -> Vc_lang.Reducer.reduce reducers "x_wins" 1
        | 2 -> Vc_lang.Reducer.reduce reducers "o_wins" 1
        | _ -> Vc_lang.Reducer.reduce reducers "draws" 1);
    spawn =
      (fun blk brow ~site ~dst ->
        if Vc_core.Block.get blk ~field:(site + 1) ~row:brow <> 0 then false
        else begin
          let player = Vc_core.Block.get blk ~field:0 ~row:brow in
          let child = Vc_core.Block.reserve dst in
          Vc_core.Block.set dst ~field:0 ~row:child (3 - player);
          for i = 0 to cells - 1 do
            Vc_core.Block.set dst ~field:(i + 1) ~row:child
              (Vc_core.Block.get blk ~field:(i + 1) ~row:brow)
          done;
          Vc_core.Block.set dst ~field:(site + 1) ~row:child player;
          true
        end);
    insns =
      {
        check_insns = 3 * ((2 * size) + 2);
        base_insns = 6;
        inductive_insns = 2;
        spawn_insns = 3 + cells; scalar_insns = 60 };
  }
