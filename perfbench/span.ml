(* In-memory spans recorded around the benchmark's calls into each layer.

   A span has a name, the layer it times, a start and end on the
   monotonic clock, the span that caused it and, for serve traffic, the
   request it belongs to.  Spans stay in memory and are written out once,
   when the run ends.  With tracing off, [with_] is a plain call. *)

type t = {
  id : int;
  parent : int;  (** 0 = a root *)
  name : string;
  layer : string;
  t0 : float;
  t1 : float;
  req : int;  (** request id, -1 outside serve traffic *)
}

let enabled = ref false
let spans : t list ref = ref []
let next = ref 0
let lock = Mutex.create ()

(* Parent stack of the main thread; threads record explicit spans. *)
let stack : int list ref = ref []

let fresh () = Mutex.protect lock (fun () -> incr next; !next)
let current () = match !stack with id :: _ -> id | [] -> 0

let record ?(req = -1) ?id ~parent ~layer ~t0 ~t1 name =
  let id = match id with Some id -> id | None -> fresh () in
  if !enabled then
    Mutex.protect lock (fun () ->
        spans := { id; parent; name; layer; t0; t1; req } :: !spans);
  id

let with_ ~layer name f =
  if not !enabled then f ()
  else begin
    let id = fresh () in
    let parent = current () in
    stack := id :: !stack;
    let t0 = Util.now () in
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        ignore (record ~id ~parent ~layer ~t0 ~t1:(Util.now ()) name : int))
      f
  end

(* Run [f] as the root of a new span tree; returns its result and the
   root's id. *)
let root ~layer name f =
  let saved = !stack in
  stack := [];
  let id = ref 0 in
  let r =
    with_ ~layer name (fun () ->
        id := current ();
        f ())
  in
  stack := saved;
  (r, !id)

(* Self time per layer over the tree under [root]: a span's duration
   minus the part its direct children cover. *)
let self_times root =
  let all = Mutex.protect lock (fun () -> !spans) in
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.add children s.parent s) all;
  let by_layer = Hashtbl.create 16 in
  let rec walk s =
    let kids = Hashtbl.find_all children s.id in
    let covered = List.fold_left (fun acc k -> acc +. (k.t1 -. k.t0)) 0.0 kids in
    let self = Float.max 0.0 (s.t1 -. s.t0 -. covered) in
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_layer s.layer) in
    Hashtbl.replace by_layer s.layer (prev +. self);
    List.iter walk kids
  in
  List.iter walk (List.filter (fun s -> s.id = root) all);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_layer []
  |> List.sort compare

(* What tracing cost the tree under [root], as a share of its duration:
   its span count × the measured cost of recording one span. *)
let overhead_frac ?(n = 20_000) root =
  let all = Mutex.protect lock (fun () -> !spans) in
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.add children s.parent s) all;
  let rec size id =
    List.fold_left (fun a k -> a + size k.id) 1 (Hashtbl.find_all children id)
  in
  let duration = List.fold_left (fun d s -> if s.id = root then s.t1 -. s.t0 else d) 0.0 all in
  let t0 = Util.now () in
  for _ = 1 to n do
    with_ ~layer:"probe" "probe" (fun () -> ())
  done;
  let per_span = (Util.now () -. t0) /. float_of_int n in
  Mutex.protect lock (fun () -> spans := all);
  float_of_int (size root) *. per_span /. duration

(* Chrome trace-event format: open in chrome://tracing or Perfetto. *)
let write path =
  let all = List.rev (Mutex.protect lock (fun () -> !spans)) in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  let event s =
    Vc_exp.Jsonx.Obj
      [
        ("name", String s.name);
        ("cat", String s.layer);
        ("ph", String "X");
        ("ts", Float ((s.t0 -. base) *. 1e6));
        ("dur", Float ((s.t1 -. s.t0) *. 1e6));
        ("pid", Int 1);
        ("tid", Int (max 0 s.req));
        ("args", Obj [ ("id", Int s.id); ("parent", Int s.parent); ("req", Int s.req) ]);
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Vc_exp.Jsonx.to_string (List (List.map event all)));
      output_char oc '\n')
