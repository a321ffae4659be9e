(* Reference values the benchmark checks every output against, kept in
   pinned.json next to this file: per-benchmark reducer values, task and
   base-task counts at both scales, the digest of every modeled quantity
   of the quick sweep (whole and sequential scope), and the number of paper claims. *)

module J = Vc_exp.Jsonx

type outcome = { reducers : (string * int) list; tasks : int; base_tasks : int }

let path = "perfbench/pinned.json"

let doc =
  lazy
    (match J.parse (Util.read_file path) with
    | Ok j -> j
    | Error e -> failwith (Printf.sprintf "%s: %s" path e))

let scale_name ~quick = if quick then "quick" else "full"

let outcome ~quick name =
  match J.member name (J.member "benchmarks" (Lazy.force doc)) with
  | J.Null -> None
  | b -> (
      match J.member (scale_name ~quick) b with
      | J.Null -> None
      | o ->
          Some
            {
              reducers =
                List.map (fun (k, v) -> (k, J.to_int v)) (J.obj_fields (J.member "reducers" o));
              tasks = J.to_int (J.member "tasks" o);
              base_tasks = J.to_int (J.member "base_tasks" o);
            })

let sweep_digest () = J.to_str (J.member "sweep_digest" (Lazy.force doc))
let sweep_seq_digest () = J.to_str (J.member "sweep_seq_digest" (Lazy.force doc))
let claims () = J.to_int (J.member "claims" (Lazy.force doc))

let same_reducers a b = List.sort compare a = List.sort compare b

(* Compare one observed outcome with its pin; [what] names the run. *)
let check ~quick ~what name (o : outcome) =
  match outcome ~quick name with
  | None -> Util.check (Printf.sprintf "%s: no %s pin for %s" what (scale_name ~quick) name) false
  | Some p ->
      Util.check
        (Printf.sprintf "%s: reducers/tasks differ from the pin" what)
        (same_reducers p.reducers o.reducers && p.tasks = o.tasks
        && p.base_tasks = o.base_tasks)

let to_json (o : outcome) =
  J.Obj
    [
      ("reducers", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) o.reducers));
      ("tasks", J.Int o.tasks);
      ("base_tasks", J.Int o.base_tasks);
    ]
