(* A benchmark scenario: a named experiment that returns its result rows
   once, plus named gate verdicts.  Scenarios do no printing and write no
   files; the `ckos bench` runner prints the rows with {!table} and merges
   them into BENCH_metrics.json with {!merge}. *)

open Cachekernel

type result = { rows : Json.t list; gates : (string * bool) list }

type t = { name : string; title : string; run : unit -> result }

(* -- row fields -- *)

let int k v = (k, Json.Int v)

(* JSON has no NaN or infinity: a missing value is null *)
let num k v = (k, if Float.is_finite v then Json.Float v else Json.Null)
let opt_num k = function Some v -> num k v | None -> (k, Json.Null)
let str k v = (k, Json.String v)
let flag k v = (k, Json.Bool v)

(** Ungated rows. *)
let rows l = { rows = List.map (fun r -> Json.Obj r) l; gates = [] }

(* -- table rendering -- *)

let rec cell = function
  | Json.Null -> "-"
  | Json.Bool b -> string_of_bool b
  | Json.Int i -> string_of_int i
  | Json.Float f when f <> 0.0 && Float.abs f < 1.0 -> Printf.sprintf "%.4f" f
  | Json.Float f -> Printf.sprintf "%.2f" f
  | Json.String s -> s
  | Json.List l -> "[" ^ String.concat "; " (List.map cell l) ^ "]"
  | Json.Obj _ as o -> Json.to_string o

let fields = function Json.Obj f -> f | _ -> []

(** Rows as aligned text: consecutive rows with the same keys share one
    header; a change of keys starts a new block. *)
let table rows =
  let b = Buffer.create 1024 in
  let block = function
    | [] -> ()
    | first :: _ as rs ->
      let header = List.map fst (fields first) in
      let body = List.map (fun r -> List.map (fun (_, v) -> cell v) (fields r)) rs in
      let widths =
        List.fold_left
          (List.map2 (fun w c -> max w (String.length c)))
          (List.map String.length header) body
      in
      List.iter
        (fun line ->
          List.iter2 (fun w c -> Printf.bprintf b "  %*s" w c) widths line;
          Buffer.add_char b '\n')
        (header :: body)
  in
  let rec split acc cur = function
    | [] -> List.rev (List.rev cur :: acc)
    | r :: rest -> (
      match cur with
      | prev :: _ when List.map fst (fields prev) <> List.map fst (fields r) ->
        split (List.rev cur :: acc) [ r ] rest
      | _ -> split acc (r :: cur) rest)
  in
  List.iteri
    (fun i rs ->
      if i > 0 then Buffer.add_char b '\n';
      block rs)
    (split [] [] rows);
  Buffer.contents b

(** Replace [name]'s entry in the JSON object stored at [path] (created,
    or started afresh if it does not parse as an object). *)
let merge path name entry =
  let kept =
    match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
    | Json.Obj f -> List.filter (fun (k, _) -> k <> name) f
    | _ | (exception _) -> []
  in
  Json.to_file path (Json.Obj (kept @ [ (name, entry) ]))

let to_json s r =
  Json.Obj
    [
      ("title", Json.String s.title);
      ("rows", Json.List r.rows);
      ("gates", Json.Obj (List.map (fun (g, ok) -> (g, Json.Bool ok)) r.gates));
    ]
