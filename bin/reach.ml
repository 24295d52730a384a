(* Which lib modules a measured workload reaches.

   The roots are the code a measurement runs: `ckos` (bin/ckos.ml, whose
   `bench` subcommand runs the scenario registry), every module of
   lib/workload, and the perfbench workloads (perfbench/*.ml but its
   self-test).  From them the walk follows module references
   transitively through the lib modules' implementations.

   A reference is read off the source text, comments and literals
   stripped: a path [L.M] names module [M] of the library whose wrapper
   is [L] (lib/core's [Cachekernel], lib/hw's [Hw], ...), and a bare [M]
   names a module of the file's own library or of one the file opens
   ([open L], [let open L in], [L.( ... )]).  The walk therefore
   over-approximates: a module named only in dead code or a type still
   counts as reached.  What it reports unreached, no measured run can
   execute. *)

type token = Uident of string | Lident of string | Dot | Lparen | Other

let is_ident_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* OCaml source as tokens, skipping (nested) comments, string and
   character literals. *)
let tokens src =
  let n = String.length src in
  let out = ref [] in
  let push tok = out := tok :: !out in
  let rec skip_string i =
    if i >= n then n
    else match src.[i] with '\\' -> skip_string (i + 2) | '"' -> i + 1 | _ -> skip_string (i + 1)
  in
  let rec skip_comment depth i =
    if i >= n then n
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then skip_comment (depth + 1) (i + 2)
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then
      if depth = 1 then i + 2 else skip_comment (depth - 1) (i + 2)
    else if src.[i] = '"' then skip_comment depth (skip_string (i + 1))
    else skip_comment depth (i + 1)
  in
  let rec ident_end i = if i < n && is_ident_char src.[i] then ident_end (i + 1) else i in
  let rec go i =
    if i < n then
      match src.[i] with
      | '(' when i + 1 < n && src.[i + 1] = '*' -> go (skip_comment 1 (i + 2))
      | '"' -> go (skip_string (i + 1))
      | '\'' when i + 2 < n && src.[i + 1] = '\\' ->
        (* an escaped character literal: '\n', '\000', '\'' *)
        go (match String.index_from_opt src (i + 3) '\'' with Some j -> j + 1 | None -> n)
      | '\'' when i + 2 < n && src.[i + 2] = '\'' -> go (i + 3)
      | 'A' .. 'Z' ->
        let j = ident_end i in
        push (Uident (String.sub src i (j - i)));
        go j
      | 'a' .. 'z' | '_' ->
        let j = ident_end i in
        push (Lident (String.sub src i (j - i)));
        go j
      | '.' ->
        push Dot;
        go (i + 1)
      | '(' ->
        push Lparen;
        go (i + 1)
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | _ ->
        push Other;
        go (i + 1)
  in
  go 0;
  List.rev !out

let read_file path = In_channel.with_open_bin path In_channel.input_all

type lib_module = {
  dir : string;  (** e.g. ["lib/aklib"] *)
  lib : string;  (** the library's wrapper module, e.g. ["Aklib"] *)
  name : string;  (** e.g. ["Backing_store"] *)
}

(* The library name a lib/<d>/dune file declares. *)
let lib_name dune =
  match Scanf.sscanf (read_file dune) " (library (name %[a-z0-9_]" Fun.id with
  | name -> Some (String.capitalize_ascii name)
  | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> None

let ml_files dir =
  Sys.readdir dir |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.sort compare

(* Every lib module, in directory then name order. *)
let lib_modules ~root =
  let lib_dir = Filename.concat root "lib" in
  Sys.readdir lib_dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun d ->
         let dir = Filename.concat lib_dir d in
         let dune = Filename.concat dir "dune" in
         match if Sys.file_exists dune then lib_name dune else None with
         | None -> []
         | Some lib ->
           List.map
             (fun f ->
               { dir = "lib/" ^ d; lib; name = String.capitalize_ascii (Filename.chop_suffix f ".ml") })
             (ml_files dir))

(* The lib modules [src] refers to; [own] is the file's library, if any. *)
let references mods ?own src =
  let toks = tokens src in
  let libs = List.sort_uniq compare (List.map (fun m -> m.lib) mods) in
  (* libraries opened anywhere in the file: [open L], [L.( ... )] *)
  let rec opened acc = function
    | Lident "open" :: Other :: Uident l :: rest | Lident "open" :: Uident l :: rest ->
      opened (l :: acc) rest
    | Uident l :: Dot :: Lparen :: rest -> opened (l :: acc) rest
    | _ :: rest -> opened acc rest
    | [] -> acc
  in
  let visible = Option.to_list own @ List.filter (fun l -> List.mem l libs) (opened [] toks) in
  let find lib name = List.find_opt (fun m -> m.lib = lib && m.name = name) mods in
  (* the rest of a path names things inside the module: [M.N] is [M] *)
  let rec past_path = function Dot :: Uident _ :: r -> past_path r | r -> r in
  let rec walk acc = function
    | Uident l :: Dot :: Uident m :: rest when List.mem l libs ->
      walk (Option.to_list (find l m) @ acc) (past_path rest)
    | Uident m :: rest -> walk (List.filter_map (fun l -> find l m) visible @ acc) (past_path rest)
    | _ :: rest -> walk acc rest
    | [] -> acc
  in
  walk [] toks

(** Every lib module with whether a measured workload reaches it, in
    directory then name order.  [root] is the repository root. *)
let reachability ~root =
  let mods = lib_modules ~root in
  let path m = Filename.concat root (Filename.concat m.dir (String.uncapitalize_ascii m.name ^ ".ml")) in
  let perfbench = Filename.concat root "perfbench" in
  let root_srcs =
    read_file (Filename.concat root "bin/ckos.ml")
    :: List.filter_map
         (fun f ->
           if String.starts_with ~prefix:"test_" f then None
           else Some (read_file (Filename.concat perfbench f)))
         (if Sys.file_exists perfbench then ml_files perfbench else [])
  in
  let seen = Hashtbl.create 64 in
  let rec visit m =
    if not (Hashtbl.mem seen (m.lib, m.name)) then begin
      Hashtbl.replace seen (m.lib, m.name) ();
      List.iter visit (references mods ~own:m.lib (read_file (path m)))
    end
  in
  List.iter visit (List.filter (fun m -> m.dir = "lib/workload") mods);
  List.iter (fun src -> List.iter visit (references mods src)) root_srcs;
  List.map (fun m -> (m, Hashtbl.mem seen (m.lib, m.name))) mods
