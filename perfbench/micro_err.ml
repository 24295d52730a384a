(* Fidelity: the simulator's error against the paper's own measurements.

   The terms are Table 2 (load, load with writeback, unload per object
   type), M1 (getpid through trap forwarding, 37 us) and M3 (soft-fault
   transfer 32 us, handler plus optimized load-and-resume 67 us, total
   99 us), each from [Workload.Micro] and compared with the 68040
   prototype's figures that [bench/main.ml] prints beside them.
   [paper_err_pct] is their mean relative error, in percent.  All of it
   runs outside the timed region. *)

let table2_paper =
  [
    ("Mappings", (45., 145., 160.));
    ("(optimized)", (67., 167., Float.nan));
    ("Threads", (113., 489., 206.));
    ("AddrSpaces", (101., 229., 152.));
    ("Kernel", (244., 291., 80.));
  ]

(** (row, simulated us, paper us) for every term with a paper value. *)
let terms () =
  let t2 =
    List.concat_map
      (fun (name, (t : Workload.Micro.op_times)) ->
        let pl, pw, pu = List.assoc name table2_paper in
        List.filter
          (fun (_, _, p) -> not (Float.is_nan p))
          [
            (name ^ " load", t.Workload.Micro.load, pl);
            (name ^ " load+wb", t.Workload.Micro.load_wb, pw);
            (name ^ " unload", t.Workload.Micro.unload, pu);
          ])
      (Workload.Micro.table2 ())
  in
  let f = Workload.Micro.fault_us () in
  t2
  @ [
      ("M1 getpid", Workload.Micro.ck_getpid_us (), 37.);
      ("M3 transfer", f.Workload.Micro.transfer_us, 32.);
      ("M3 load+resume", f.Workload.Micro.load_resume_us, 67.);
      ("M3 total", f.Workload.Micro.total_us, 99.);
    ]

let rel_err (_, sim, paper) = Float.abs (sim -. paper) /. paper

(** Mean relative error of [terms], in percent. *)
let err_pct terms =
  100.0 *. List.fold_left (fun acc t -> acc +. rel_err t) 0.0 terms /. float_of_int (max 1 (List.length terms))
