(* The benchmark command: one workload, one seed.

     main.exe --workload pager|unix|cluster --seed N --seconds S --trace 0|1
              [--trace-out FILE]

   Runs the workload untraced, fresh each time, for [--seconds] (at least
   three runs), then once more traced.  Every simulated metric and every
   per-layer simulator count must repeat bit for bit across all of those
   runs, or the command exits 3: a difference is a fault in the
   benchmark, not a slowdown.  It prints each metric with its unit and
   sample count, then, as its last line, one JSON object: the end-to-end
   metrics (from the untraced runs) with [--trace 0], the per-layer ones
   (from the traced run) with [--trace 1].  See README.md. *)

open Perfbench
open Cachekernel

let workloads = [ ("pager", Pager.run); ("unix", Unix_wl.run); ("cluster", Cluster_wl.run) ]

(* the medians need a few runs whatever --seconds says; the cap bounds a
   very short workload *)
let min_runs = 3
let max_runs = 40

type sample = {
  o : Common.outcome;
  minor_words : float;
  promoted_words : float;
  major_collections : float;
  cpu_per_wall : float;
}

(** One untraced run from a compacted heap, with its GC and CPU deltas. *)
let measure run =
  Gc.compact ();
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let g0 = Gc.quick_stat () and c0 = cpu () and w0 = Unix.gettimeofday () in
  let o = run () in
  let g1 = Gc.quick_stat () and c1 = cpu () and w1 = Unix.gettimeofday () in
  {
    o;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_collections = float_of_int (g1.Gc.major_collections - g0.Gc.major_collections);
    cpu_per_wall = (c1 -. c0) /. (w1 -. w0);
  }

(** Peak resident set of this process so far (VmHWM), in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0.0
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

(** What must repeat bit for bit across runs of one seed. *)
let signature (o : Common.outcome) =
  ( [ ("ops", float_of_int o.Common.ops);
      ("steps", float_of_int o.Common.steps);
      ("attempted", float_of_int (Pct.attempted o.Common.tally));
      ("failed", float_of_int (Pct.failed o.Common.tally)) ]
    @ o.Common.sim @ o.Common.counts )

let first_difference a b =
  List.find_map
    (fun ((k, v), (_, v')) -> if v <> v' then Some (Printf.sprintf "%s: %.17g vs %.17g" k v v') else None)
    (List.combine a b)

(** Host ns per KB to encode and to decode the captured images. *)
let codec_ns_per_kb images =
  let enc = ref 0 and dec = ref 0 and bytes = ref 0 in
  List.iter
    (fun img ->
      let t0 = Spans.now_ns () in
      let b = Migrate.Codec.encode img in
      let t1 = Spans.now_ns () in
      (match Migrate.Codec.decode b with
      | Ok _ -> ()
      | Error e -> Printf.eprintf "perfbench: codec round trip failed: %s\n" e);
      let t2 = Spans.now_ns () in
      enc := !enc + (t1 - t0);
      dec := !dec + (t2 - t1);
      bytes := !bytes + Bytes.length b)
    images;
  let kb = float_of_int (max 1 !bytes) /. 1024.0 in
  (float_of_int !enc /. kb, float_of_int !dec /. kb)

let line name value unit note = Printf.printf "  %-26s %16.4f %-9s %s\n" name value unit note

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and trace_out = ref "" in
  let usage = "main.exe --workload pager|unix|cluster --seed N --seconds S --trace 0|1 [--trace-out FILE]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME pager, unix or cluster");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S untraced measuring time");
      ("--trace", Arg.Set_int trace, "0|1 print end-to-end (0) or per-layer (1) metrics");
      ("--trace-out", Arg.Set_string trace_out, "FILE Chrome trace-event JSON of the traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some r -> r
    | None ->
      prerr_endline usage;
      exit 2
  in
  let seed = !seed in
  Printf.printf "perfbench %s, seed %d\n" !workload seed;
  (* fidelity terms first, outside every timed region *)
  let terms = Micro_err.terms () in
  let deadline = Unix.gettimeofday () +. !seconds in
  let rec untraced acc n =
    if n >= max_runs || (n >= min_runs && Unix.gettimeofday () >= deadline) then List.rev acc
    else untraced (measure (fun () -> run ~seed ~traced:false) :: acc) (n + 1)
  in
  (* peak RSS of one run from a fresh process, not of however many runs
     fit in --seconds *)
  let first = measure (fun () -> run ~seed ~traced:false) in
  let rss = peak_rss_mb () in
  let samples = untraced [ first ] 1 in
  Gc.compact ();
  let rec_ = Spans.start () in
  let t0 = Spans.now_ns () in
  let tr = run ~seed ~traced:true in
  let enc_ns, dec_ns = Spans.span ~cat:"migrate" "codec" (fun () -> codec_ns_per_kb tr.Common.images) in
  let t1 = Spans.now_ns () in
  Spans.stop ();
  (* determinism: every untraced run and the traced one agree exactly *)
  let reference = signature tr in
  List.iteri
    (fun i s ->
      match first_difference reference (signature s.o) with
      | None -> ()
      | Some d ->
        Printf.eprintf "perfbench: run %d differs from the traced run (%s): not deterministic\n" i d;
        exit 3)
    samples;
  let o = (List.hd samples).o in
  let med f = Pct.median (List.map f samples) in
  let get l k = Option.value (List.assoc_opt k l) ~default:0.0 in
  let sim k = get o.Common.sim k in
  let runs = List.length samples in
  let ops = float_of_int o.Common.ops in
  let hit, fault = Spans.op_durations rec_ in
  (* sample count of a percentile's population *)
  let n = function
    | "op_hit" -> List.length hit
    | "op_fault" -> List.length fault
    | k -> int_of_float (get (o.Common.sim @ o.Common.counts) ("n." ^ k))
  in
  (* the percentile rule: every percentile names its population and is
     printed with its sample count, flagged when fewer than ten samples
     lie beyond it *)
  let tails =
    [
      ("sim_fault_p50_us", ("fault", 0.5));
      ("sim_fault_p99_us", ("fault", 0.99));
      ("sim_trap_p50_us", ("trap", 0.5));
      ("sim_trap_p99_us", ("trap", 0.99));
      ("sim_pause_p50_us", ("pause", 0.5));
      ("sim_pause_p90_us", ("pause", 0.9));
      ("core.wb_mapping_p50_us", ("wb_mapping", 0.5));
      ("core.dispatch_p50_us", ("dispatch", 0.5));
      ("core.dispatch_p99_us", ("dispatch", 0.99));
      ("core.cow_p50_us", ("cow", 0.5));
      ("srm.restart_p50_us", ("restart", 0.5));
      ("span.op_hit_ns_p50", ("op_hit", 0.5));
      ("span.op_hit_ns_p99", ("op_hit", 0.99));
      ("span.op_fault_ns_p50", ("op_fault", 0.5));
      ("span.op_fault_ns_p99", ("op_fault", 0.99));
    ]
  in
  let reportable k = let c, q = List.assoc k tails in Pct.reportable ~n:(n c) q in
  let note_of k =
    match List.assoc_opt k tails with
    | None -> ""
    | Some (c, q) -> (
      let n = n c in
      if Pct.reportable ~n q then Printf.sprintf "n=%d" n
      else
        match Pct.tail_q n with
        | Some a -> Printf.sprintf "n=%d: too few, p%g is the highest reportable" n (100. *. a)
        | None -> Printf.sprintf "n=%d: too few for any percentile" n)
  in
  let e2e =
    [
      ("setup_s", med (fun s -> s.o.Common.setup_s), "s", Printf.sprintf "median of %d runs" runs);
      ("peak_rss_mb", rss, "MB", "VmHWM after the first run");
      ("sim_us_per_op", sim "sim_us_per_op", "us", Printf.sprintf "%d ops" o.Common.ops);
      ("sim_fault_p50_us", sim "sim_fault_p50_us", "us", note_of "sim_fault_p50_us");
      ("sim_fault_p99_us", sim "sim_fault_p99_us", "us", note_of "sim_fault_p99_us");
      ("paper_err_pct", Micro_err.err_pct terms, "%", Printf.sprintf "%d terms" (List.length terms));
    ]
  in
  (* the end-to-end tails are gated: a workload too small for them is a
     fault in the benchmark *)
  List.iter
    (fun k ->
      if not (reportable k) then begin
        Printf.eprintf "perfbench: %s not reportable (%s)\n" k (note_of k);
        exit 4
      end)
    [ "sim_fault_p50_us"; "sim_fault_p99_us" ];
  let setup_of k = get tr.Common.setup k in
  let tally = o.Common.tally in
  let count k u = (k, get o.Common.counts k, u, note_of k) in
  let layer =
    [
      ( "ops_per_s",
        med (fun s -> float_of_int s.o.Common.ops /. s.o.Common.run_s),
        "1/s",
        Printf.sprintf "median of %d untraced runs, %d ops each" runs o.Common.ops );
      count "hw.tlb_miss_ratio" "ratio";
      count "hw.net_frames" "count";
      count "hw.net_dropped" "count";
      count "core.steps_per_op" "steps/op";
      ( "core.host_ns_per_step",
        med (fun s -> s.o.Common.run_s *. 1e9 /. float_of_int (max 1 s.o.Common.steps)),
        "ns",
        Printf.sprintf "median of %d runs" runs );
      count "core.faults_per_op" "faults/op";
      count "core.mapping_displacements" "count";
      count "core.wb_mapping_p50_us" "us";
      count "core.traps_per_op" "traps/op";
      count "core.dispatch_p50_us" "us";
      count "core.dispatch_p99_us" "us";
      count "core.preemptions" "count";
      count "core.thread_loads" "count";
      count "core.thread_writebacks" "count";
      count "core.cow_p50_us" "us";
      count "core.audit_violations" "count";
      count "aklib.soft_faults" "count";
      count "aklib.zero_fills" "count";
      count "aklib.page_in_faults" "count";
      count "aklib.cow_faults" "count";
      count "aklib.evictions" "count";
      count "aklib.page_ins" "count";
      count "aklib.page_outs" "count";
      count "aklib.readback_mismatches" "count";
      count "unix.syscalls" "count";
      count "unix.spawned" "count";
      count "unix.exited" "count";
      count "unix.syscall_errors" "count";
      count "srm.suspects" "count";
      count "srm.deaths" "count";
      count "srm.false_deaths" "count";
      count "srm.self_fenced" "count";
      count "srm.restarts" "count";
      count "srm.restart_p50_us" "us";
      count "srm.balance_moves" "count";
      count "migrate.moves" "count";
      count "migrate.committed" "count";
      count "migrate.abandoned" "count";
      count "migrate.retransmits" "count";
      count "migrate.bytes_out" "bytes";
      count "migrate.chunks_out" "count";
    ]
    @ [
        ("migrate.encode_ns_per_kb", enc_ns, "ns/KB", Printf.sprintf "%d images" (List.length tr.Common.images));
        ("migrate.decode_ns_per_kb", dec_ns, "ns/KB", "");
        ("gc.minor_words_per_op", med (fun s -> s.minor_words /. ops), "words/op", Printf.sprintf "median of %d runs" runs);
        ("gc.promoted_words_per_op", med (fun s -> s.promoted_words /. ops), "words/op", "");
        ("gc.major_collections", med (fun s -> s.major_collections), "count", "");
        ("gc.minor_s", Spans.gc_seconds rec_ "gc.minor", "s", "traced run");
        ("gc.major_s", Spans.gc_seconds rec_ "gc.major_slice", "s", "traced run");
        ("host.cpu_per_wall", med (fun s -> s.cpu_per_wall), "ratio", "");
        ("span.setup.machine_s", setup_of "machine", "s", "traced run");
        ("span.setup.boot_s", setup_of "boot", "s", "");
        ("span.setup.inputs_s", setup_of "inputs", "s", "");
        ("span.setup.spawn_s", setup_of "spawn", "s", "");
        ("span.op_hit_ns_p50", Pct.quantile 0.5 hit, "ns", note_of "span.op_hit_ns_p50");
        ("span.op_hit_ns_p99", Pct.quantile 0.99 hit, "ns", note_of "span.op_hit_ns_p99");
        ("span.op_fault_ns_p50", Pct.quantile 0.5 fault, "ns", note_of "span.op_fault_ns_p50");
        ("span.op_fault_ns_p99", Pct.quantile 0.99 fault, "ns", note_of "span.op_fault_ns_p99");
        ("span.trace_overhead", (tr.Common.run_s /. med (fun s -> s.o.Common.run_s)) -. 1.0, "ratio", "traced / untraced engine time - 1");
        ("span.coverage", Spans.coverage (Spans.top_level rec_) ~t0 ~t1, "ratio", "top-level spans / traced wall");
      ]
    @ List.map
        (fun k -> (k, sim k, "us", note_of k))
        [ "sim_trap_p50_us"; "sim_trap_p99_us"; "sim_pause_p50_us"; "sim_pause_p90_us"; "sim_recover_us" ]
    @ [ ("failed_ratio", Pct.failed_ratio tally, "ratio", Printf.sprintf "%d of %d" (Pct.failed tally) (Pct.attempted tally)) ]
  in
  Printf.printf "untraced runs, ops/s:%s\n"
    (String.concat ""
       (List.map (fun s -> Printf.sprintf " %.0f" (float_of_int s.o.Common.ops /. s.o.Common.run_s)) samples));
  Printf.printf "end-to-end (untraced):\n";
  List.iter (fun (k, v, u, note) -> line k v u note) e2e;
  Printf.printf "paper terms (simulated vs paper, us):\n";
  List.iter (fun ((name, s, p) as t) -> Printf.printf "  %-24s %8.1f %8.1f  err %5.1f%%\n" name s p (100. *. Micro_err.rel_err t)) terms;
  Printf.printf "per-layer (counts repeat in every run; host times from the traced run):\n";
  List.iter (fun (k, v, u, note) -> line k v u note) layer;
  Printf.printf "host time by layer (traced run, s): total / self\n";
  List.iter (fun (cat, total, self) -> Printf.printf "  %-14s %9.4f %9.4f\n" cat total self) (Spans.layer_split rec_);
  let gc = Spans.gc_seconds rec_ "gc.minor" +. Spans.gc_seconds rec_ "gc.major_slice" in
  Printf.printf "  %-14s %9.4f %9.4f\n" "gc" gc gc;
  if rec_.Spans.tags_lost > 0 then
    Printf.printf "WARNING per-op fault tags: %d trace entries lost between drains\n" rec_.Spans.tags_lost;
  List.iter (fun (what, k) -> if k > 0 then Printf.printf "FINDING %s: %d\n" what k) o.Common.findings;
  if !trace = 1 && !trace_out <> "" then
    Json.to_file !trace_out
      (Spans.to_chrome ~origin:t0
         ~names:((0, "benchmark") :: (1000, "ocaml gc") :: List.init 64 (fun i -> (1 + i, Printf.sprintf "node %d" i)))
         rec_);
  (* known, pre-registered defects count as failures but do not mark the
     run's outputs as unchecked; anything else failing does *)
  let known = List.fold_left (fun acc (_, k) -> acc + k) 0 o.Common.findings in
  let metrics = if !trace = 1 then layer else e2e in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (Pct.failed tally = known));
            ("attempted", Json.Int (Pct.attempted tally));
            ("failed", Json.Int (Pct.failed tally));
            ( "metrics",
              Json.Obj (List.map (fun (k, v, u, _) -> (k, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ])) metrics) );
          ]))
