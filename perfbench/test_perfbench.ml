(* Self-tests of the benchmark's own rules: seeded inputs, the percentile
   rule, interpolated histogram percentiles, self time, failure accounting
   and the fidelity error. *)

open Perfbench

let inputs_for seed =
  [
    Gen.digest (Gen.pager ~seed ~spaces:2 ~pages:64 ~accesses:500 ~zipf_s:0.9 ~write_frac:0.3);
    Gen.digest (Gen.unix ~seed ~waves:2 ~per_wave:6);
    Gen.digest (Gen.cluster ~seed ~nodes:8 ~moves:10 ~window_us:1000.0 ~hot_nodes:2 ~victim:7);
  ]

let test_inputs_deterministic () =
  List.iter2
    (fun a b -> Alcotest.(check string) "same seed, same bytes" a b)
    (inputs_for 42) (inputs_for 42);
  List.iter2
    (fun a b -> Alcotest.(check bool) "other seed, other bytes" true (a <> b))
    (inputs_for 42) (inputs_for 43)

let test_cluster_plan () =
  let p = Gen.cluster ~seed:5 ~nodes:8 ~moves:50 ~window_us:1000.0 ~hot_nodes:2 ~victim:7 in
  Array.iter
    (fun (m : Gen.move) ->
      Alcotest.(check bool) "victim not involved, src <> dst" true
        (m.Gen.src <> 7 && m.Gen.dst <> 7 && m.Gen.src <> m.Gen.dst))
    p.Gen.moves;
  let times = Array.to_list (Array.map (fun (m : Gen.move) -> m.Gen.at_us) p.Gen.moves) in
  Alcotest.(check bool) "moves in time order" true (List.sort compare times = times);
  let total seed =
    Array.fold_left ( + ) 0 (Gen.cluster ~seed ~nodes:8 ~moves:1 ~window_us:1000.0 ~hot_nodes:2 ~victim:7).Gen.load
  in
  Alcotest.(check int) "total load independent of the seed" (total 5) (total 6)

let test_percentile_rule () =
  let q = Alcotest.(option (float 0.0)) in
  Alcotest.check q "9 samples: nothing" None (Pct.tail_q 9);
  Alcotest.check q "20 samples: median" (Some 0.5) (Pct.tail_q 20);
  Alcotest.check q "99 samples: still the median" (Some 0.5) (Pct.tail_q 99);
  Alcotest.check q "100 samples: p90" (Some 0.9) (Pct.tail_q 100);
  Alcotest.check q "999 samples: p90" (Some 0.9) (Pct.tail_q 999);
  Alcotest.check q "1000 samples: p99" (Some 0.99) (Pct.tail_q 1000);
  Alcotest.check q "10000 samples: p99.9" (Some 0.999) (Pct.tail_q 10_000);
  Alcotest.(check bool) "p99 of 999 is not reportable" false (Pct.reportable ~n:999 0.99)

let test_quantile () =
  let xs = List.init 101 float_of_int in
  Alcotest.(check (float 1e-9)) "median" 50.0 (Pct.quantile 0.5 xs);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (Pct.quantile 0.99 xs);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Pct.quantile 0.5 [])

let test_hist_quantile () =
  let m = Cachekernel.Metrics.create () in
  Cachekernel.Metrics.observe m "one" 42.0;
  let one = Cachekernel.Metrics.hist m "one" in
  Alcotest.(check (float 1e-9)) "one sample is itself" 42.0 (Pct.hist_quantile one 0.99);
  for i = 1 to 1000 do
    Cachekernel.Metrics.observe m "u" (float_of_int i)
  done;
  let u = Cachekernel.Metrics.hist m "u" in
  let p50 = Pct.hist_quantile u 0.5 and p99 = Pct.hist_quantile u 0.99 in
  (* a bucket spans 19%: interpolation lands well inside it *)
  Alcotest.(check bool) "p50 near 500" true (Float.abs (p50 -. 500.0) < 50.0);
  Alcotest.(check bool) "p99 near 990" true (Float.abs (p99 -. 990.0) < 60.0);
  Alcotest.(check bool) "monotone" true (Pct.hist_quantile u 0.9 <= p99 && p50 <= Pct.hist_quantile u 0.9);
  let merged = Pct.merge_hists [ one; u ] in
  Alcotest.(check int) "merge counts" 1001 merged.Cachekernel.Metrics.h_count

let test_self_time () =
  let f = Alcotest.(float 1e-9) in
  Alcotest.check f "no children" 10.0 (Pct.self_time (0., 10.) []);
  (* overlapping children count once; the part outside the span not at all *)
  Alcotest.check f "overlap and clip" 4.0 (Pct.self_time (0., 10.) [ (2., 4.); (3., 6.); (8., 12.) ]);
  Alcotest.check f "child outside" 10.0 (Pct.self_time (0., 10.) [ (11., 12.) ]);
  Alcotest.check f "fully covered" 0.0 (Pct.self_time (0., 10.) [ (-1., 11.) ])

let test_failed_ratio () =
  let t = Pct.tally () in
  Alcotest.(check (float 0.0)) "nothing attempted" 0.0 (Pct.failed_ratio t);
  t.Pct.ops <- 10;
  t.Pct.op_errors <- 1;
  Pct.check t true;
  Pct.check t false;
  Pct.check t false;
  Alcotest.(check int) "attempted = ops + checks" 13 (Pct.attempted t);
  Alcotest.(check int) "failed = op errors + failed checks" 3 (Pct.failed t);
  Alcotest.(check (float 1e-12)) "ratio" (3.0 /. 13.0) (Pct.failed_ratio t)

let test_paper_err () =
  Alcotest.(check (float 1e-9)) "mean relative error" 10.0
    (Micro_err.err_pct [ ("a", 110.0, 100.0); ("b", 45.0, 50.0) ])

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "seeded, byte-identical" `Quick test_inputs_deterministic;
          Alcotest.test_case "cluster plan shape" `Quick test_cluster_plan;
        ] );
      ( "rules",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "exact quantile" `Quick test_quantile;
          Alcotest.test_case "histogram quantile" `Quick test_hist_quantile;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "failed ratio" `Quick test_failed_ratio;
          Alcotest.test_case "paper error" `Quick test_paper_err;
        ] );
    ]
