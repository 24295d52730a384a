(* Observability layer: the bounded trace ring, the metrics registry and
   its JSON export, plus regression tests for the two scheduler-queue bugs
   fixed alongside them (stale identifiers lingering behind the
   preemption check, a failed pick rotating same-priority round-robin
   order). *)

open Cachekernel

let oid slot = Oid.v ~kind:Oid.Thread ~slot ~gen:1

(* -- trace ring -- *)

let test_ring_caps () =
  let t = Trace.create ~enabled:true ~capacity:8 () in
  for i = 1 to 20 do
    Trace.record t ~time:(i * 10) (Trace.Custom (string_of_int i))
  done;
  Alcotest.(check int) "length capped at capacity" 8 (Trace.length t);
  Alcotest.(check int) "capacity reported" 8 (Trace.capacity t);
  Alcotest.(check int) "overwritten entries counted" 12 (Trace.dropped t);
  Alcotest.(check bool) "entries list never exceeds capacity" true
    (List.length (Trace.entries t) <= Trace.capacity t)

let test_ring_wraparound_order () =
  let t = Trace.create ~enabled:true ~capacity:8 () in
  for i = 1 to 20 do
    Trace.record t ~time:(i * 10) (Trace.Custom (string_of_int i))
  done;
  let times = List.map (fun e -> e.Trace.time) (Trace.entries t) in
  (* survivors are the newest 8, still in chronological order *)
  Alcotest.(check (list int)) "oldest dropped, order preserved"
    [ 130; 140; 150; 160; 170; 180; 190; 200 ]
    times;
  Trace.clear t;
  Alcotest.(check int) "clear empties the ring" 0 (Trace.length t);
  Alcotest.(check int) "clear resets dropped" 0 (Trace.dropped t)

let test_ring_under_capacity () =
  (* the lazy-growth path: few records must not allocate the full ring *)
  let t = Trace.create ~enabled:true ~capacity:65536 () in
  for i = 1 to 100 do
    Trace.record t ~time:i (Trace.Custom "x")
  done;
  Alcotest.(check int) "all entries retained" 100 (Trace.length t);
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped t);
  let times = List.map (fun e -> e.Trace.time) (Trace.entries t) in
  Alcotest.(check bool) "chronological" true (List.sort compare times = times)

let test_disabled_records_nothing () =
  let t = Trace.create ~capacity:8 () in
  Trace.record t ~time:1 (Trace.Custom "x");
  Alcotest.(check int) "disabled trace stays empty" 0 (Trace.length t)

(* -- acceptance: tracing a real sweep holds memory at ring capacity -- *)

let test_sweep_trace_bounded () =
  let config = { Config.default with Config.trace_capacity = 512 } in
  let captured = ref None in
  let prepare inst =
    Trace.enable inst.Instance.trace;
    captured := Some inst
  in
  ignore (Workload.Sweeps.thread_sweep ~config ~capacity:64 ~rounds:6 ~prepare [ 256 ]);
  let inst = Option.get !captured in
  let t = inst.Instance.trace in
  Alcotest.(check int) "configured ring capacity" 512 (Trace.capacity t);
  Alcotest.(check bool) "entries held at capacity" true
    (List.length (Trace.entries t) <= Trace.capacity t);
  Alcotest.(check bool) "long run overwrote the oldest entries" true
    (Trace.dropped t > 0)

(* -- metrics -- *)

let test_percentiles_monotone () =
  let m = Metrics.create () in
  (* a spread of latencies across several octaves, plus ties *)
  List.iter
    (fun v -> Metrics.observe m "lat" v)
    [ 0.5; 0.5; 1.2; 3.0; 3.0; 8.0; 20.0; 55.0; 140.0; 900.0; 4000.0 ];
  let p50 = Metrics.percentile m "lat" 0.5 in
  let p90 = Metrics.percentile m "lat" 0.9 in
  let p99 = Metrics.percentile m "lat" 0.99 in
  Alcotest.(check bool) "p50 <= p90" true (p50 <= p90);
  Alcotest.(check bool) "p90 <= p99" true (p90 <= p99);
  Alcotest.(check bool) "p50 >= observed min" true (p50 >= 0.5);
  Alcotest.(check bool) "p99 <= observed max" true (p99 <= 4000.0);
  Alcotest.(check (float 1e-9)) "p0 is the min" 0.5 (Metrics.percentile m "lat" 0.0);
  Alcotest.(check (float 1e-9)) "p100 is the max" 4000.0 (Metrics.percentile m "lat" 1.0)

let test_single_sample_percentiles () =
  let m = Metrics.create () in
  Metrics.observe m "one" 7.5;
  (* clamping to the observed range makes a one-sample histogram exact *)
  Alcotest.(check (float 1e-9)) "p50 of one sample" 7.5 (Metrics.percentile m "one" 0.5);
  Alcotest.(check (float 1e-9)) "p99 of one sample" 7.5 (Metrics.percentile m "one" 0.99);
  Alcotest.(check int) "empty histogram reads 0 observations" 0
    (Metrics.observations m "absent");
  Alcotest.(check (float 1e-9)) "empty histogram percentile is 0" 0.0
    (Metrics.percentile m "absent" 0.5)

let test_counters () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.incr m "a";
  Metrics.incr ~by:5 m "b";
  Alcotest.(check int) "incr accumulates" 2 (Metrics.counter m "a");
  Alcotest.(check int) "incr ~by" 5 (Metrics.counter m "b");
  Alcotest.(check int) "unknown counter is 0" 0 (Metrics.counter m "c")

let test_metrics_json_roundtrip () =
  let m = Metrics.create () in
  Metrics.incr ~by:3 m "faults";
  List.iter (fun v -> Metrics.observe m "lat_us" v) [ 1.0; 2.0; 4.0; 400.0 ];
  let j = Metrics.to_json m in
  let reparsed = Json.of_string (Json.to_string j) in
  Alcotest.(check bool) "serialise/parse round-trips structurally" true (reparsed = j);
  (match Json.path [ "counters"; "faults" ] reparsed with
  | Some (Json.Int 3) -> ()
  | _ -> Alcotest.fail "counters.faults lost in round-trip");
  (match Json.path [ "histograms"; "lat_us"; "count" ] reparsed with
  | Some (Json.Int 4) -> ()
  | _ -> Alcotest.fail "histograms.lat_us.count lost in round-trip");
  match Json.path [ "histograms"; "lat_us"; "p99" ] reparsed with
  | Some (Json.Float p99) -> Alcotest.(check bool) "p99 within range" true (p99 <= 400.0)
  | _ -> Alcotest.fail "histograms.lat_us.p99 lost in round-trip"

let test_trace_json () =
  let t = Trace.create ~enabled:true ~capacity:4 () in
  Trace.record t ~time:25 (Trace.Fault_trap { thread = oid 3; va = 0x1000; kind = "write" });
  Trace.record t ~time:50 (Trace.Custom "note");
  let j = Json.of_string (Json.to_string (Trace.to_json t)) in
  (match Json.path [ "length" ] j with
  | Some (Json.Int 2) -> ()
  | _ -> Alcotest.fail "trace length missing from JSON");
  match Json.path [ "entries" ] j with
  | Some (Json.List [ first; _ ]) -> (
    match (Json.member "event" first, Json.member "va" first) with
    | Some (Json.String "fault_trap"), Some (Json.Int 0x1000) -> ()
    | _ -> Alcotest.fail "fault_trap entry fields missing")
  | _ -> Alcotest.fail "trace entries missing from JSON"

(* -- scheduler regressions -- *)

let resolve_in tbl o = Hashtbl.find_opt tbl o

let test_scan_preserves_fifo () =
  (* Bug: the pick walk rotated ineligible-but-live entries to the tail, so a
     failed pick silently reordered same-priority round robin.  Skipped
     entries must come back ahead of the unexamined remainder. *)
  let s = Scheduler.create ~priorities:4 in
  let a, b, c = (oid 1, oid 2, oid 3) in
  List.iter (fun o -> Scheduler.enqueue s ~priority:2 o) [ a; b; c ];
  let live = Hashtbl.create 8 in
  List.iter (fun o -> Hashtbl.replace live o ()) [ a; b; c ];
  (* only b is eligible: a must be skipped, then restored ahead of c *)
  let picked =
    Scheduler.pick s ~resolve:(resolve_in live) ~eligible:(fun o () -> Oid.equal o b)
  in
  Alcotest.(check bool) "picked b" true
    (match picked with Some (o, ()) -> Oid.equal o b | None -> false);
  let order = ref [] in
  let all_eligible = fun _ () -> true in
  let rec drain () =
    match Scheduler.pick s ~resolve:(resolve_in live) ~eligible:all_eligible with
    | Some (o, ()) ->
      order := o :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check bool) "a still ahead of c after the failed pick" true
    (List.rev !order = [ a; c ])

let test_highest_ready_drops_stale () =
  (* Bug: the preemption check never removed stale identifiers, so every
     check re-resolved the same dead threads forever.  The walk now
     short-circuits at the first eligible entry,
     so the contract is: every stale identifier *encountered* (ahead of
     the first eligible entry) is dropped; ones behind it are never
     touched — zero cost per check — and fall to a later pick's scan. *)
  let s = Scheduler.create ~priorities:4 in
  let b, a, c = (oid 1, oid 2, oid 3) in
  List.iter (fun o -> Scheduler.enqueue s ~priority:1 o) [ b; a; c ];
  let live = Hashtbl.create 8 in
  List.iter (fun o -> Hashtbl.replace live o ()) [ a; c ];
  (* b was unloaded since being enqueued; it sits ahead of the live pair *)
  let p =
    Scheduler.highest_ready_pri s ~resolve:(resolve_in live) ~eligible:(fun _ () -> true)
  in
  Alcotest.(check int) "priority of the best live thread" 1 p;
  Alcotest.(check int) "stale entry removed from the queue" 2 (Scheduler.length s);
  (* and the survivors keep their FIFO order *)
  let order = ref [] in
  let rec drain () =
    match Scheduler.pick s ~resolve:(resolve_in live) ~eligible:(fun _ () -> true) with
    | Some (o, ()) ->
      order := o :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check bool) "a before c" true (List.rev !order = [ a; c ])

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "caps at capacity with dropped count" `Quick test_ring_caps;
          Alcotest.test_case "chronological order survives wraparound" `Quick
            test_ring_wraparound_order;
          Alcotest.test_case "under capacity keeps everything" `Quick
            test_ring_under_capacity;
          Alcotest.test_case "disabled trace records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "256-thread sweep holds at ring capacity" `Quick
            test_sweep_trace_bounded;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "percentiles are monotone" `Quick test_percentiles_monotone;
          Alcotest.test_case "single sample and empty histograms" `Quick
            test_single_sample_percentiles;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "to_json round-trips" `Quick test_metrics_json_roundtrip;
          Alcotest.test_case "trace JSON export" `Quick test_trace_json;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "failed pick preserves round-robin order" `Quick
            test_scan_preserves_fifo;
          Alcotest.test_case "highest_ready drops stale identifiers" `Quick
            test_highest_ready_drops_stale;
        ] );
    ]
