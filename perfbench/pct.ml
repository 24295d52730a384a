(* Reporting rules shared by every workload: percentiles, self time and
   failure accounting.  Pure functions, pinned by the self-tests. *)

(** The percentiles a tail can be reported at, highest first. *)
let tail_candidates = [ 0.999; 0.99; 0.9; 0.5 ]

(** Can a [q] percentile be reported from [n] samples: are at least ten
    of them beyond it? *)
let reportable ~n q = (1.0 -. q) *. float_of_int n >= 10.0 -. 1e-9

(** The highest candidate percentile reportable from [n] samples; [None]
    when even the median is not. *)
let tail_q n = List.find_opt (reportable ~n) tail_candidates

(** Exact [q] quantile of a sample list, linear between the two
    bracketing order statistics; 0 when empty. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    if i >= n - 1 then a.(n - 1)
    else
      let f = pos -. float_of_int i in
      a.(i) +. (f *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(** [q] quantile of a simulator latency histogram, interpolated inside the
    log-scaled bucket that holds the rank (the histogram's own
    {!Cachekernel.Metrics.percentile} reports the bucket midpoint, which
    would freeze a percentile at one of 96 values).  Clamped to the
    observed min/max; 0 on an empty histogram. *)
let hist_quantile (h : Cachekernel.Metrics.hist) q =
  let open Cachekernel.Metrics in
  if h.h_count = 0 then 0.0
  else begin
    let rank = q *. float_of_int h.h_count in
    let acc = ref 0 and found = ref h.vmax in
    (try
       Array.iteri
         (fun i c ->
           if c > 0 && float_of_int (!acc + c) >= rank then begin
             let lo = bucket_floor i and hi = bucket_floor (i + 1) in
             let f = (rank -. float_of_int !acc) /. float_of_int c in
             (* geometric interpolation: buckets are log-spaced *)
             let lo = if lo <= 0.0 then min_value else lo in
             found := lo *. Float.pow (hi /. lo) (Float.min 1.0 (Float.max 0.0 f));
             raise Exit
           end;
           acc := !acc + c)
         h.buckets
     with Exit -> ());
    Float.min h.vmax (Float.max h.vmin !found)
  end

(** Merge several histograms (one per node) into a fresh one. *)
let merge_hists (hs : Cachekernel.Metrics.hist list) =
  let open Cachekernel.Metrics in
  let m = hist (create ()) "merged" in
  List.iter
    (fun h ->
      Array.iteri (fun i c -> m.buckets.(i) <- m.buckets.(i) + c) h.buckets;
      m.h_count <- m.h_count + h.h_count;
      m.sum <- m.sum +. h.sum;
      if h.h_count > 0 then begin
        m.vmin <- Float.min m.vmin h.vmin;
        m.vmax <- Float.max m.vmax h.vmax
      end)
    hs;
  m

(** Self time of a span [(start, stop)]: its length minus the part of it
    covered by its children (overlapping children count once; parts of a
    child outside the span do not count). *)
let self_time (s, e) children =
  let clipped =
    List.filter_map
      (fun (cs, ce) ->
        let cs = Float.max s cs and ce = Float.min e ce in
        if ce > cs then Some (cs, ce) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (cs, ce) ->
        let cs = Float.max cs reach in
        if ce > cs then (acc +. (ce -. cs), ce) else (acc, reach))
      (0.0, s) clipped
  in
  e -. s -. covered

(** Failure accounting: every op issued and every post-run output check
    is one attempt; an op that errored and a check that failed are each
    one failure. *)
type tally = { mutable ops : int; mutable op_errors : int; mutable checks : int; mutable check_failures : int }

let tally () = { ops = 0; op_errors = 0; checks = 0; check_failures = 0 }
let attempted t = t.ops + t.checks
let failed t = t.op_errors + t.check_failures

let check t ok =
  t.checks <- t.checks + 1;
  if not ok then t.check_failures <- t.check_failures + 1

let failed_ratio t =
  let a = attempted t in
  if a = 0 then 0.0 else float_of_int (failed t) /. float_of_int a
