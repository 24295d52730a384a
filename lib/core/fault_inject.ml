(* Deterministic fault-injection plane.

   Configured by {!Config.chaos}; when that is [None] every decision here
   collapses to "pass" without drawing random numbers, so a chaos-disabled
   instance pays one option test per site.

   Determinism: each named site owns a private splitmix64 stream seeded
   [chaos_seed lxor hash site].  Decisions at one site therefore never
   perturb draws at another, and two runs with the same configuration
   inject at bit-identical points — the property the deterministic-replay
   test pins down.

   Bounded recovery: sites that force a caller onto a retry path
   ([decide]-based sites: stale loads, dropped fault forwards,
   backing-store failures) never inject twice in a row.  An injected
   failure is transient by construction, so a single retry is guaranteed
   to make progress; the retry observes {!After_inject} and counts the
   recovery, keeping every [inject.<site>] counter matched by a
   [recover.<site>] counter.

   This module deliberately knows nothing about {!Instance}: the instance
   installs {!set_hooks} callbacks that feed {!Metrics} and {!Trace}, so
   injection decisions stay usable from the hardware and aklib layers
   without a dependency cycle. *)

type t = {
  chaos : Config.chaos option;
  streams : (string, int64 ref) Hashtbl.t; (* per-site splitmix64 state *)
  pending : (string, unit) Hashtbl.t; (* sites whose last decision injected *)
  mutable crash_armed : bool; (* one-shot latch for the scheduled node crash *)
  mutable partition_armed : bool; (* one-shot latch for the scheduled partition *)
  mutable on_inject : string -> unit;
  mutable on_recover : string -> unit;
}

let create chaos =
  {
    chaos;
    streams = Hashtbl.create 8;
    pending = Hashtbl.create 8;
    crash_armed = chaos <> None;
    partition_armed = chaos <> None;
    on_inject = ignore;
    on_recover = ignore;
  }

let enabled t = t.chaos <> None

let sites =
  [ "bstore.fail"; "bstore.delay"; "tier.promote.fail"; "tier.promote.delay";
    "tier.demote.fail"; "tier.demote.delay"; "signal.drop"; "signal.dup";
    "stale.load"; "fault.forward"; "node.crash"; "migrate.drop";
    "net.partition"; "net.heal" ]

let set_hooks t ~on_inject ~on_recover =
  t.on_inject <- on_inject;
  t.on_recover <- on_recover

(* -- notification (counters + trace, via the installed hooks) -- *)

let inject t ~site = t.on_inject site
let recover t ~site = t.on_recover site

(* -- per-site PRNG -- *)

let golden = 0x9E3779B97F4A7C15L

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let stream t ~site seed =
  match Hashtbl.find_opt t.streams site with
  | Some st -> st
  | None ->
    let st = ref (Int64.of_int (seed lxor Hashtbl.hash site)) in
    Hashtbl.replace t.streams site st;
    st

(** Next uniform draw in [0,1) from [site]'s stream. *)
let draw t ~site seed =
  let st = stream t ~site seed in
  st := Int64.add !st golden;
  let z = mix64 !st in
  (* top 53 bits, the double-precision mantissa width *)
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0

(* -- retry-path sites: never inject twice in a row -- *)

type decision = Inject | After_inject | Pass

let decide t ~site ~rate =
  match t.chaos with
  | None -> Pass
  | Some c ->
    if Hashtbl.mem t.pending site then begin
      (* the previous decision here injected: this is the bounded retry,
         which must succeed — report it as the recovery moment *)
      Hashtbl.remove t.pending site;
      After_inject
    end
    else if rate > 0.0 && draw t ~site c.chaos_seed < rate then begin
      Hashtbl.replace t.pending site ();
      Inject
    end
    else Pass

(* -- site-specific deciders -- *)

let stale_load t =
  match t.chaos with
  | None -> Pass
  | Some c -> decide t ~site:"stale.load" ~rate:c.stale_rate

let forward_drop t =
  match t.chaos with
  | None -> Pass
  | Some c -> decide t ~site:"fault.forward" ~rate:c.forward_drop

let migrate_drop t =
  match t.chaos with
  | None -> Pass
  | Some c -> decide t ~site:"migrate.drop" ~rate:c.migrate_drop

(** Fate of one backing-store transfer attempt.  A [`Fail] marks the site
    pending, so the retried attempt always comes back [`Ok]; a [`Delay]
    completes on its own and needs no retry. *)
let io_fate t =
  match t.chaos with
  | None -> `Ok
  | Some c -> (
    match decide t ~site:"bstore" ~rate:(c.io_fail +. c.io_delay) with
    | Pass -> `Ok
    | After_inject -> `Ok_after_fail
    | Inject ->
      (* split the single draw's hit between fail and delay with a fresh
         draw, so fail/delay mixing stays deterministic per site *)
      if c.io_fail > 0.0 && draw t ~site:"bstore.kind" c.chaos_seed < c.io_fail /. (c.io_fail +. c.io_delay)
      then `Fail
      else begin
        (* a delay completes by itself: it is not a pending failure *)
        Hashtbl.remove t.pending "bstore";
        `Delay c.io_delay_us
      end)

(** Fate of one tier promotion ([promote]) or batched demotion transfer in
    the tiered backing store.  Same protocol as {!io_fate}: a [`Fail] marks
    the per-direction site pending so the retry always transfers, a
    [`Delay] completes on its own.  Promotion and demotion own separate
    streams, so a promotion-heavy run never perturbs demotion draws. *)
let tier_fate t ~promote =
  match t.chaos with
  | None -> `Ok
  | Some c -> (
    let site = if promote then "tier.promote" else "tier.demote" in
    match decide t ~site ~rate:(c.tier_fail +. c.tier_delay) with
    | Pass -> `Ok
    | After_inject -> `Ok_after_fail
    | Inject ->
      if
        c.tier_fail > 0.0
        && draw t ~site:"tier.kind" c.chaos_seed < c.tier_fail /. (c.tier_fail +. c.tier_delay)
      then `Fail
      else begin
        (* a delay completes by itself: it is not a pending failure *)
        Hashtbl.remove t.pending site;
        `Delay c.io_delay_us
      end)

(** Fate of one signal delivery.  Drops are recovered by a scheduled
    redelivery (which bypasses injection), so no pending flag is needed. *)
let signal_fate t =
  match t.chaos with
  | None -> `Deliver
  | Some c ->
    if c.signal_drop = 0.0 && c.signal_dup = 0.0 then `Deliver
    else begin
      let r = draw t ~site:"signal" c.chaos_seed in
      if r < c.signal_drop then `Drop
      else if r < c.signal_drop +. c.signal_dup then `Duplicate
      else `Deliver
    end

(* -- recovery parameters (safe defaults when chaos is off) -- *)

let io_max_retries t =
  match t.chaos with Some c -> c.Config.io_max_retries | None -> 0

let io_retry_backoff_us t =
  match t.chaos with Some c -> c.Config.io_retry_backoff_us | None -> 0.0

let redeliver_backoff_us t =
  match t.chaos with Some c -> c.Config.redeliver_backoff_us | None -> 0.0

(* -- node crash -- *)

(** Simulated time (us) at which the whole MPM should crash, at most once
    per instance: the first call returns the configured time and disarms
    the latch, so restart logic cannot re-trigger the crash. *)
let take_crash_at_us t =
  match t.chaos with
  | Some { Config.crash_at_us = Some us; _ } when t.crash_armed ->
    t.crash_armed <- false;
    Some us
  | _ -> None

(* -- network partition (sites [net.partition] / [net.heal]) -- *)

(** One-shot seeded partition plan: the sever time, the heal time, and the
    minority node ids, drawn from the [net.partition] stream so equal seeds
    cut equal sets.  [nodes] is the cluster's node-id list; node with the
    lowest id (the conventional chaos armer) is never placed in the
    minority, so the majority side always retains a recovery leader.
    Returns [None] when no partition is configured or the latch has already
    been taken — restart logic cannot re-trigger the cut. *)
let take_partition_plan t ~nodes =
  match t.chaos with
  | Some ({ Config.partition_at_us = Some at; _ } as c) when t.partition_armed ->
    t.partition_armed <- false;
    let sorted = List.sort_uniq compare nodes in
    let eligible = match sorted with [] | [ _ ] -> [] | _ :: rest -> rest in
    let want = min c.Config.partition_minority (List.length eligible) in
    let minority = ref [] in
    let pool = ref eligible in
    for _ = 1 to want do
      match !pool with
      | [] -> ()
      | pool_now ->
        let n = List.length pool_now in
        let idx =
          int_of_float (draw t ~site:"net.partition" c.Config.chaos_seed *. float_of_int n)
        in
        let idx = if idx >= n then n - 1 else idx in
        let pick = List.nth pool_now idx in
        minority := pick :: !minority;
        pool := List.filter (fun x -> x <> pick) pool_now
    done;
    if !minority = [] then None
    else Some (at, at +. c.Config.partition_for_us, List.rev !minority)
  | _ -> None
