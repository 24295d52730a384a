(* [cluster]: the windowed multi-node engine, the interconnect, the SRM's
   failure detector and balancer, and the migration plane.

   [nodes] 2-CPU nodes run a seeded, skewed compute load (a few hot nodes)
   with the heartbeat detector and the balancer on, over a fixed simulated
   window (heartbeats never go quiescent).  Op = one retired user-thread
   iteration: compute, then yield.  At seeded times the benchmark issues
   [Migrate.Plane.move_space] for spaces whose threads dirtied a working
   set of seeded size; one node crashes at a fixed simulated time and the
   detector must fail it over.  After the window: every live node audits
   clean (ledgers included), each moved space exists exactly once with its
   contents intact, no live node was declared dead, and the victim runs
   again. *)

open Cachekernel
open Aklib

type cfg = {
  nodes : int;
  moves : int;
  hot_nodes : int;
  window_us : float;
  slice_us : float;
  crash_at_us : float;  (** relative to the window start *)
  heartbeat_us : float;
  suspect_us : float;
  balance_us : float;
  mem : int;  (** bytes of physical memory per node *)
}

let cfg =
  {
    nodes = 48;
    moves = 120;
    hot_nodes = 4;
    window_us = 50_000.0;
    slice_us = 1_000.0;
    crash_at_us = 12_000.0;
    heartbeat_us = 1_000.0;
    suspect_us = 10_000.0;
    balance_us = 2_000.0;
    mem = 16 * 1024 * 1024;
  }

let victim = cfg.nodes - 1
let base = 0x40000000

let inputs seed =
  Gen.cluster ~seed ~nodes:cfg.nodes ~moves:cfg.moves ~window_us:cfg.window_us
    ~hot_nodes:cfg.hot_nodes ~victim

let seg_name m = Printf.sprintf "mv%d" m
let word m (mv : Gen.move) j = (mv.Gen.fill + (j * 0x9E3779B1) + m) land 0x3FFFFFFFFFFF

(* One retired iteration: compute, optionally read a page, yield.  No
   per-op span: an op ends only when the yield gives the CPU back, so its
   host time is mostly other threads' turns. *)
let iteration ~ops ~read =
  Hw.Exec.compute 2000;
  (match read with Some va -> ignore (Hw.Exec.mem_read va) | None -> ());
  ignore (Hw.Exec.trap Api.Ck_yield);
  incr ops

let forever = 1_000_000

let load_body ~ops () =
  for _ = 1 to forever do
    iteration ~ops ~read:None
  done

let space_body ~ops m (mv : Gen.move) () =
  for j = 0 to mv.Gen.ws_pages - 1 do
    Hw.Exec.mem_write (base + (j * Hw.Addr.page_size) + Pager.word_of j) (word m mv j)
  done;
  for i = 1 to forever do
    let j = i mod mv.Gen.ws_pages in
    iteration ~ops ~read:(Some (base + (j * Hw.Addr.page_size)))
  done

let config =
  {
    Config.default with
    Config.heartbeat_interval_us = cfg.heartbeat_us;
    suspect_timeout_us = cfg.suspect_us;
    balance_interval_us = cfg.balance_us;
  }

(* first Thread_dispatched after the victim's restart, minus its crash *)
let recover_us (vinst : Instance.t) =
  let first pred =
    Trace.fold vinst.Instance.trace
      (fun acc (e : Trace.entry) -> if acc = None && pred e then Some e.Trace.time else acc)
      None
  in
  match first (fun e -> match e.Trace.event with Trace.Node_restart _ -> true | _ -> false) with
  | None -> None
  | Some r ->
    first (fun e ->
        e.Trace.time >= r && match e.Trace.event with Trace.Thread_dispatched _ -> true | _ -> false)
    |> Option.map (fun t -> Hw.Cost.us_of_cycles t -. vinst.Instance.crashed_at_us)

let boot net insts =
  let nodes =
    Array.map
      (fun inst ->
        let srm = Workload.Setup.ok (Srm.Manager.boot inst ()) in
        { Workload.Cluster.inst; srm; dist = Srm.Distrib.start srm ~net })
      insts
  in
  let cl = { Workload.Cluster.net; nodes } in
  Array.iter
    (fun (a : Workload.Cluster.node) ->
      Array.iter
        (fun (b : Workload.Cluster.node) -> Srm.Distrib.add_peer a.dist (Instance.node_id b.inst))
        nodes;
      Srm.Distrib.set_failover a.dist
        (Some (fun ~node ~epoch -> Workload.Cluster.failover cl ~node ~epoch)))
    nodes;
  cl

(* Spawn the load and the to-be-moved spaces, and schedule the moves and
   the crash; returns the window origin in simulated us. *)
let spawn ~ops ~issued (plan : Gen.cluster) cl =
  let ak i = (Workload.Cluster.srm cl i).Srm.Manager.ak in
  Array.iteri
    (fun i n ->
      for _ = 1 to n do
        ignore
          (Workload.Setup.ok
             (App_kernel.spawn_internal (ak i) ~priority:4 (Hw.Exec.unit_body (load_body ~ops))))
      done)
    plan.Gen.load;
  let origin_us = Hw.Cost.us_of_cycles (Workload.Cluster.live_now cl) in
  Array.iteri
    (fun m (mv : Gen.move) ->
      let a = ak mv.Gen.src in
      let mgr = a.App_kernel.mgr in
      let vsp = Workload.Setup.ok (Segment_mgr.create_space mgr) in
      let seg = Segment_mgr.create_segment mgr ~name:(seg_name m) ~pages:mv.Gen.ws_pages in
      Segment_mgr.attach_region mgr vsp
        (Region.v ~va_start:base ~pages:mv.Gen.ws_pages ~segment:seg ~seg_offset:0 ());
      ignore
        (Workload.Setup.ok
           (Thread_lib.spawn a.App_kernel.threads ~space_tag:vsp.Segment_mgr.tag ~priority:4
              (Hw.Exec.unit_body (space_body ~ops m mv))));
      let src = Workload.Cluster.inst cl mv.Gen.src in
      Hw.Mpm.at src.Instance.node
        ~time:(Hw.Cost.cycles_of_us (origin_us +. mv.Gen.at_us))
        (fun () ->
          if not src.Instance.halted then
            let plane = Srm.Distrib.plane (Workload.Cluster.dist cl mv.Gen.src) in
            match
              Spans.span ~pid:(1 + mv.Gen.src) ~cat:"migrate" "move_space" (fun () ->
                  Migrate.Plane.move_space plane ~dst:mv.Gen.dst vsp.Segment_mgr.tag)
            with
            | Ok _ -> incr issued
            | Error _ -> ()))
    plan.Gen.moves;
  Trace.enable (Workload.Cluster.inst cl victim).Instance.trace;
  Hw.Mpm.at (Workload.Cluster.inst cl 0).Instance.node
    ~time:(Hw.Cost.cycles_of_us (origin_us +. cfg.crash_at_us))
    (fun () -> Workload.Cluster.crash cl victim);
  origin_us

(* Each moved space must exist exactly once on the live nodes, with the
   words its thread wrote. *)
let check_spaces tally (plan : Gen.cluster) cl ~live =
  let copies = Hashtbl.create 256 in
  Array.iteri
    (fun i (n : Workload.Cluster.node) ->
      if live i then
        let ak = n.srm.Srm.Manager.ak in
        Hashtbl.iter
          (fun _ (v : Segment_mgr.vspace) ->
            List.iter
              (fun (r : Region.t) ->
                Hashtbl.add copies r.Region.segment.Segment.name (ak, r.Region.segment))
              v.Segment_mgr.regions)
          ak.App_kernel.mgr.Segment_mgr.spaces)
    cl.Workload.Cluster.nodes;
  Array.iteri
    (fun m (mv : Gen.move) ->
      match Hashtbl.find_all copies (seg_name m) with
      | [ (ak, seg) ] ->
        Pct.check tally true;
        Pct.check tally
          (List.for_all
             (fun j -> Pager.read_back ak seg j = Some (word m mv j land 0xFFFFFFFF))
             (List.init mv.Gen.ws_pages Fun.id))
      | _ ->
        Pct.check tally false;
        Pct.check tally false)
    plan.Gen.moves

let run ~seed ~traced =
  let c = Common.clock () in
  let plan = Common.phase c "inputs" (fun () -> inputs seed) in
  let net, insts =
    Common.phase c "machine" (fun () ->
        ( Hw.Interconnect.create (),
          Array.init cfg.nodes (fun id ->
              Workload.Setup.instance ~config ~cpus:2 ~mem:cfg.mem ~node_id:id ()) ))
  in
  let cl = Common.phase c "boot" (fun () -> boot net insts) in
  let ops = ref 0 and issued = ref 0 in
  let origin_us = Common.phase c "spawn" (fun () -> spawn ~ops ~issued plan cl) in
  let setup_s = Common.since c in
  let run_s = Common.drive ~until_us:(origin_us +. cfg.window_us) ~slice_us:cfg.slice_us insts in
  let ops = !ops in
  let aks = List.init cfg.nodes (fun i -> (Workload.Cluster.srm cl i).Srm.Manager.ak) in
  let total name = float_of_int (Common.counter name insts) in
  let counts =
    Common.core_counts ~ops ~insts ~aks
    @ [
        ("hw.net_frames", float_of_int (Hw.Interconnect.sent net));
        ("hw.net_dropped", float_of_int (Hw.Interconnect.dropped net));
        ("srm.suspects", total "fd.suspects");
        ("srm.deaths", total "fd.deaths");
        ("srm.self_fenced", total "fd.self_fenced");
        ("srm.restarts", total "srm.restart");
        ("srm.restart_p50_us", Pct.hist_quantile (Common.hist "srm.restart_us" insts) 0.5);
        ("n.restart", float_of_int (Common.hist "srm.restart_us" insts).Metrics.h_count);
        ("srm.balance_moves", total "balance.moves");
        ("migrate.moves", total "migrate.moves" +. total "migrate.space_moves");
        ("migrate.committed", total "migrate.committed");
        ("migrate.abandoned", total "migrate.abandoned");
        ("migrate.retransmits", total "migrate.retransmits");
        ("migrate.bytes_out", total "migrate.bytes_out");
        ("migrate.chunks_out", total "migrate.chunks_out");
      ]
  in
  let tally = Pct.tally () in
  (* the moves are ops too: one refused by the plane is an op error *)
  tally.Pct.ops <- ops + cfg.moves;
  tally.Pct.op_errors <- cfg.moves - !issued;
  let live i = not (Workload.Cluster.inst cl i).Instance.halted in
  Spans.span ~cat:"check" "check.spaces" (fun () -> check_spaces tally plan cl ~live);
  let audits = Common.audit insts in
  Array.iteri (fun i v -> if live i then Pct.check tally (v = 0)) audits;
  (* a live node declared dead: fenced by a peer, or rejoined, without a crash *)
  let dists = Array.map (fun (n : Workload.Cluster.node) -> n.dist) cl.Workload.Cluster.nodes in
  let declared p =
    Srm.Distrib.epoch dists.(p) > 1 || Array.exists (fun d -> Srm.Distrib.fence_epoch d p > 1) dists
  in
  let survivors = List.init (cfg.nodes - 1) Fun.id in
  List.iter (fun p -> Pct.check tally (not (declared p))) survivors;
  let false_deaths = List.length (List.filter declared survivors) in
  let recover = recover_us (Workload.Cluster.inst cl victim) in
  Pct.check tally (live victim && recover <> None);
  let pause = Common.hist "migrate.pause_us" insts in
  {
    Common.ops;
    tally;
    findings = [ ("live node declared dead", false_deaths) ];
    setup = c.Common.phases;
    setup_s;
    run_s;
    sim =
      (("sim_us_per_op", cfg.window_us *. float_of_int cfg.nodes /. float_of_int (max 1 ops))
       :: Common.fault_latency insts)
      @ [
          ("sim_pause_p50_us", Pct.hist_quantile pause 0.5);
          ("sim_pause_p90_us", Pct.hist_quantile pause 0.9);
          ("n.pause", float_of_int pause.Metrics.h_count);
          ("sim_recover_us", Option.value recover ~default:0.0);
        ];
    counts =
      counts
      @ [
          ("core.audit_violations", float_of_int (Array.fold_left ( + ) 0 audits));
          ("srm.false_deaths", float_of_int false_deaths);
        ];
    steps = Common.counter "engine.steps" insts;
    images =
      Common.capture_images ~traced
        (List.filteri (fun i _ -> live i) (List.mapi (fun i ak -> (i, ak)) aks));
  }
