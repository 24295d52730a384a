(* ckos: command-line inspector for the Cache Kernel reproduction.

   Subcommands:
     info   — print the configuration (Table 1) and the cost model
     run    — boot a UNIX emulator, run a small process tree, print stats
              (the default command; --metrics-out/--trace-out export the
              observability layer's JSON; --audit/--audit-out run the
              invariant auditor afterwards and fail on unrepaired
              violations)
     trace  — run one demand-paged program with the event trace enabled
     bench  — run the named benchmark scenarios (all by default), print
              their tables and gates, merge them into BENCH_metrics.json
     cluster — run a multi-node cluster and print a digest of every
               node's metrics and trace; the same flags give the same
               digest
     checkpoint — run the UNIX session and save its image to a file
     restore    — replay the session in a fresh process, restore the image,
                  and verify memory content and syscall results match *)

open Cmdliner
open Cachekernel

let show_info () =
  let c = Config.default in
  Fmt.pr "Cache Kernel configuration (Table 1):@.";
  Fmt.pr "  kernel      %4d B x %5d descriptors@." c.Config.kernel_desc_bytes
    c.Config.kernel_cache;
  Fmt.pr "  addr space  %4d B x %5d descriptors@." c.Config.space_desc_bytes
    c.Config.space_cache;
  Fmt.pr "  thread      %4d B x %5d descriptors@." c.Config.thread_desc_bytes
    c.Config.thread_cache;
  Fmt.pr "  mapping     %4d B x %5d descriptors@." c.Config.mapping_desc_bytes
    c.Config.mapping_cache;
  Fmt.pr "@.simulated machine: %d MHz CPUs, %d B pages, %d-page groups@."
    Hw.Cost.clock_mhz Hw.Addr.page_size Hw.Addr.pages_per_group;
  Fmt.pr "key costs (cycles): trap entry %d, fault forward %d, trap forward %d,@."
    Hw.Cost.trap_entry Hw.Cost.exception_forward Hw.Cost.trap_forward;
  Fmt.pr "  exception return %d, context switch %d, disk page %d@."
    Hw.Cost.exception_return Hw.Cost.context_switch
    (Hw.Cost.disk_seek + Hw.Cost.disk_page_transfer)

let write_json path what v =
  try
    Json.to_file path v;
    Fmt.pr "wrote %s to %s@." what path
  with Sys_error msg ->
    Fmt.epr "ckos: cannot write %s: %s@." what msg;
    Stdlib.exit 1

let export_observability inst ~metrics_out ~trace_out =
  Option.iter
    (fun path -> write_json path "metrics" (Instance.metrics_json inst))
    metrics_out;
  Option.iter
    (fun path -> write_json path "trace" (Trace.to_json inst.Instance.trace))
    trace_out

let parse_policy s =
  match Policy.kind_of_string s with
  | Ok k -> k
  | Error msg ->
    Fmt.epr "ckos: %s@." msg;
    Stdlib.exit 1

let print_chaos_balance inst =
  let m = inst.Instance.metrics in
  Fmt.pr "fault injection balance:@.";
  List.iter
    (fun site ->
      let i = Metrics.counter m ("inject." ^ site) in
      let r = Metrics.counter m ("recover." ^ site) in
      if i > 0 || r > 0 then Fmt.pr "  %-14s inject %5d   recover %5d@." site i r)
    Fault_inject.sites

(* Post-run invariant audit (with repair).  Exits nonzero if anything the
   repair pass could not fix remains — the CI chaos jobs rely on this. *)
let run_audit inst ~audit_out =
  let report = Audit.run ~repair:true inst in
  Fmt.pr "%a@." Audit.pp_report report;
  Option.iter (fun path -> write_json path "audit report" (Audit.report_json report)) audit_out;
  if Audit.unrepaired report <> [] then begin
    Fmt.epr "ckos: audit found unrepaired invariant violations@.";
    Stdlib.exit 1
  end

let run_workload cpus procs chaos chaos_seed partition_at partition_for partition_minority
    prefetch batch policy tiers audit audit_out metrics_out trace_out =
  if prefetch < 0 || batch < 1 then begin
    Fmt.epr "ckos: --prefetch must be >= 0 and --batch >= 1@.";
    Stdlib.exit 1
  end;
  if tiers < 0 then begin
    Fmt.epr "ckos: --tiers must be >= 0@.";
    Stdlib.exit 1
  end;
  let config =
    {
      Config.default with
      Config.chaos =
        Workload.Session.chaos ~rate:chaos ~seed:chaos_seed ?partition_at ~partition_for
          ~partition_minority ();
      fault_prefetch = prefetch;
      mapping_batch_max = batch;
      policy = parse_policy policy;
      fast_tier_slots = tiers;
    }
  in
  let inst, emu = Workload.Session.run ~config ~cpus ~procs ~tracing:(trace_out <> None) () in
  Fmt.pr "ran %d processes in %.1f ms simulated (%d syscalls)@."
    emu.Unix_emu.Emulator.spawned
    (Hw.Cost.us_of_cycles (Hw.Mpm.now inst.Instance.node) /. 1000.)
    emu.Unix_emu.Emulator.syscalls;
  Fmt.pr "%a" Stats.pp inst.Instance.stats;
  Fmt.pr "metrics:@.%a" Metrics.pp inst.Instance.metrics;
  Fmt.pr "space accounting:@.  @[<v>%a@]@." Space_accounting.pp
    (Space_accounting.measure inst);
  if chaos > 0.0 then print_chaos_balance inst;
  export_observability inst ~metrics_out ~trace_out;
  if audit || audit_out <> None then run_audit inst ~audit_out

let show_trace metrics_out trace_out =
  let inst = Workload.Setup.instance ~cpus:1 () in
  Trace.enable inst.Instance.trace;
  let ak = Workload.Setup.first_kernel inst in
  let mgr = ak.Aklib.App_kernel.mgr in
  let vsp = Workload.Setup.ok (Aklib.Segment_mgr.create_space mgr) in
  let seg = Aklib.Segment_mgr.create_segment mgr ~name:"demo" ~pages:4 in
  Aklib.Segment_mgr.attach_region mgr vsp
    (Aklib.Region.v ~va_start:0x40000000 ~pages:4 ~segment:seg ~seg_offset:0 ());
  ignore
    (Workload.Setup.ok
       (Aklib.Thread_lib.spawn ak.Aklib.App_kernel.threads
          ~space_tag:vsp.Aklib.Segment_mgr.tag ~priority:8
          (Hw.Exec.unit_body (fun () ->
               for i = 0 to 3 do
                 Hw.Exec.mem_write (0x40000000 + (i * Hw.Addr.page_size)) i
               done))));
  ignore (Engine.run [| inst |]);
  Fmt.pr "%a" Trace.pp inst.Instance.trace;
  export_observability inst ~metrics_out ~trace_out

(* -- checkpoint / restore ----------------------------------------------

   `ckos checkpoint` runs the quickstart UNIX session to completion and
   writes its image (lib/migrate's codec, staged through the simulated
   disk) to a host file; `ckos restore` replays the same session in a
   fresh process, restores the image, and verifies both byte content and
   syscall results against what the checkpoint recorded. *)

(* Content digest of an image's page payloads: stable across the tag/gen
   renumbering a restore performs, so restored memory can be verified
   byte-for-byte against what was saved. *)
let payload_digest (img : Migrate.Codec.image) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (s : Migrate.Codec.space_image) ->
      List.iter
        (fun (seg : Migrate.Codec.segment_image) ->
          List.iter
            (fun (p : Migrate.Codec.page) ->
              Buffer.add_string buf (string_of_int p.Migrate.Codec.index);
              Buffer.add_bytes buf p.Migrate.Codec.data)
            seg.Migrate.Codec.payload)
        s.Migrate.Codec.segments)
    img.Migrate.Codec.spaces;
  Migrate.Codec.fnv32 (Buffer.to_bytes buf)

let run_checkpoint cpus procs pause_us out =
  (* pause mid-session: the children's data pages are live, so the image
     carries real content; then run to completion so the extras record the
     session's final syscall results for `restore` to verify against *)
  let inst, emu = Workload.Session.run ~pause_us ~cpus ~procs ~tracing:false () in
  let ak = emu.Unix_emu.Emulator.ak in
  let img = Migrate.Checkpoint.image_of ak () in
  let digest = payload_digest img in
  ignore (Engine.run [| inst |]);
  let extras =
    [
      ("cpus", string_of_int cpus);
      ("procs", string_of_int procs);
      ("pause_us", string_of_float pause_us);
      ("spawned", string_of_int emu.Unix_emu.Emulator.spawned);
      ("syscalls", string_of_int emu.Unix_emu.Emulator.syscalls);
      ("digest", string_of_int digest);
    ]
  in
  let bytes =
    try Migrate.Checkpoint.save_image ak ~path:out { img with Migrate.Codec.extras }
    with Sys_error msg ->
      Fmt.epr "ckos: cannot write checkpoint: %s@." msg;
      Stdlib.exit 1
  in
  Fmt.pr "checkpointed %d spaces at %.0f us (%d B image, digest %08x) to %s@."
    (List.length img.Migrate.Codec.spaces)
    pause_us bytes digest out;
  run_audit inst ~audit_out:None

let run_restore file =
  let data =
    try In_channel.with_open_bin file (fun ic -> Bytes.of_string (In_channel.input_all ic))
    with Sys_error msg ->
      Fmt.epr "ckos: cannot read checkpoint: %s@." msg;
      Stdlib.exit 1
  in
  match Migrate.Codec.decode data with
  | Error msg ->
    Fmt.epr "ckos: %s: corrupt checkpoint: %s@." file msg;
    Stdlib.exit 1
  | Ok saved -> (
    let extra_int k = Option.bind (List.assoc_opt k saved.Migrate.Codec.extras) int_of_string_opt in
    let cpus = Option.value ~default:4 (extra_int "cpus") in
    let procs = Option.value ~default:4 (extra_int "procs") in
    (* replay the recorded session in this fresh process, then restore the
       image beside it and compare *)
    let inst, emu = Workload.Session.run ~cpus ~procs ~tracing:false () in
    let ak = emu.Unix_emu.Emulator.ak in
    match Migrate.Checkpoint.restore ak ~path:file ~programs:[] () with
    | Error msg ->
      Fmt.epr "ckos: restore failed: %s@." msg;
      Stdlib.exit 1
    | Ok r ->
      let restored_digest =
        payload_digest
          {
            saved with
            Migrate.Codec.spaces =
              List.map (Migrate.Plane.space_image_of ak) r.Migrate.Checkpoint.spaces;
          }
      in
      let failures = ref [] in
      let check name got want =
        match want with
        | Some w when w <> got ->
          failures := Fmt.str "%s: got %d, checkpoint recorded %d" name got w :: !failures
        | _ -> ()
      in
      check "spawned" emu.Unix_emu.Emulator.spawned (extra_int "spawned");
      check "syscalls" emu.Unix_emu.Emulator.syscalls (extra_int "syscalls");
      check "digest" restored_digest (extra_int "digest");
      Fmt.pr "restored %d spaces, %d thread records from %s (digest %08x)@."
        (List.length r.Migrate.Checkpoint.spaces)
        (List.length r.Migrate.Checkpoint.threads)
        file restored_digest;
      List.iter (fun f -> Fmt.epr "ckos: restore mismatch: %s@." f) !failures;
      run_audit inst ~audit_out:None;
      if !failures <> [] then Stdlib.exit 1)

let run_bench names =
  match Workload.Bench.select names with
  | Error msg ->
    Fmt.epr "ckos: %s@." msg;
    Stdlib.exit 1
  | Ok scenarios -> (
    match Workload.Bench.run scenarios with
    | [] -> ()
    | failed ->
      List.iter (Fmt.epr "ckos: gate failed: %s@.") failed;
      Stdlib.exit 1)

let info_cmd = Cmd.v (Cmd.info "info" ~doc:"Configuration and cost model") Term.(const show_info $ const ())

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE" ~doc:"Write counters and histograms as JSON.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Enable tracing and write the bounded event trace as JSON.")

let audit_flag =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "After the run, audit every cross-layer invariant (with repair) and \
           exit nonzero if unrepaired violations remain.")

let audit_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "audit-out" ] ~docv:"FILE"
        ~doc:"Write the post-run audit report as JSON (implies $(b,--audit)).")

let prefetch_arg =
  Arg.(
    value
    & opt int Config.default.Config.fault_prefetch
    & info [ "prefetch" ] ~docv:"N"
        ~doc:
          "Clustered fault prefetch depth: on a forwarded page fault the segment \
           manager batch-loads up to $(docv) resident same-segment neighbours \
           alongside the faulting mapping (0 disables, the default).")

let batch_arg =
  Arg.(
    value
    & opt int Config.default.Config.mapping_batch_max
    & info [ "batch" ] ~docv:"N"
        ~doc:"Maximum mapping specs accepted by one batched load call.")

let policy_arg =
  Arg.(
    value
    & opt string (Policy.kind_name Config.default.Config.policy)
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "Replacement policy for every descriptor cache: $(b,clock) (the \
           second-chance scan) or $(b,lru) (strict least-recently-used over \
           sampled reference bits).")

let tiers_arg =
  Arg.(
    value
    & opt int Config.default.Config.fast_tier_slots
    & info [ "tiers" ] ~docv:"N"
        ~doc:
          "Enable the tiered backing store with a fast tier of $(docv) page \
           slots (a pinned local-RAM backing segment in front of the paging \
           disk; 0, the default, keeps the flat single-tier store).  Every \
           page-out lands in the fast tier; the least recently touched \
           images are demoted to disk.")

(* Partition-plan flags, shared by `run` and `cluster`: consumed by the
   SRM's distributed layer (the lowest-id node arms the plan) when the
   workload is multi-node; a single-node run just carries them along. *)
let partition_at_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "partition-at" ] ~docv:"US"
        ~doc:
          "Sever the interconnect at the given simulated microsecond \
           (deterministic $(b,net.partition) chaos site).")

let partition_for_arg =
  Arg.(
    value
    & opt float 2_000.0
    & info [ "partition-for" ] ~docv:"US"
        ~doc:"Partition duration before the $(b,net.heal) fires.")

let partition_minority_arg =
  Arg.(
    value
    & opt int 1
    & info [ "partition-minority" ] ~docv:"N"
        ~doc:"How many non-zero nodes the cut isolates.")

let cpus_arg = Arg.(value & opt int 4 & info [ "cpus" ] ~doc:"CPUs per MPM.")
let procs_arg = Arg.(value & opt int 4 & info [ "procs" ] ~doc:"Processes to run.")

let chaos_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "chaos" ] ~docv:"RATE"
        ~doc:
          "Enable deterministic fault injection at the given per-site rate (0.0-1.0); \
           $(b,run) prints the inject/recover balance.")

let chaos_seed_arg =
  Arg.(
    value
    & opt int 42
    & info [ "chaos-seed" ] ~docv:"N" ~doc:"Seed for the fault-injection PRNG streams.")

let run_term =
  Term.(
    const run_workload $ cpus_arg $ procs_arg $ chaos_arg $ chaos_seed_arg $ partition_at_arg
    $ partition_for_arg $ partition_minority_arg $ prefetch_arg $ batch_arg
    $ policy_arg $ tiers_arg $ audit_flag $ audit_out $ metrics_out
    $ trace_out)

let run_cmd = Cmd.v (Cmd.info "run" ~doc:"Run a UNIX workload and print statistics") run_term

let trace_cmd =
  Cmd.v (Cmd.info "trace" ~doc:"Trace the Figure 2 fault protocol")
    Term.(const show_trace $ metrics_out $ trace_out)

let bench_cmd =
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"NAME" ~doc:"Scenarios to run (default: every scenario).")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run benchmark scenarios, print their tables and gate verdicts, merge them \
          into BENCH_metrics.json, and exit nonzero if a gate failed")
    Term.(const run_bench $ names)

let checkpoint_cmd =
  let pause_us =
    Arg.(
      value
      & opt float 2000.0
      & info [ "pause-us" ] ~docv:"US"
          ~doc:"Simulated time at which to capture the image (mid-session).")
  in
  let out =
    Arg.(
      value
      & opt string "ckos.ckpt"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Checkpoint file to write.")
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:"Run the UNIX session, checkpoint the application kernel to a file, and audit")
    Term.(const run_checkpoint $ cpus_arg $ procs_arg $ pause_us $ out)

(* `ckos cluster`: boot an n-node cluster on one interconnect and run it
   on the windowed multi-node engine.  Prints per-node stats plus a digest
   of every node's metrics+trace JSON; a run is deterministic from its
   flags, so two invocations with the same flags print the same hash. *)
let run_cluster nodes until_us load chaos chaos_seed partition_at
    partition_for partition_minority metrics_out =
  let chaos_cfg =
    Workload.Session.chaos ~rate:chaos ~seed:chaos_seed ?partition_at ~partition_for
      ~partition_minority ()
  in
  let config =
    {
      Config.default with
      Config.heartbeat_interval_us = 300.0;
      suspect_timeout_us = 2_000.0;
      chaos = chaos_cfg;
    }
  in
  let c = Workload.Cluster.create ~config ~n:nodes () in
  Array.iter
    (fun (i : Instance.t) -> Trace.enable i.Instance.trace)
    (Workload.Cluster.insts c);
  for i = 0 to nodes - 1 do
    ignore (Workload.Cluster.spawn_load c i ~iterations:2_000 load)
  done;
  Workload.Cluster.run ~until_us c;
  let insts = Workload.Cluster.insts c in
  Fmt.pr "cluster: %d nodes, %.0f us simulated@." nodes until_us;
  Array.iter
    (fun (i : Instance.t) ->
      Fmt.pr "  node %d: now %7d cycles  steps %6d  halted %b@."
        (Instance.node_id i)
        (Hw.Mpm.now i.Instance.node)
        (Metrics.counter i.Instance.metrics "engine.steps")
        i.Instance.halted)
    insts;
  Fmt.pr "observable digest: %s@."
    (Digest.to_hex (Digest.string (Workload.Cluster.fingerprint insts)));
  Option.iter
    (fun path ->
      write_json path "metrics"
        (Json.List (Array.to_list (Array.map Instance.metrics_json insts))))
    metrics_out

let cluster_cmd =
  let nodes = Arg.(value & opt int 4 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.") in
  let until_us =
    Arg.(
      value
      & opt float 10_000.0
      & info [ "until-us" ] ~docv:"US" ~doc:"Simulated run length.")
  in
  let load =
    Arg.(
      value
      & opt int 2
      & info [ "load" ] ~docv:"T"
          ~doc:"Self-yielding compute threads to spawn per node.")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Run a multi-node cluster and print a digest of every node's metrics and \
          trace")
    Term.(
      const run_cluster $ nodes $ until_us $ load $ chaos_arg $ chaos_seed_arg
      $ partition_at_arg $ partition_for_arg $ partition_minority_arg $ metrics_out)

let restore_cmd =
  let file =
    Arg.(
      value
      & pos 0 string "ckos.ckpt"
      & info [] ~docv:"FILE" ~doc:"Checkpoint file written by $(b,ckos checkpoint).")
  in
  Cmd.v
    (Cmd.info "restore"
       ~doc:
         "Replay the checkpointed session in a fresh process, restore the image, and \
          verify memory content and syscall results match the checkpoint")
    Term.(const run_restore $ file)

let () =
  Stdlib.exit
    (Cmd.eval
       (Cmd.group
          ~default:run_term (* `ckos --metrics-out m.json` runs the workload *)
          (Cmd.info "ckos" ~doc:"Cache Kernel (OSDI '94) reproduction inspector")
          [
            info_cmd; run_cmd; trace_cmd; bench_cmd; cluster_cmd; checkpoint_cmd;
            restore_cmd;
          ]))
