(* Migration subsystem tests: the Distrib wire codec (qcheck roundtrip,
   malformed-frame rejection), live thread migration with cross-node
   audits, chunk loss under chaos with deterministic replay, the
   forwarding stub, and checkpoint -> restore across kernel instances. *)

open Cachekernel
open Aklib

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "api error: %a" Api.pp_error e

(* -- wire codec -- *)

let print_msg (epoch, m) =
  let body =
    match m with
    | Srm.Distrib.Load_report { node; runnable } ->
      Printf.sprintf "Load_report(%d,%d)" node runnable
    | Srm.Distrib.Coschedule { gang; priority } ->
      Printf.sprintf "Coschedule(%d,%d)" gang priority
    | Srm.Distrib.Migrate_chunk { xfer; seq; total; part } ->
      Printf.sprintf "Migrate_chunk(%d,%d/%d,%dB)" xfer seq total (Bytes.length part)
    | Srm.Distrib.Migrate_ack { xfer; ok } -> Printf.sprintf "Migrate_ack(%d,%b)" xfer ok
    | Srm.Distrib.Migrate_signal { xfer; tag; va } ->
      Printf.sprintf "Migrate_signal(%d,%d,0x%x)" xfer tag va
    | Srm.Distrib.Heartbeat { node; runnable; your_epoch } ->
      Printf.sprintf "Heartbeat(%d,%d,e%d)" node runnable your_epoch
    | Srm.Distrib.Migrate_ctl { xfer; op } -> Printf.sprintf "Migrate_ctl(%d,op%d)" xfer op
  in
  Printf.sprintf "e%d:%s" epoch body

let gen_msg =
  let open QCheck.Gen in
  let w = int_bound 0xFFFFFF in
  let body =
    oneof
      [
        map2
          (fun node runnable -> Srm.Distrib.Load_report { node; runnable })
          (int_bound 255) w;
        map2 (fun gang priority -> Srm.Distrib.Coschedule { gang; priority }) w (int_bound 31);
        map
          (fun (xfer, seq, total, s) ->
            Srm.Distrib.Migrate_chunk { xfer; seq; total; part = Bytes.of_string s })
          (quad w (int_bound 4096) (int_bound 4096) (string_size (int_bound 300)));
        map2 (fun xfer okb -> Srm.Distrib.Migrate_ack { xfer; ok = okb }) w bool;
        map
          (fun (xfer, tag, va) -> Srm.Distrib.Migrate_signal { xfer; tag; va })
          (triple w w w);
        map2
          (fun (node, runnable) your_epoch ->
            Srm.Distrib.Heartbeat { node; runnable; your_epoch })
          (pair (int_bound 255) w)
          (int_bound 0xFFFF);
        map2 (fun xfer op -> Srm.Distrib.Migrate_ctl { xfer; op }) w (int_bound 3);
      ]
  in
  map2 (fun epoch m -> (1 + epoch, m)) (int_bound 0xFFFF) body

let wire_roundtrip =
  QCheck.Test.make ~count:500 ~name:"encode/decode roundtrip (with epoch)"
    (QCheck.make ~print:print_msg gen_msg)
    (fun (epoch, m) -> Srm.Distrib.decode (Srm.Distrib.encode ~epoch m) = Some (epoch, m))

let wire_truncation =
  QCheck.Test.make ~count:200 ~name:"every strict prefix decodes to None"
    (QCheck.make ~print:print_msg gen_msg)
    (fun (epoch, m) ->
      let b = Srm.Distrib.encode ~epoch m in
      let all_rejected = ref true in
      for l = 0 to Bytes.length b - 1 do
        if Srm.Distrib.decode (Bytes.sub b 0 l) <> None then all_rejected := false
      done;
      !all_rejected)

let test_wire_garbage () =
  let none what b =
    Alcotest.(check bool) what true (Srm.Distrib.decode b = None)
  in
  none "empty frame" Bytes.empty;
  none "short frame" (Bytes.make 7 'x');
  let bad_tag = Bytes.make 12 '\000' in
  Bytes.set_int32_le bad_tag 0 9l;
  none "unknown tag" bad_tag;
  let ack = Srm.Distrib.encode (Srm.Distrib.Migrate_ack { xfer = 5; ok = true }) in
  Bytes.set_int32_le ack 12 7l;
  none "ack with non-boolean word" ack;
  let neg_epoch = Srm.Distrib.encode (Srm.Distrib.Load_report { node = 1; runnable = 2 }) in
  Bytes.set_int32_le neg_epoch 4 (-1l);
  none "negative epoch" neg_epoch;
  let bad_op = Srm.Distrib.encode (Srm.Distrib.Migrate_ctl { xfer = 3; op = 0 }) in
  Bytes.set_int32_le bad_op 12 9l;
  none "ctl with out-of-range op" bad_op;
  let chunk =
    Srm.Distrib.encode
      (Srm.Distrib.Migrate_chunk { xfer = 1; seq = 0; total = 1; part = Bytes.make 8 'p' })
  in
  let overlong = Bytes.copy chunk in
  Bytes.set_int32_le overlong 20 64l;
  none "chunk claiming more payload than the frame carries" overlong;
  let negative = Bytes.copy chunk in
  Bytes.set_int32_le negative 20 (-1l);
  none "chunk with negative payload length" negative

let test_codec_corruption () =
  let img =
    { Migrate.Codec.src_node = 3; spaces = []; threads = []; extras = [ ("note", "t") ] }
  in
  let b = Migrate.Codec.encode img in
  (match Migrate.Codec.decode b with
  | Ok i -> Alcotest.(check (list (pair string string))) "extras survive" [ ("note", "t") ] i.Migrate.Codec.extras
  | Error e -> Alcotest.failf "clean image rejected: %s" e);
  let corrupt = Bytes.copy b in
  let pos = Bytes.length corrupt - 3 in
  Bytes.set corrupt pos (Char.chr (Char.code (Bytes.get corrupt pos) lxor 0x40));
  match Migrate.Codec.decode corrupt with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt image accepted"

(* Forged images: well-formed and correctly checksummed, but carrying a
   value restore cannot apply.  Decode must reject them, and so must a
   restore from a file holding one, without raising. *)
let forged_image_rejected img () =
  let b = Migrate.Codec.encode img in
  (match Migrate.Codec.decode b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "forged image decoded");
  let path = Filename.temp_file "ck_forged" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
      let ak = Workload.Setup.first_kernel (Workload.Setup.instance ()) in
      match Migrate.Checkpoint.restore ak ~path ~programs:[] () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "forged image restored")

let forged_space ~pages payload =
  {
    Migrate.Codec.space_tag = 1;
    space_gen = 0;
    segments = [ { Migrate.Codec.seg_name = "s"; seg_pages = pages; payload } ];
    regions =
      [
        {
          Migrate.Codec.va_start = 0x40000000;
          rg_pages = pages;
          seg = 0;
          seg_offset = 0;
          writable = true;
          message_mode = false;
        };
      ];
  }

let forged_negative_space =
  {
    Migrate.Codec.src_node = 0;
    spaces = [ forged_space ~pages:1 [] ];
    threads =
      [
        {
          Migrate.Codec.thread_tag = 1;
          thread_gen = 0;
          program = "p";
          priority = 8;
          affinity = None;
          locked = false;
          space = Some (-1);
          xfer = 0;
        };
      ];
    extras = [];
  }

let forged_long_page =
  {
    Migrate.Codec.src_node = 0;
    spaces =
      [
        forged_space ~pages:2
          [ { Migrate.Codec.index = 0; data = Bytes.make (Hw.Addr.page_size + 1) 'x' } ];
      ];
    threads = [];
    extras = [];
  }

(* -- cluster scaffolding -- *)

let two_nodes ?config () =
  let net = Hw.Interconnect.create () in
  let make id =
    let inst = Workload.Setup.instance ?config ~node_id:id ~cpus:2 () in
    let srm = ok (Srm.Manager.boot inst ()) in
    let d = Srm.Distrib.start srm ~net in
    (inst, srm, d)
  in
  let nodes = [ make 0; make 1 ] in
  List.iter
    (fun (_, _, d) ->
      List.iter (fun (i, _, _) -> Srm.Distrib.add_peer d (Instance.node_id i)) nodes)
    nodes;
  nodes

let spin_body progress () =
  let rec loop () =
    Hw.Exec.compute 2000;
    incr progress;
    ignore (Hw.Exec.trap Api.Ck_yield);
    loop ()
  in
  loop ()

let audit_clean (i : Instance.t) =
  Alcotest.(check int)
    (Printf.sprintf "node %d audit clean" (Instance.node_id i))
    0
    (List.length (Audit.run i).Audit.violations)

(* -- live migration -- *)

let test_live_migration () =
  let nodes = two_nodes () in
  let i0, srm0, d0 = List.nth nodes 0 in
  let i1, _, _ = List.nth nodes 1 in
  let insts = [| i0; i1 |] in
  let progress = ref 0 in
  let id =
    ok
      (App_kernel.spawn_internal srm0.Srm.Manager.ak ~priority:8
         (Hw.Exec.unit_body (spin_body progress)))
  in
  ignore (Engine.run ~until_us:2_000.0 insts);
  Alcotest.(check bool) "ran at source" true (!progress > 0);
  ignore (ok (Migrate.Plane.move_thread (Srm.Distrib.plane d0) ~dst:1 id));
  ignore (Engine.run ~until_us:20_000.0 insts);
  Alcotest.(check int) "transfer completed" 1
    (Metrics.counter i0.Instance.metrics "migrate.completed");
  Alcotest.(check int) "adopted at node 1" 1
    (Metrics.counter i1.Instance.metrics "migrate.adopted");
  Alcotest.(check bool) "source entry retired" true
    (Thread_lib.exited srm0.Srm.Manager.ak.App_kernel.threads id);
  (* only the destination holds the thread now: further progress is node
     1's execution of the shipped continuation *)
  let after_move = !progress in
  ignore (Engine.run ~until_us:30_000.0 insts);
  Alcotest.(check bool) "resumed on destination" true (!progress > after_move);
  List.iter (fun (i, _, _) -> audit_clean i) nodes

(* -- chunk loss under chaos, with deterministic replay -- *)

(* Migrate a space with [ws] dirty pages from node 0 to node 1 while the
   fault plane drops a quarter of the chunks; return the counters the
   checks read and the full observable surface the replay must reproduce
   byte for byte. *)
let chaos_run seed =
  let config =
    {
      Config.default with
      Config.chaos =
        Some
          {
            Config.chaos_default with
            Config.chaos_seed = seed;
            Config.migrate_drop = 0.25;
          };
    }
  in
  let nodes = two_nodes ~config () in
  let i0, srm0, d0 = List.nth nodes 0 in
  let i1, _, _ = List.nth nodes 1 in
  let ak0 = srm0.Srm.Manager.ak in
  let mgr = ak0.App_kernel.mgr in
  let ws = 8 in
  let vsp = ok (Segment_mgr.create_space mgr) in
  let seg = Segment_mgr.create_segment mgr ~name:"ws" ~pages:ws in
  Segment_mgr.write_segment_now mgr seg ~offset:0
    (Bytes.init (ws * Hw.Addr.page_size) (fun i -> Char.chr (1 + (i mod 251))));
  Segment_mgr.attach_region mgr vsp
    (Region.v ~va_start:0x40000000 ~pages:ws ~segment:seg ~seg_offset:0 ());
  let progress = ref 0 in
  ignore
    (ok
       (Thread_lib.spawn ak0.App_kernel.threads ~space_tag:vsp.Segment_mgr.tag ~priority:8
          (Hw.Exec.unit_body (spin_body progress))));
  let insts = [| i0; i1 |] in
  Array.iter (fun (i : Instance.t) -> Trace.enable i.Instance.trace) insts;
  ignore (Engine.run ~until_us:2_000.0 insts);
  ignore (ok (Migrate.Plane.move_space (Srm.Distrib.plane d0) ~dst:1 vsp.Segment_mgr.tag));
  ignore (Engine.run ~until_us:100_000.0 insts);
  let m0 = i0.Instance.metrics in
  let m1 = i1.Instance.metrics in
  ( Metrics.counter m0 "migrate.chunks_dropped",
    Metrics.counter m0 "migrate.retransmits",
    Metrics.counter m0 "migrate.completed",
    Metrics.counter m1 "migrate.adopted",
    List.length (Audit.run i0).Audit.violations
    + List.length (Audit.run i1).Audit.violations,
    Workload.Cluster.fingerprint insts )

let test_chaos_recovery () =
  let dropped, retrans, completed, adopted, viols, fp1 = chaos_run 1 in
  Alcotest.(check bool) "chunks were dropped" true (dropped > 0);
  Alcotest.(check bool) "watchdog retransmitted" true (retrans > 0);
  Alcotest.(check int) "transfer completed despite loss" 1 completed;
  Alcotest.(check int) "adopted at node 1" 1 adopted;
  Alcotest.(check int) "both nodes audit clean" 0 viols;
  let _, _, _, _, _, fp2 = chaos_run 1 in
  Alcotest.(check string) "same seed replays identically" fp1 fp2;
  let _, _, completed2, adopted2, viols2, _ = chaos_run 2 in
  Alcotest.(check int) "seed 2 also recovers" 1 completed2;
  Alcotest.(check int) "seed 2 adoption" 1 adopted2;
  Alcotest.(check int) "seed 2 audits clean" 0 viols2

(* -- forwarding stub -- *)

let test_forwarding () =
  let nodes = two_nodes () in
  let i0, srm0, d0 = List.nth nodes 0 in
  let i1, _, _ = List.nth nodes 1 in
  let insts = [| i0; i1 |] in
  let threads0 = srm0.Srm.Manager.ak.App_kernel.threads in
  let progress = ref 0 in
  let id =
    ok
      (App_kernel.spawn_internal srm0.Srm.Manager.ak ~priority:8
         (Hw.Exec.unit_body (spin_body progress)))
  in
  ignore (Engine.run ~until_us:2_000.0 insts);
  Alcotest.(check bool) "unknown id delivers nowhere" false
    (Thread_lib.signal threads0 999 ~va:0x1000);
  ignore (ok (Migrate.Plane.move_thread (Srm.Distrib.plane d0) ~dst:1 id));
  ignore (Engine.run ~until_us:20_000.0 insts);
  Alcotest.(check bool) "signal at old residence is forwarded" true
    (Thread_lib.signal threads0 id ~va:0x2000);
  ignore (Engine.run ~until_us:25_000.0 insts);
  Alcotest.(check int) "stub counted the forward" 1
    (Metrics.counter i0.Instance.metrics "migrate.forwarded");
  Alcotest.(check bool) "destination delivered it" true
    (Metrics.counter i1.Instance.metrics "migrate.signals_delivered" >= 1);
  List.iter (fun (i, _, _) -> audit_clean i) nodes

(* -- checkpoint / restore -- *)

let test_checkpoint_restore () =
  let inst = Workload.Setup.instance () in
  let ak = Workload.Setup.first_kernel inst in
  let mgr = ak.App_kernel.mgr in
  let vsp = ok (Segment_mgr.create_space mgr) in
  let pages = 2 in
  let seg = Segment_mgr.create_segment mgr ~name:"data" ~pages in
  Segment_mgr.write_segment_now mgr seg ~offset:0
    (Bytes.init (pages * Hw.Addr.page_size) (fun i -> Char.chr (1 + (i mod 251))));
  Segment_mgr.attach_region mgr vsp
    (Region.v ~va_start:0x40000000 ~pages ~segment:seg ~seg_offset:0 ());
  let progress = ref 0 in
  let body () =
    for _ = 1 to 5 do
      Hw.Exec.compute 1000;
      incr progress;
      ignore (Hw.Exec.trap Api.Ck_yield)
    done
  in
  ignore
    (ok
       (Thread_lib.spawn ak.App_kernel.threads ~space_tag:vsp.Segment_mgr.tag ~priority:8
          (Hw.Exec.unit_body body)));
  ignore (Engine.run ~until_us:500.0 [| inst |]);
  let path = Filename.temp_file "ck_test" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let live ak = Hw.Disk.live_blocks ak.App_kernel.disk in
      let live_before = live ak in
      let saved_bytes =
        Migrate.Checkpoint.save ak ~path ~extras:[ ("note", "t") ]
          ~name_of:(fun _ -> "worker")
          ()
      in
      Alcotest.(check bool) "image persisted" true (saved_bytes > 0);
      Alcotest.(check int) "save frees its staging blocks" live_before (live ak);
      (* a fresh instance stands in for a new process run *)
      let inst2 = Workload.Setup.instance () in
      let ak2 = Workload.Setup.first_kernel inst2 in
      let live_before2 = live ak2 in
      let progress2 = ref 0 in
      let body2 () =
        for _ = 1 to 5 do
          Hw.Exec.compute 1000;
          incr progress2;
          ignore (Hw.Exec.trap Api.Ck_yield)
        done
      in
      match
        Migrate.Checkpoint.restore ak2 ~path
          ~programs:[ ("worker", Hw.Exec.unit_body body2) ]
          ~schedule:true ()
      with
      | Error e -> Alcotest.failf "restore: %s" e
      | Ok r ->
        Alcotest.(check int) "restore frees its staging blocks" live_before2 (live ak2);
        Alcotest.(check int) "one space rebuilt" 1 (List.length r.Migrate.Checkpoint.spaces);
        Alcotest.(check int) "one thread adopted" 1 (List.length r.Migrate.Checkpoint.threads);
        Alcotest.(check (option string)) "extras roundtrip" (Some "t")
          (List.assoc_opt "note" r.Migrate.Checkpoint.image.Migrate.Codec.extras);
        (* re-capturing the restored kernel reproduces the segment payload
           byte for byte *)
        let img2 = Migrate.Checkpoint.image_of ak2 () in
        let payload img =
          List.concat_map
            (fun (s : Migrate.Codec.space_image) ->
              List.map
                (fun (sg : Migrate.Codec.segment_image) ->
                  (sg.Migrate.Codec.seg_name, sg.Migrate.Codec.seg_pages, sg.Migrate.Codec.payload))
                s.Migrate.Codec.segments)
            img.Migrate.Codec.spaces
        in
        Alcotest.(check bool) "segment contents survive the roundtrip" true
          (payload r.Migrate.Checkpoint.image = payload img2);
        ignore (Engine.run ~until_us:5_000.0 [| inst2 |]);
        Alcotest.(check int) "restored thread restarted fresh and finished" 5 !progress2;
        audit_clean inst2)

let () =
  Alcotest.run "migrate"
    [
      ( "wire",
        [
          QCheck_alcotest.to_alcotest wire_roundtrip;
          QCheck_alcotest.to_alcotest wire_truncation;
          Alcotest.test_case "malformed frames rejected" `Quick test_wire_garbage;
          Alcotest.test_case "corrupt image rejected" `Quick test_codec_corruption;
          Alcotest.test_case "negative thread space index rejected" `Quick
            (forged_image_rejected forged_negative_space);
          Alcotest.test_case "page data longer than a page rejected" `Quick
            (forged_image_rejected forged_long_page);
        ] );
      ( "live",
        [
          Alcotest.test_case "thread resumes on destination" `Quick test_live_migration;
          Alcotest.test_case "chunk loss recovery and replay" `Quick test_chaos_recovery;
          Alcotest.test_case "forwarding stub" `Quick test_forwarding;
        ] );
      ( "checkpoint",
        [ Alcotest.test_case "save and restore across runs" `Quick test_checkpoint_restore ] );
    ]
