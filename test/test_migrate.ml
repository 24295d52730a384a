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
    | Srm.Distrib.Heartbeat { node; runnable; your_epoch } ->
      Printf.sprintf "Heartbeat(%d,%d,e%d)" node runnable your_epoch
    | Srm.Distrib.Migrate { xfer; msg } ->
      Printf.sprintf "Migrate(%d,%s)" xfer
        (match msg with
        | Migrate.Plane.Chunk { seq; total; len; _ } -> Printf.sprintf "Chunk(%d/%d,%dB)" seq total len
        | Applied -> "Applied"
        | Refused -> "Refused"
        | Signal { tag; va } -> Printf.sprintf "Signal(%d,0x%x)" tag va
        | Commit -> "Commit"
        | Commit_ack -> "Commit_ack"
        | Abort -> "Abort"
        | Abort_ack -> "Abort_ack")
  in
  Printf.sprintf "e%d:%s" epoch body

let gen_plane_msg =
  let open QCheck.Gen in
  let w = int_bound 0xFFFFFF in
  oneof
    [
      map
        (fun (seq, total, s) ->
          Migrate.Plane.Chunk { seq; total; buf = Bytes.of_string s; off = 0; len = String.length s })
        (triple (int_bound 4096) (int_bound 4096) (string_size (int_bound 300)));
      map2 (fun tag va -> Migrate.Plane.Signal { tag; va }) w w;
      oneofl Migrate.Plane.[ Applied; Refused; Commit; Commit_ack; Abort; Abort_ack ];
    ]

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
        map2 (fun xfer msg -> Srm.Distrib.Migrate { xfer; msg }) w gen_plane_msg;
        map2
          (fun (node, runnable) your_epoch ->
            Srm.Distrib.Heartbeat { node; runnable; your_epoch })
          (pair (int_bound 255) w)
          (int_bound 0xFFFF);
      ]
  in
  map2 (fun epoch m -> (1 + epoch, m)) (int_bound 0xFFFF) body

(* A chunk decodes to a view into its frame: compare chunks by the bytes
   they carry. *)
let same_msg a b =
  match (a, b) with
  | ( Srm.Distrib.Migrate { xfer; msg = Migrate.Plane.Chunk { seq; total; buf; off; len } },
      Srm.Distrib.Migrate
        { xfer = x'; msg = Migrate.Plane.Chunk { seq = s'; total = t'; buf = b'; off = o'; len = l' } } ) ->
    xfer = x' && seq = s' && total = t' && Bytes.sub buf off len = Bytes.sub b' o' l'
  | _ -> a = b

let wire_roundtrip =
  QCheck.Test.make ~count:500 ~name:"encode/decode roundtrip (with epoch)"
    (QCheck.make ~print:print_msg gen_msg)
    (fun (epoch, m) ->
      match Srm.Distrib.decode (Srm.Distrib.encode ~epoch m) with
      | Some (e, m') -> e = epoch && same_msg m m'
      | None -> false)

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
  let migrate xfer msg = Srm.Distrib.encode (Srm.Distrib.Migrate { xfer; msg }) in
  let ack = migrate 5 Migrate.Plane.Applied in
  Bytes.set_int32_le ack 12 7l;
  none "ack with non-boolean word" ack;
  let neg_epoch = Srm.Distrib.encode (Srm.Distrib.Load_report { node = 1; runnable = 2 }) in
  Bytes.set_int32_le neg_epoch 4 (-1l);
  none "negative epoch" neg_epoch;
  let bad_op = migrate 3 Migrate.Plane.Commit in
  Bytes.set_int32_le bad_op 12 9l;
  none "ctl with out-of-range op" bad_op;
  Bytes.set_int32_le bad_op 12 (-1l);
  none "ctl with negative op" bad_op;
  let chunk =
    migrate 1 (Migrate.Plane.Chunk { seq = 0; total = 1; buf = Bytes.make 8 'p'; off = 0; len = 8 })
  in
  let overlong = Bytes.copy chunk in
  Bytes.set_int32_le overlong 20 64l;
  none "chunk claiming more payload than the frame carries" overlong;
  let negative = Bytes.copy chunk in
  Bytes.set_int32_le negative 20 (-1l);
  none "chunk with negative payload length" negative

(* Each migration message has a fixed tag word and frame size, which set
   a transfer's wire time: chunk 24 + len bytes, acks 16, signal 20,
   commit-protocol controls 16. *)
let test_wire_sizes () =
  let frame msg = Srm.Distrib.encode ~epoch:3 (Srm.Distrib.Migrate { xfer = 7; msg }) in
  List.iter
    (fun (what, msg, tag, size) ->
      let b = frame msg in
      Alcotest.(check (pair int int)) (what ^ ": tag word and size") (tag, size)
        (Int32.to_int (Bytes.get_int32_le b 0), Bytes.length b))
    Migrate.Plane.
      [
        ("chunk", Chunk { seq = 0; total = 1; buf = Bytes.make 100 'c'; off = 10; len = 37 }, 2, 24 + 37);
        ("empty chunk", Chunk { seq = 0; total = 1; buf = Bytes.empty; off = 0; len = 0 }, 2, 24);
        ("applied", Applied, 3, 16);
        ("refused", Refused, 3, 16);
        ("signal", Signal { tag = 4; va = 0x2000 }, 4, 20);
        ("commit", Commit, 6, 16);
        ("commit ack", Commit_ack, 6, 16);
        ("abort", Abort, 6, 16);
        ("abort ack", Abort_ack, 6, 16);
      ];
  (* the word after the transfer id: ack 0/1, control code 0-3 *)
  List.iter
    (fun (what, msg, code) ->
      Alcotest.(check int) (what ^ ": code word") code (Int32.to_int (Bytes.get_int32_le (frame msg) 12)))
    Migrate.Plane.
      [
        ("refused", Refused, 0); ("applied", Applied, 1); ("commit", Commit, 0);
        ("commit ack", Commit_ack, 1); ("abort", Abort, 2); ("abort ack", Abort_ack, 3);
      ]

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

(* -- wire format pins -- *)

(* Two spaces, a hole and an explicit zero page, a partial page, threads
   with [Some] and [None] fields, and extras. *)
let golden_image =
  let open Migrate.Codec in
  let page index seed n = { index; data = Bytes.init n (fun k -> Char.chr ((seed + (k * 7)) land 0xFF)) } in
  let region va_start rg_pages seg ~writable ~message_mode =
    { va_start; rg_pages; seg; seg_offset = 0; writable; message_mode }
  in
  {
    src_node = 7;
    spaces =
      [
        {
          space_tag = 3;
          space_gen = 2;
          segments =
            [
              {
                seg_name = "heap";
                seg_pages = 4;
                (* page 2 is a hole; page 1 is an explicit zero page; page 3
                   is partial *)
                payload =
                  [
                    page 0 1 Hw.Addr.page_size;
                    { index = 1; data = Bytes.make Hw.Addr.page_size '\000' };
                    page 3 5 100;
                  ];
              };
              { seg_name = "stack"; seg_pages = 1; payload = [] };
            ];
          regions =
            [
              region 0x40000000 4 0 ~writable:true ~message_mode:false;
              region 0x50000000 1 1 ~writable:false ~message_mode:true;
            ];
        };
        {
          space_tag = 9;
          space_gen = 1;
          segments = [ { seg_name = "msg"; seg_pages = 2; payload = [ page 1 9 Hw.Addr.page_size ] } ];
          regions = [ region 0x60000000 2 0 ~writable:true ~message_mode:true ];
        };
      ];
    threads =
      [
        {
          thread_tag = 11;
          thread_gen = 4;
          program = "worker";
          priority = 8;
          affinity = Some 1;
          locked = true;
          space = Some 0;
          xfer = 1_000_001;
        };
        {
          thread_tag = 12;
          thread_gen = 5;
          program = "";
          priority = 31;
          affinity = None;
          locked = false;
          space = None;
          xfer = 0;
        };
      ];
    extras = [ ("note", "golden"); ("seed", "42") ];
  }

(* [encode golden_image]'s length and FNV-1a digest as the CKMG v1 encoder
   first produced them: a change here is a wire and checkpoint format
   change. *)
let golden_len = 12773
let golden_fnv = 0x3dcc9fc6

let test_golden () =
  let b = Migrate.Codec.encode golden_image in
  Alcotest.(check int) "image length" golden_len (Bytes.length b);
  Alcotest.(check int) "image digest" golden_fnv (Migrate.Codec.fnv32 b);
  (match Migrate.Codec.decode b with
  | Ok img -> Alcotest.(check bool) "decodes to the same image" true (img = golden_image)
  | Error e -> Alcotest.failf "golden image rejected: %s" e);
  (* a checkpoint file is page-padded: bytes past the checksum are ignored *)
  match Migrate.Codec.decode (Bytes.cat b (Bytes.make 100 '\000')) with
  | Ok img -> Alcotest.(check bool) "padding ignored" true (img = golden_image)
  | Error e -> Alcotest.failf "padded golden image rejected: %s" e

let test_fnv32_vectors () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check int) (Printf.sprintf "fnv32 %S" s) want (Migrate.Codec.fnv32 (Bytes.of_string s)))
    [ ("", 0x811c9dc5); ("a", 0xe40c292c); ("foobar", 0xbf9cf968) ]

(* -- untrusted decoders: byte-mutation fuzzing -- *)

let gen_image =
  let open QCheck.Gen in
  let small = int_bound 0xFFFF in
  let gen_page index =
    map (fun s -> { Migrate.Codec.index; data = Bytes.of_string s }) (string_size (int_bound 48))
  in
  let gen_segment =
    int_range 1 4 >>= fun seg_pages ->
    list_size (int_bound 2) (int_bound (seg_pages - 1)) >>= fun idx ->
    let idx = List.sort_uniq compare idx in
    flatten_l (List.map gen_page idx) >>= fun payload ->
    map (fun seg_name -> { Migrate.Codec.seg_name; seg_pages; payload }) (string_size (int_bound 6))
  in
  let gen_space =
    list_size (int_range 1 2) gen_segment >>= fun segments ->
    let n = List.length segments in
    list_size (int_bound 2)
      (map
         (fun (seg, writable, message_mode) ->
           {
             Migrate.Codec.va_start = 0x40000000 + (seg * 0x100000);
             rg_pages = 1;
             seg;
             seg_offset = 0;
             writable;
             message_mode;
           })
         (triple (int_bound (n - 1)) bool bool))
    >>= fun regions ->
    map2
      (fun space_tag space_gen -> { Migrate.Codec.space_tag; space_gen; segments; regions })
      small small
  in
  list_size (int_bound 2) gen_space >>= fun spaces ->
  let nspaces = List.length spaces in
  let gen_thread =
    map
      (fun ((thread_tag, thread_gen, program), (priority, affinity, locked), (space, xfer)) ->
        {
          Migrate.Codec.thread_tag;
          thread_gen;
          program;
          priority;
          affinity;
          locked;
          space = (if nspaces = 0 then None else Option.map (fun i -> i mod nspaces) space);
          xfer;
        })
      (triple
         (triple small small (string_size (int_bound 6)))
         (triple (int_bound 31) (opt (int_bound 1)) bool)
         (pair (opt (int_bound 1)) small))
  in
  list_size (int_bound 3) gen_thread >>= fun threads ->
  list_size (int_bound 2) (pair (string_size (int_bound 5)) (string_size (int_bound 5)))
  >>= fun extras ->
  map (fun src_node -> { Migrate.Codec.src_node; spaces; threads; extras }) (int_bound 63)

(* Recompute the trailer for whatever body length the header now claims,
   so the parser (not just the checksum) sees the damage. *)
let reseal b =
  if Bytes.length b >= 13 then begin
    let body_len = Int32.to_int (Bytes.get_int32_le b 5) land 0xFFFFFFFF in
    if 9 + body_len + 4 <= Bytes.length b then
      Bytes.set_int32_le b (9 + body_len)
        (Int32.of_int (Migrate.Codec.fnv32 (Bytes.sub b 9 body_len)))
  end;
  b

let is_prefix p b = Bytes.length p <= Bytes.length b && Bytes.equal p (Bytes.sub b 0 (Bytes.length p))

let codec_roundtrip =
  QCheck.Test.make ~count:300 ~name:"codec roundtrip over generated images"
    (QCheck.make gen_image)
    (fun img -> Migrate.Codec.decode (Migrate.Codec.encode img) = Ok img)

(* Any image [decode] accepts re-encodes to the bytes it came from (up to
   the ignored padding); everything else is an [Error], never a raise. *)
let codec_fuzz =
  QCheck.Test.make ~count:1000 ~name:"codec decode survives byte mutation"
    (QCheck.make
       ~print:(fun (_, muts, sealed) -> Printf.sprintf "[%s] resealed=%b" (Mutation.to_string muts) sealed)
       QCheck.Gen.(triple gen_image (list_size (int_range 1 3) Mutation.gen) bool))
    (fun (img, muts, sealed) ->
      let b = Mutation.apply (Migrate.Codec.encode img) muts in
      let b = if sealed then reseal b else b in
      match Migrate.Codec.decode b with
      | Error _ -> true
      | Ok img' -> is_prefix (Migrate.Codec.encode img') b)

let distrib_fuzz =
  QCheck.Test.make ~count:1000 ~name:"frame decode survives byte mutation"
    (QCheck.make
       ~print:(fun (m, muts) -> Printf.sprintf "%s [%s]" (print_msg m) (Mutation.to_string muts))
       QCheck.Gen.(pair gen_msg (list_size (int_range 1 3) Mutation.gen)))
    (fun ((epoch, m), muts) ->
      let b = Mutation.apply (Srm.Distrib.encode ~epoch m) muts in
      match Srm.Distrib.decode b with
      | None -> true
      | Some (e, m') -> is_prefix (Srm.Distrib.encode ~epoch:e m') b)

(* -- cluster scaffolding -- *)

(* Node 0 and node 1 on one fiber; [dst_config] (default [config]) is
   node 1's. *)
let two_nodes ?config ?dst_config () =
  let net = Hw.Interconnect.create () in
  let make id =
    let config = match dst_config with Some c when id = 1 -> Some c | _ -> config in
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

let counter (i : Instance.t) name = Metrics.counter i.Instance.metrics name

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

(* -- a refused landing -- *)

(* Spaces of [ak] that map a segment named [name]. *)
let spaces_holding (ak : App_kernel.t) name =
  List.length
    (List.filter
       (fun (v : Segment_mgr.vspace) ->
         List.exists (fun (r : Region.t) -> r.Region.segment.Segment.name = name) v.Segment_mgr.regions)
       (Segment_mgr.list_spaces ak.App_kernel.mgr))

(* Node 1's space cache is full of locked descriptors, so it cannot build
   the shipped space: it refuses the landing with a negative ack, and the
   source, whose retained image is authoritative, re-adopts the space.
   Exactly one copy of the workspace stays live, at the source, its thread
   keeps running, and node 1 gets back the frames the refused image had
   filled. *)
let refused_landing body =
  let nodes = two_nodes ~dst_config:{ Config.default with Config.space_cache = 4 } () in
  let i0, srm0, d0 = List.nth nodes 0 in
  let i1, srm1, _ = List.nth nodes 1 in
  let ak0 = srm0.Srm.Manager.ak and ak1 = srm1.Srm.Manager.ak in
  let rec fill tag =
    match Api.load_space i1 ~caller:(App_kernel.oid ak1) ~lock:true ~tag () with
    | Ok _ -> fill (tag + 1)
    | Error _ -> ()
  in
  fill 1000;
  let frames1 = Frame_alloc.available ak1.App_kernel.frames in
  let mgr = ak0.App_kernel.mgr in
  let vsp = ok (Segment_mgr.create_space mgr) in
  let seg = Segment_mgr.create_segment mgr ~name:"ws" ~pages:2 in
  Segment_mgr.write_segment_now mgr seg ~offset:0 (Bytes.make (2 * Hw.Addr.page_size) '\005');
  Segment_mgr.attach_region mgr vsp
    (Region.v ~va_start:0x40000000 ~pages:2 ~segment:seg ~seg_offset:0 ());
  let id =
    ok
      (Thread_lib.spawn ak0.App_kernel.threads ~space_tag:vsp.Segment_mgr.tag ~priority:8
         (Hw.Exec.unit_body body))
  in
  let insts = [| i0; i1 |] in
  ignore (Engine.run ~until_us:2_000.0 insts);
  ignore (ok (Migrate.Plane.move_space (Srm.Distrib.plane d0) ~dst:1 vsp.Segment_mgr.tag));
  ignore (Engine.run ~until_us:50_000.0 insts);
  Alcotest.(check int) "destination could not apply" 1 (counter i1 "migrate.apply_errors");
  Alcotest.(check int) "negative ack counted" 1 (counter i0 "migrate.failed");
  Alcotest.(check int) "re-adopted at the source" 1 (counter i0 "migrate.readopted");
  (nodes, id, frames1)

let test_refused_landing () =
  let progress = ref 0 in
  let nodes, _, frames1 = refused_landing (spin_body progress) in
  let i0, srm0, _ = List.nth nodes 0 in
  let i1, srm1, _ = List.nth nodes 1 in
  let ak0 = srm0.Srm.Manager.ak and ak1 = srm1.Srm.Manager.ak in
  Alcotest.(check int) "never completed" 0 (counter i0 "migrate.completed");
  Alcotest.(check int) "nothing adopted at node 1" 0 (counter i1 "migrate.adopted");
  Alcotest.(check (pair int int)) "one live copy, at the source" (1, 0)
    (spaces_holding ak0 "ws", spaces_holding ak1 "ws");
  Alcotest.(check int) "node 1 frames returned" frames1
    (Frame_alloc.available ak1.App_kernel.frames);
  let before = !progress in
  ignore (Engine.run ~until_us:60_000.0 [| i0; i1 |]);
  Alcotest.(check bool) "the re-adopted thread runs" true (!progress > before);
  List.iter (fun (i, _, _) -> audit_clean i) nodes

(* The re-adopted thread has a fresh local id, but the stub keeps its old
   one valid: a signal against the old id reaches it through the
   re-adoption, not the wire. *)
let test_old_id_after_readopt () =
  let seen = ref [] in
  let rec body () =
    (match Hw.Exec.trap Api.Ck_wait_signal with
    | Api.Ck_signal va -> seen := va :: !seen
    | _ -> ());
    body ()
  in
  let nodes, id, _ = refused_landing body in
  let i0, srm0, _ = List.nth nodes 0 in
  let i1, _, _ = List.nth nodes 1 in
  let threads0 = srm0.Srm.Manager.ak.App_kernel.threads in
  Alcotest.(check bool) "the old id has no entry" true (Option.is_none (Thread_lib.entry threads0 id));
  Alcotest.(check bool) "a signal on the old id is accepted" true
    (Thread_lib.signal threads0 id ~va:0x3000);
  ignore (Engine.run ~until_us:60_000.0 [| i0; i1 |]);
  Alcotest.(check int) "delivered at the source" 1 (counter i0 "migrate.signals_delivered");
  Alcotest.(check int) "nothing sent to node 1" 0 (counter i1 "migrate.signals_delivered");
  Alcotest.(check (list int)) "the re-adopted thread saw it" [ 0x3000 ] !seen;
  List.iter (fun (i, _, _) -> audit_clean i) nodes

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

(* A signal raised at the source while the image is applied but parked at
   the destination (after [dst.applied], before the commit) waits in the
   destination's pending queue and reaches the thread once it is
   scheduled, instead of being dropped against the parked copy. *)
let test_signal_in_commit_window () =
  let nodes = two_nodes () in
  let i0, srm0, d0 = List.nth nodes 0 in
  let i1, _, d1 = List.nth nodes 1 in
  let insts = [| i0; i1 |] in
  let threads0 = srm0.Srm.Manager.ak.App_kernel.threads in
  let seen = ref [] in
  let rec body () =
    (match Hw.Exec.trap Api.Ck_wait_signal with
    | Api.Ck_signal va -> seen := va :: !seen
    | _ -> ());
    body ()
  in
  let id = ok (App_kernel.spawn_internal srm0.Srm.Manager.ak ~priority:8 (Hw.Exec.unit_body body)) in
  ignore (Engine.run ~until_us:2_000.0 insts);
  let forwarded = ref false in
  Migrate.Plane.set_step_hook (Srm.Distrib.plane d1)
    (Some
       (fun name ->
         if name = "dst.applied" then forwarded := Thread_lib.signal threads0 id ~va:0x2000));
  ignore (ok (Migrate.Plane.move_thread (Srm.Distrib.plane d0) ~dst:1 id));
  ignore (Engine.run ~until_us:30_000.0 insts);
  Alcotest.(check bool) "source reported the signal forwarded" true !forwarded;
  Alcotest.(check int) "stub counted the forward" 1 (Metrics.counter i0.Instance.metrics "migrate.forwarded");
  Alcotest.(check int) "transfer completed" 1 (Metrics.counter i0.Instance.metrics "migrate.completed");
  Alcotest.(check int) "nothing dropped" 0 (Metrics.counter i1.Instance.metrics "migrate.signals_dropped");
  Alcotest.(check int) "delivered after the commit" 1
    (Metrics.counter i1.Instance.metrics "migrate.signals_delivered");
  Alcotest.(check (list int)) "the thread saw the signal" [ 0x2000 ] !seen;
  List.iter (fun (i, _, _) -> audit_clean i) nodes

(* -- untrusted chunks -- *)

(* Node 1's plane, fed chunks from a node-0 source that never sent them. *)
let receiver () =
  match two_nodes () with
  | [ _; (i1, _, d1) ] -> (i1, Srm.Distrib.plane d1)
  | _ -> assert false

let feed plane ~xfer ~seq ~total ?(off = 0) ?len part =
  let len = Option.value len ~default:(Bytes.length part - off) in
  Migrate.Plane.recv plane ~src:0 ~xfer (Migrate.Plane.Chunk { seq; total; buf = part; off; len })

let test_forged_chunks () =
  let i1, plane = receiver () in
  let expect what ~admitted f =
    let rejected = counter i1 "migrate.chunks_rejected" in
    let admitted0 = counter i1 "migrate.chunks_in" in
    (* empty the minor heap first: a minor collection inside the window
       makes the runtime's allocation counters jump by most of a minor
       heap (~1.8 MB), and how full the heap is here depends on the
       randomly seeded QCheck groups that ran before *)
    Gc.minor ();
    let allocated = Gc.allocated_bytes () in
    f ();
    Alcotest.(check bool)
      (what ^ ": allocates no buffer") true
      (Gc.allocated_bytes () -. allocated < 65536.0);
    Alcotest.(check (pair int int))
      (what ^ ": admitted/rejected")
      (if admitted then (1, 0) else (0, 1))
      (counter i1 "migrate.chunks_in" - admitted0, counter i1 "migrate.chunks_rejected" - rejected)
  in
  let part n = Bytes.make n 'p' in
  let limit = Migrate.Codec.max_image_bytes in
  expect "total far past the image limit" ~admitted:false (fun () ->
      feed plane ~xfer:1 ~seq:0 ~total:0x7FFFFFFF (part 1024));
  expect "more parts than the limit has bytes" ~admitted:false (fun () ->
      feed plane ~xfer:2 ~seq:limit ~total:(limit + 1) (part 1));
  expect "parts of this size overflow the limit" ~admitted:false (fun () ->
      feed plane ~xfer:3 ~seq:0 ~total:((limit / 1024) + 2) (part 1024));
  expect "zero total" ~admitted:false (fun () -> feed plane ~xfer:4 ~seq:0 ~total:0 (part 8));
  expect "seq past the end" ~admitted:false (fun () -> feed plane ~xfer:5 ~seq:4 ~total:4 (part 8));
  expect "negative seq" ~admitted:false (fun () -> feed plane ~xfer:5 ~seq:(-1) ~total:4 (part 8));
  expect "slice outside its buffer" ~admitted:false (fun () ->
      feed plane ~xfer:5 ~seq:0 ~total:4 ~off:4 ~len:8 (part 8));
  (* xfer 6: the first part fixes the chunk size at 100 *)
  expect "first part" ~admitted:true (fun () -> feed plane ~xfer:6 ~seq:0 ~total:3 (part 100));
  expect "non-last part of another length" ~admitted:false (fun () ->
      feed plane ~xfer:6 ~seq:1 ~total:3 (part 99));
  expect "empty non-last part" ~admitted:false (fun () ->
      feed plane ~xfer:6 ~seq:1 ~total:3 (part 0));
  expect "last part longer than its slot" ~admitted:false (fun () ->
      feed plane ~xfer:6 ~seq:2 ~total:3 (part 101));
  expect "a different total for the transfer" ~admitted:false (fun () ->
      feed plane ~xfer:6 ~seq:1 ~total:4 (part 100));
  expect "a fitting part" ~admitted:true (fun () -> feed plane ~xfer:6 ~seq:1 ~total:3 (part 100));
  (* xfer 7: the last part arrives first and bounds the others from below *)
  expect "last part first" ~admitted:true (fun () -> feed plane ~xfer:7 ~seq:2 ~total:3 (part 50));
  expect "a chunk shorter than the last part" ~admitted:false (fun () ->
      feed plane ~xfer:7 ~seq:0 ~total:3 (part 40));
  Alcotest.(check int) "nothing was decoded" 0 (counter i1 "migrate.decode_errors")

(* The receiver learns the chunk size from the wire, so a sender whose
   [migrate_chunk_bytes] differs from its own still lands the image. *)
let test_chunk_size_from_wire () =
  List.iter
    (fun (src_chunk, dst_chunk) ->
      let with_chunk n = { Config.default with Config.migrate_chunk_bytes = n } in
      let nodes = two_nodes ~config:(with_chunk src_chunk) ~dst_config:(with_chunk dst_chunk) () in
      let i0, srm0, d0 = List.nth nodes 0 in
      let i1, srm1, _ = List.nth nodes 1 in
      let ak0 = srm0.Srm.Manager.ak in
      let mgr = ak0.App_kernel.mgr in
      let vsp = ok (Segment_mgr.create_space mgr) in
      let seg = Segment_mgr.create_segment mgr ~name:"ws" ~pages:3 in
      Segment_mgr.write_segment_now mgr seg ~offset:0
        (Bytes.init (3 * Hw.Addr.page_size) (fun i -> Char.chr (1 + (i mod 251))));
      Segment_mgr.attach_region mgr vsp
        (Region.v ~va_start:0x40000000 ~pages:3 ~segment:seg ~seg_offset:0 ());
      let want = Migrate.Plane.space_image_of ak0 vsp in
      let insts = [| i0; i1 |] in
      ignore (ok (Migrate.Plane.move_space (Srm.Distrib.plane d0) ~dst:1 vsp.Segment_mgr.tag));
      ignore (Engine.run ~until_us:50_000.0 insts);
      let what = Printf.sprintf "%d-byte chunks into a %d-byte receiver" src_chunk dst_chunk in
      Alcotest.(check int) (what ^ ": chunks")
        ((counter i0 "migrate.bytes_out" + src_chunk - 1) / src_chunk)
        (counter i0 "migrate.chunks_out");
      Alcotest.(check int) (what ^ ": rejected") 0 (counter i1 "migrate.chunks_rejected");
      Alcotest.(check int) (what ^ ": completed") 1 (counter i0 "migrate.completed");
      let ak1 = srm1.Srm.Manager.ak in
      let landed =
        Segment_mgr.list_spaces ak1.App_kernel.mgr
        |> List.filter_map (fun v ->
               let img = Migrate.Plane.space_image_of ak1 v in
               if img.Migrate.Codec.segments = [] then None else Some img.Migrate.Codec.segments)
      in
      Alcotest.(check bool) (what ^ ": segment contents landed") true
        (landed = [ want.Migrate.Codec.segments ]))
    [ (300, 1024); (1024, 300) ]

(* Damage for a chunk frame: anywhere, or one of its header words (xfer,
   seq, total, payload length at bytes 8-23) set to a small, nearby or
   edge value. *)
let gen_frame_mutation =
  let open QCheck.Gen in
  frequency
    [
      (2, Mutation.gen);
      ( 3,
        map2
          (fun word v -> Mutation.Set_u32 (8 + (4 * word), v))
          (int_bound 3)
          (oneof [ int_bound 64; int_range 60 3100; oneofl [ 0x7FFFFFFF; 0xFFFFFFFF ] ]) );
    ]

(* Chunks of a valid transfer, some damaged in flight, go through the
   frame decoder and reassembly in either order: whatever arrives, the
   receiver rejects or counts it and never raises.  An undamaged transfer
   lands whole. *)
let reassembly_fuzz =
  QCheck.Test.make ~count:500 ~name:"chunk reassembly survives byte mutation"
    (QCheck.make
       ~print:(fun (chunk, reverse, hits) ->
         Printf.sprintf "chunk %d%s, %s" chunk
           (if reverse then " reversed" else "")
           (String.concat "; "
              (List.map (fun (seq, muts) -> Printf.sprintf "#%d [%s]" seq (Mutation.to_string muts)) hits)))
       QCheck.Gen.(
         triple (int_range 64 3000) bool
           (list_size (int_bound 3) (pair nat (list_size (int_range 1 2) gen_frame_mutation)))))
    (fun (chunk, reverse, hits) ->
      let i1, plane = receiver () in
      let image = Migrate.Codec.encode golden_image in
      let size = Bytes.length image in
      let total = (size + chunk - 1) / chunk in
      let frames =
        Array.init total (fun seq ->
            let off = seq * chunk in
            let msg = Migrate.Plane.Chunk { seq; total; buf = image; off; len = min chunk (size - off) } in
            Srm.Distrib.encode (Srm.Distrib.Migrate { xfer = 9; msg }))
      in
      List.iter (fun (seq, muts) -> frames.(seq mod total) <- Mutation.apply frames.(seq mod total) muts) hits;
      let frames = if reverse then Array.of_list (List.rev (Array.to_list frames)) else frames in
      Array.iter
        (fun frame ->
          match Srm.Distrib.decode frame with
          | Some (_, Srm.Distrib.Migrate { xfer; msg = Migrate.Plane.Chunk _ as msg }) ->
            Migrate.Plane.recv plane ~src:0 ~xfer msg
          | Some _ | None -> ())
        frames;
      hits <> [] || counter i1 "migrate.bytes_in" = size)

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
      Alcotest.(check int) "the file is the codec bytes" saved_bytes
        (In_channel.with_open_bin path In_channel.length |> Int64.to_int);
      Alcotest.(check int) "save writes no disk block" live_before (live ak);
      (* files written before the image went straight to the host were
         page-padded; restore must still read them *)
      let ps = Hw.Addr.page_size in
      Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
          Out_channel.output_string oc (String.make (ps - (saved_bytes mod ps)) '\000'));
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
        Alcotest.(check int) "restore writes no disk block" live_before2 (live ak2);
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
          Alcotest.test_case "migration frames keep their sizes" `Quick test_wire_sizes;
          Alcotest.test_case "corrupt image rejected" `Quick test_codec_corruption;
          Alcotest.test_case "negative thread space index rejected" `Quick
            (forged_image_rejected forged_negative_space);
          Alcotest.test_case "page data longer than a page rejected" `Quick
            (forged_image_rejected forged_long_page);
          Alcotest.test_case "golden image pins the format" `Quick test_golden;
          Alcotest.test_case "fnv32 known vectors" `Quick test_fnv32_vectors;
          QCheck_alcotest.to_alcotest codec_roundtrip;
          QCheck_alcotest.to_alcotest codec_fuzz;
          QCheck_alcotest.to_alcotest distrib_fuzz;
        ] );
      ( "chunks",
        [
          Alcotest.test_case "forged chunks rejected" `Quick test_forged_chunks;
          Alcotest.test_case "chunk size learned from the wire" `Quick test_chunk_size_from_wire;
          QCheck_alcotest.to_alcotest reassembly_fuzz;
        ] );
      ( "live",
        [
          Alcotest.test_case "thread resumes on destination" `Quick test_live_migration;
          Alcotest.test_case "chunk loss recovery and replay" `Quick test_chaos_recovery;
          Alcotest.test_case "forwarding stub" `Quick test_forwarding;
          Alcotest.test_case "refused landing re-adopts at the source" `Quick
            test_refused_landing;
          Alcotest.test_case "old id reaches the re-adopted thread" `Quick
            test_old_id_after_readopt;
          Alcotest.test_case "signal forwarded during the commit window" `Quick
            test_signal_in_commit_window;
        ] );
      ( "checkpoint",
        [ Alcotest.test_case "save and restore across runs" `Quick test_checkpoint_restore ] );
    ]
