(* Checkpoint/restore: the migration codec written through the paging
   disk instead of the fiber.

   A checkpoint is a passive capture of every managed address space (the
   kernel's own space excluded — the restoring kernel brings its own) and
   every live thread record.  The image is staged through the simulated
   disk — [Hw.Disk.import] charges the writes, [export] the reads — and
   then persisted to a host file so a later *process* can restore it.

   Continuations do not survive a process boundary (DESIGN.md section 2):
   restored threads restart fresh from their program bodies, rebound by
   the [program] name recorded at save time — the same contract as SRM
   crash recovery.  Deterministic programs therefore reproduce the same
   results after restore, which is exactly what `ckos restore` checks. *)

open Cachekernel
open Aklib

(* The saved image of one kernel: spaces in tag order, threads in id
   order, caller-supplied annotations in [extras]. *)
let image_of ak ?(extras = []) ?(name_of = fun (_ : Thread_lib.entry) -> "") () =
  let mgr = ak.App_kernel.mgr in
  let own =
    match ak.App_kernel.own_space with Some v -> Some v.Segment_mgr.tag | None -> None
  in
  let spaces =
    Hashtbl.fold
      (fun tag vsp acc -> if Some tag = own then acc else (tag, vsp) :: acc)
      mgr.Segment_mgr.spaces []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let space_index tag =
    let rec go i = function
      | [] -> None
      | (v : Segment_mgr.vspace) :: tl -> if v.Segment_mgr.tag = tag then Some i else go (i + 1) tl
    in
    go 0 spaces
  in
  let entries = ref [] in
  Thread_lib.iter ak.App_kernel.threads (fun e ->
      if e.Thread_lib.run <> Thread_lib.Exited then entries := e :: !entries);
  let entries =
    List.sort (fun (a : Thread_lib.entry) b -> compare a.Thread_lib.id b.Thread_lib.id) !entries
  in
  let threads =
    List.map
      (fun (e : Thread_lib.entry) ->
        Plane.thread_image_of ~program:(name_of e) ~xfer:0
          ~space:(space_index e.Thread_lib.space_tag) e)
      entries
  in
  {
    Codec.src_node = Instance.node_id ak.App_kernel.inst;
    spaces = List.map (Plane.space_image_of ak) spaces;
    threads;
    extras;
  }

(* Round-trip [bytes] through the paging disk, charged as ordinary block
   writes and reads; the staging blocks are freed once read back. *)
let stage ak bytes =
  let disk = ak.App_kernel.disk in
  let blocks = Hw.Disk.import disk bytes in
  let staged = Hw.Disk.export disk ~blocks in
  List.iter (Hw.Disk.free_block disk) blocks;
  staged

(* Persist an already-captured image (e.g. one taken mid-session, with
   extras appended later) to [path].  Returns the image size in bytes. *)
let save_image ak ~path img =
  let i = ak.App_kernel.inst in
  (* a checkpoint must not depend on the volatile fast tier: demote every
     fast-resident image to the paging disk first (the flush count models
     the extra persistence pause) *)
  let flushed = Backing_store.checkpoint_flush ak.App_kernel.store in
  if flushed > 0 then Metrics.incr ~by:flushed i.Instance.metrics "checkpoint.tier_flush";
  let bytes = Codec.encode img in
  (* stage through the paging disk: the checkpoint leaves via the backing
     store, charged as ordinary block writes/reads *)
  let staged = stage ak bytes in
  (* [staged] is page-padded; the codec header records the true length,
     and decode ignores bytes past the checksum *)
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc staged);
  Metrics.incr ~by:(Bytes.length bytes) i.Instance.metrics "checkpoint.bytes";
  Instance.trace i (Trace.Checkpointed { restore = false; bytes = Bytes.length bytes });
  Bytes.length bytes

(* Capture and save in one step. *)
let save ak ~path ?extras ?name_of () = save_image ak ~path (image_of ak ?extras ?name_of ())

type restored = {
  image : Codec.image;  (** the decoded checkpoint, extras included *)
  spaces : Segment_mgr.vspace list;  (** rebuilt spaces, image order *)
  threads : (int * int) list;  (** (saved thread tag, new local id) *)
}

(* Restore a checkpoint from [path] into [ak].  [programs] rebinds saved
   program names to bodies; threads with no binding are adopted but not
   scheduled.  [schedule] (default true) loads the rebound threads. *)
let restore ak ~path ~programs ?(schedule = true) () =
  let i = ak.App_kernel.inst in
  let data =
    In_channel.with_open_bin path (fun ic -> Bytes.of_string (In_channel.input_all ic))
  in
  (* land the image on the local paging disk first — a restore arrives
     from the backing store, charged like any page-in *)
  let data = stage ak data in
  match Codec.decode data with
  | Error msg -> Error msg
  | Ok img -> (
    match Plane.build_spaces ak img.Codec.spaces with
    | Error msg -> Error msg
    | Ok vsps ->
      let threads =
        List.filter_map
          (fun (th : Codec.thread_image) ->
            let space_tag =
              match th.Codec.space with
              | Some idx -> Some (List.nth vsps idx).Segment_mgr.tag
              | None -> Result.to_option (Plane.own_space_tag ak)
            in
            match space_tag with
            | None -> None
            | Some space_tag ->
              let body = List.assoc_opt th.Codec.program programs in
              let id =
                Thread_lib.adopt ak.App_kernel.threads ~space_tag ~priority:th.Codec.priority
                  ?affinity:th.Codec.affinity ~lock:th.Codec.locked ?body ()
              in
              if schedule && body <> None then
                ignore (Thread_lib.schedule ak.App_kernel.threads id);
              Some (th.Codec.thread_tag, id))
          img.Codec.threads
      in
      Metrics.incr ~by:(Bytes.length data) i.Instance.metrics "restore.bytes";
      Instance.trace i (Trace.Checkpointed { restore = true; bytes = Bytes.length data });
      Ok { image = img; spaces = vsps; threads })
