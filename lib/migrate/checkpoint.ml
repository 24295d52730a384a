(* Checkpoint/restore: the migration codec written to a host file
   instead of the fiber.

   A checkpoint is a passive capture of every managed address space (the
   kernel's own space excluded — the restoring kernel brings its own) and
   every live thread record.  The file holds the codec bytes themselves,
   so a later *process* can restore it; the capture reads pages with the
   untimed [Backing_store.read_block_now].  What the simulation charges is
   the fast-tier flush that comes with a save: one timed disk write of
   every fast-resident image, whose duration lands in
   [checkpoint.flush_us].

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

(* Persist an already-captured image (e.g. one taken mid-session, with
   extras appended later) to [path].  Returns the image size in bytes. *)
let save_image ak ~path img =
  let i = ak.App_kernel.inst in
  (* a checkpoint must not depend on the volatile fast tier: demote every
     fast-resident image to the paging disk first, as one timed write whose
     completion records the persistence pause *)
  let now () = Hw.Mpm.now i.Instance.node in
  let t0 = now () in
  let flushed =
    Backing_store.checkpoint_flush ak.App_kernel.store (fun () ->
        Instance.observe_cycles i "checkpoint.flush_us" (now () - t0))
  in
  if flushed > 0 then Metrics.incr ~by:flushed i.Instance.metrics "checkpoint.tier_flush";
  let bytes = Codec.encode img in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes);
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
  (* files written before checkpoints held the bare codec bytes are
     page-padded: decode ignores bytes past the checksum *)
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
