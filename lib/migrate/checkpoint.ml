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

(* The saved image of one kernel: every space but its own, with its
   threads, and the own space's threads, bound to no space. *)
let image_of ak ?(extras = []) ?name_of () =
  let threads v = Thread_lib.of_space ak.App_kernel.threads v.Segment_mgr.tag in
  let own = Option.fold ~none:[] ~some:threads ak.App_kernel.own_space in
  let spaces = Segment_mgr.list_spaces ak.App_kernel.mgr in
  { (Plane.image_of ak ?program:name_of ~own ~xfer:0 spaces) with Codec.extras }

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
    let bind (th : Codec.thread_image) = (None, List.assoc_opt th.Codec.program programs) in
    match Plane.adopt_image ak ~bind img with
    | Error msg -> Error msg
    | Ok (spaces, threads) ->
      if schedule then
        List.iter
          (fun (_, id) ->
            match Thread_lib.entry ak.App_kernel.threads id with
            | Some { Thread_lib.body = Some _; _ } -> ignore (Thread_lib.schedule ak.App_kernel.threads id)
            | _ -> ())
          threads;
      Metrics.incr ~by:(Bytes.length data) i.Instance.metrics "restore.bytes";
      Instance.trace i (Trace.Checkpointed { restore = true; bytes = Bytes.length data });
      Ok { image = img; spaces; threads })
