(* The swapper.

   "A thread whose application has been swapped out is also unloaded until
   its application is reloaded into memory.  In this swapped state, it
   consumes no Cache Kernel descriptors, in contrast to the memory-resident
   process descriptor records used by the conventional UNIX kernel"
   (section 2.3).

   Swap-out unloads the process's thread and address space from the Cache
   Kernel and pushes its resident pages to backing store; swap-in reloads
   the space and thread, and demand paging brings the working set back.
   Swap-out performs its page-outs through the synchronous disk path (the
   swapper is a housekeeping activity; its latency does not participate in
   any measured experiment). *)

open Cachekernel
open Aklib

type stats = { mutable swap_outs : int; mutable swap_ins : int }

let stats = { swap_outs = 0; swap_ins = 0 }

(* Push every resident page of [seg] to disk and free its frames. *)
let evacuate_segment (emu : Emulator.t) seg =
  let ak = emu.Emulator.ak in
  let mgr = ak.App_kernel.mgr in
  let mem = ak.App_kernel.inst.Instance.node.Hw.Mpm.mem in
  let pages = Hashtbl.fold (fun page st acc -> (page, st) :: acc) seg.Segment.table [] in
  List.iter
    (fun (page, st) ->
      match st with
      | Segment.In_memory r ->
        Segment_mgr.unmap_residents mgr r;
        if r.Segment.dirty || r.Segment.backing = None then begin
          let block =
            match r.Segment.backing with
            | Some b -> b
            | None -> Backing_store.alloc_block ak.App_kernel.store
          in
          Backing_store.write_block_now ak.App_kernel.store ~block
            (Hw.Phys_mem.image mem ~pfn:r.Segment.pfn);
          Segment.set_state seg page (Segment.On_disk block)
        end
        else
          Segment.set_state seg page
            (Segment.On_disk (Option.get r.Segment.backing));
        Frame_alloc.free ak.App_kernel.frames r.Segment.pfn
      | _ -> ())
    pages

(** Swap a process out: thread and space leave the Cache Kernel entirely,
    pages go to backing store. *)
let swap_out (emu : Emulator.t) (p : Process.t) =
  match p.Process.state with
  | Process.Zombie _ | Process.Swapped -> ()
  | _ ->
    stats.swap_outs <- stats.swap_outs + 1;
    p.Process.swapped_from <- Some p.Process.state;
    ignore (Thread_lib.deschedule emu.Emulator.ak.App_kernel.threads p.Process.thread);
    if p.Process.vspace.Segment_mgr.loaded then
      ignore
        (Api.unload_space emu.Emulator.ak.App_kernel.inst
           ~caller:(App_kernel.oid emu.Emulator.ak)
           p.Process.vspace.Segment_mgr.oid);
    evacuate_segment emu p.Process.data;
    evacuate_segment emu p.Process.stack;
    (* text is clean by construction: just drop residency *)
    evacuate_segment emu p.Process.text;
    p.Process.state <- Process.Swapped

(** Swap a process back in: reload the space and thread; the working set
    returns by demand paging. *)
let swap_in (emu : Emulator.t) (p : Process.t) =
  match p.Process.state with
  | Process.Swapped -> (
    stats.swap_ins <- stats.swap_ins + 1;
    match Segment_mgr.reload_space emu.Emulator.ak.App_kernel.mgr p.Process.vspace with
    | Error e -> Error e
    | Ok _ -> (
      let prior = Option.value p.Process.swapped_from ~default:Process.Runnable in
      p.Process.swapped_from <- None;
      p.Process.state <- prior;
      match prior with
      | Process.Sleeping _ ->
        (* still off-processor; the wakeup will reload the thread *)
        Ok ()
      | _ -> (
        match Thread_lib.schedule emu.Emulator.ak.App_kernel.threads p.Process.thread with
        | Error e -> Error e
        | Ok _ -> Ok ())))
  | _ -> Ok ()

(** Number of Cache Kernel descriptors a process consumes right now
    (threads + spaces + mappings) — zero once swapped. *)
let descriptor_footprint (emu : Emulator.t) (p : Process.t) =
  let inst = emu.Emulator.ak.App_kernel.inst in
  let threads =
    match Thread_lib.oid_of emu.Emulator.ak.App_kernel.threads p.Process.thread with
    | Some oid -> ( match Instance.find_thread inst oid with Some _ -> 1 | None -> 0)
    | None -> 0
  in
  let spaces, mappings =
    if p.Process.vspace.Segment_mgr.loaded then
      match Instance.find_space inst p.Process.vspace.Segment_mgr.oid with
      | Some sp -> (1, sp.Space_obj.mapping_count)
      | None -> (0, 0)
    else (0, 0)
  in
  threads + spaces + mappings
