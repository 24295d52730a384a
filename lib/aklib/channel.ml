(* Communication channels over memory-based messaging (sections 2.2, 3).

   A channel is a shared physical segment of two pages mapped into sender
   and receiver address spaces:

   - a *data page* divided into fixed-size message slots, written by the
     sender and read by the receiver through ordinary shared memory —
     "direct marshaling and demarshaling ... with minimal copying and no
     protection boundary crossing in software";

   - a *bell page* in message mode: the sender publishes a message by
     writing the slot's word count into the slot's bell word, which
     generates an address-valued signal delivered to the receiver's signal
     thread.  The signal address, translated into the receiver's space,
     identifies the slot.

   The thread-side operations ([send], [recv]) are simulated instruction
   streams: every word moves through {!Hw.Exec} memory effects and is
   charged like any other memory traffic. *)

open Cachekernel

let slot_words = 60 (* payload words per slot *)
let slot_bytes = 256
let n_slots = Hw.Addr.page_size / slot_bytes (* 16 *)

(** The shared pages of a channel, pinned in a two-page segment so regions
    and refaults work like any other memory. *)
type shared = { segment : Segment.t; data_pfn : int; bell_pfn : int }

(** Create the channel's shared segment from two frames of [frames]. *)
let create_shared (mgr : Segment_mgr.t) ~name =
  let frames = Frame_alloc.take mgr.Segment_mgr.env.Segment_mgr.frames 2 in
  let data_pfn, bell_pfn =
    match frames with [ a; b ] -> (a, b) | _ -> assert false
  in
  let segment = Segment_mgr.create_segment mgr ~name ~pages:2 in
  let pin pfn page =
    Segment.set_state segment page
      (Segment.In_memory
         (Segment.resident pfn))
  in
  pin data_pfn 0;
  pin bell_pfn 1;
  { segment; data_pfn; bell_pfn }

(** One side's view: base virtual addresses of the data and bell pages. *)
type endpoint = { data_va : int; bell_va : int }

(** Map the channel into [vsp] at [va] (two consecutive pages).  The sender
    maps both pages writable with the bell in message mode; the receiver
    maps them read-only and hangs [signal_thread] on the bell page. *)
let attach (mgr : Segment_mgr.t) vsp shared ~va ~role =
  let prot, signal_thread =
    match role with
    | `Sender -> (Region.Rw, fun () -> None)
    | `Receiver f -> (Region.Ro, f)
  in
  let data_region =
    Region.v ~prot ~va_start:va ~pages:1 ~segment:shared.segment ~seg_offset:0 ()
  in
  let bell_region =
    Region.v ~prot ~message_mode:true ~signal_thread
      ~va_start:(va + Hw.Addr.page_size)
      ~pages:1 ~segment:shared.segment ~seg_offset:1 ()
  in
  Segment_mgr.attach_region mgr vsp data_region;
  Segment_mgr.attach_region mgr vsp bell_region;
  { data_va = va; bell_va = va + Hw.Addr.page_size }

(* -- Thread-side operations (simulated instruction streams) -- *)

(** Write [words] into [slot] and ring its bell.  The bell write is last:
    the message is complete when the signal fires. *)
let send (ep : endpoint) ~slot words =
  if List.length words > slot_words then invalid_arg "Channel.send: message too long";
  List.iteri (fun i w -> Hw.Exec.mem_write (ep.data_va + (slot * slot_bytes) + (4 * i)) w) words;
  Hw.Exec.mem_write (ep.bell_va + (4 * slot)) (List.length words)

(** Does signal address [va] belong to this endpoint's bell page?  Returns
    the slot if so. *)
let decode (ep : endpoint) va =
  if va >= ep.bell_va && va < ep.bell_va + (4 * n_slots) then Some ((va - ep.bell_va) / 4)
  else None

(** Read the [len]-word message out of [slot]. *)
let read_slot (ep : endpoint) ~slot ~len =
  List.init len (fun i -> Hw.Exec.mem_read (ep.data_va + (slot * slot_bytes) + (4 * i)))

(** Block until a message arrives on this endpoint; other signals are
    discarded (single-channel receivers).  Returns (slot, words). *)
let rec recv (ep : endpoint) =
  match Hw.Exec.trap Api.Ck_wait_signal with
  | Api.Ck_signal va -> (
    match decode ep va with
    | Some slot ->
      let len = Hw.Exec.mem_read (ep.bell_va + (4 * slot)) in
      (slot, read_slot ep ~slot ~len)
    | None -> recv ep)
  | _ -> recv ep
