(* Distributed shared memory over consistency faults (section 2.1).

   "The consistency fault mechanism is used to implement a consistency
   protocol ... for distributed shared memory": a mapping whose
   authoritative copy lives on another node is loaded with the remote
   attribute, so any access raises a consistency fault that the Cache
   Kernel forwards to the owning application kernel like any other
   exception — "explicit coordination between kernels ... is provided by
   higher-level software" (section 3), namely this module.

   The protocol is single-holder migratory: the home node tracks which
   node currently holds each page; a faulting node sends a fetch to the
   home, which either supplies the page itself or recalls it from the
   current holder; the data lands in the requester's local frame, the
   remote mapping is replaced by a normal one, and the faulting access
   retries.  (The ParaDiGM prototype runs this at cache-line granularity
   with hardware support; the simulation's consistency unit is a page —
   the protocol shape is identical.  Recorded in DESIGN.md.) *)

open Cachekernel

let token_base = 0x7B000000

(* wire message types *)
let msg_fetch = 1
let msg_recall = 2
let msg_data = 3

type page_state = Valid | Invalid

type t = {
  ak : App_kernel.t;
  nic : Hw.Nic.Fiber.t;
  node_id : int;
  home : int; (* home node for every page of this segment *)
  vsp : Segment_mgr.vspace;
  va_base : int;
  pages : int;
  frames : int array; (* local frame per page *)
  states : page_state array;
  holders : int array; (* meaningful on the home node only *)
  waiters : (int, Oid.t list ref) Hashtbl.t; (* page -> blocked threads *)
  mutable fetches : int;
  mutable recalls : int;
  mutable invalidations : int;
}

let inst t = t.ak.App_kernel.inst
let caller t = App_kernel.oid t.ak
let va_of t page = t.va_base + (page * Hw.Addr.page_size)

let page_of t va =
  let p = (va - t.va_base) / Hw.Addr.page_size in
  if va >= t.va_base && p < t.pages then Some p else None

(* (Re)load the mapping for [page] with the given validity. *)
let set_mapping t page state =
  let va = va_of t page in
  ignore (Api.unload_mapping (inst t) ~caller:(caller t) ~space:t.vsp.Segment_mgr.oid ~va);
  let remote = state = Invalid in
  (match
     Api.load_mapping (inst t) ~caller:(caller t) ~space:t.vsp.Segment_mgr.oid
       (Api.mapping ~va ~pfn:t.frames.(page) ~remote ())
   with
  | Ok () -> ()
  | Error e ->
    Logs.err (fun m -> m "dsm: mapping page %d: %a" page Api.pp_error e));
  t.states.(page) <- state;
  if remote then t.invalidations <- t.invalidations + 1

(* -- wire encoding: kind, page, requester, [payload] -- *)

let encode ~kind ~page ~requester ?payload () =
  let plen = match payload with Some b -> Bytes.length b | None -> 0 in
  let b = Bytes.create (12 + plen) in
  Bytes.set_int32_le b 0 (Int32.of_int kind);
  Bytes.set_int32_le b 4 (Int32.of_int page);
  Bytes.set_int32_le b 8 (Int32.of_int requester);
  (match payload with Some p -> Bytes.blit p 0 b 12 plen | None -> ());
  b

let decode b =
  let w i = Int32.to_int (Bytes.get_int32_le b (4 * i)) in
  let payload =
    if Bytes.length b > 12 then Bytes.sub b 12 (Bytes.length b - 12) else Bytes.empty
  in
  (w 0, w 1, w 2, payload)

let page_bytes t page =
  Hw.Phys_mem.read_bytes (inst t).Instance.node.Hw.Mpm.mem
    (Hw.Addr.addr_of_page t.frames.(page))
    Hw.Addr.page_size

let send t ~dst data = Hw.Nic.Fiber.transmit t.nic ~dst:(3000 + dst) data

(* Give the page up: capture its contents, invalidate the local copy. *)
let surrender t page =
  let data = page_bytes t page in
  set_mapping t page Invalid;
  data

(* Install arriving page contents and wake the faulting threads. *)
let install t page payload =
  Hw.Phys_mem.write_bytes (inst t).Instance.node.Hw.Mpm.mem
    (Hw.Addr.addr_of_page t.frames.(page))
    payload;
  set_mapping t page Valid;
  match Hashtbl.find_opt t.waiters page with
  | None -> ()
  | Some l ->
    List.iter
      (fun th_oid ->
        match Instance.find_thread (inst t) th_oid with
        | Some th -> Signals.post_signal (inst t) th ~va:(token_base + (page * 4))
        | None -> ())
      !l;
    Hashtbl.remove t.waiters page

let handle_packet t (pkt : Hw.Interconnect.packet) =
  let kind, page, requester, payload = decode pkt.Hw.Interconnect.data in
  if kind = msg_fetch then begin
    (* home only: supply the page or recall it from the holder *)
    t.fetches <- t.fetches + 1;
    let holder = t.holders.(page) in
    t.holders.(page) <- requester;
    if holder = t.node_id then
      if t.states.(page) = Valid then begin
        let data = surrender t page in
        send t ~dst:requester (encode ~kind:msg_data ~page ~requester ~payload:data ())
      end
      else
        (* raced: we are home but no longer hold it; the recorded holder
           was just overwritten — recall from the previous holder *)
        send t ~dst:holder (encode ~kind:msg_recall ~page ~requester ())
    else begin
      t.recalls <- t.recalls + 1;
      send t ~dst:holder (encode ~kind:msg_recall ~page ~requester ())
    end
  end
  else if kind = msg_recall then begin
    let data = surrender t page in
    send t ~dst:requester (encode ~kind:msg_data ~page ~requester ~payload:data ())
  end
  else if kind = msg_data then install t page payload

(* The consistency-fault handler: runs in the faulting thread's handler
   frame, so it can block the thread until the page arrives. *)
let on_consistency t (_mgr : Segment_mgr.t) (ctx : Kernel_obj.fault_ctx) =
  match page_of t ctx.Kernel_obj.va with
  | None -> false (* not ours *)
  | Some page ->
    if t.states.(page) = Valid then true (* raced: already arrived; retry *)
    else begin
      let first =
        match Hashtbl.find_opt t.waiters page with
        | Some l ->
          l := ctx.Kernel_obj.thread :: !l;
          false
        | None ->
          Hashtbl.replace t.waiters page (ref [ ctx.Kernel_obj.thread ]);
          true
      in
      if first then
        send t ~dst:t.home
          (encode ~kind:msg_fetch ~page ~requester:t.node_id ());
      (* block until the install signal for this page *)
      let token = token_base + (page * 4) in
      let rec await () =
        match Hw.Exec.trap Api.Ck_wait_signal with
        | Api.Ck_signal va when va = token -> ()
        | _ -> await ()
      in
      await ();
      true
    end

(** Create one node's view of a distributed shared segment of [pages]
    pages, mapped at [va_base] in [vsp].  All nodes pass the same [home];
    the home node starts holding every page.  Frames come from the
    kernel's pool. *)
let create ak ~net ~home ~pages ~va_base vsp =
  let instance = ak.App_kernel.inst in
  let node = instance.Instance.node in
  let node_id = node.Hw.Mpm.node_id in
  let nic =
    Hw.Nic.Fiber.create ~node_id:(3000 + node_id) ~net ~events:node.Hw.Mpm.events
      ~now:(fun () -> Hw.Mpm.now node)
  in
  let frames = Array.of_list (Frame_alloc.take ak.App_kernel.frames pages) in
  let t =
    {
      ak;
      nic;
      node_id;
      home;
      vsp;
      va_base;
      pages;
      frames;
      states = Array.make pages (if node_id = home then Valid else Invalid);
      holders = Array.make pages home;
      waiters = Hashtbl.create 8;
      fetches = 0;
      recalls = 0;
      invalidations = 0;
    }
  in
  Hw.Nic.Fiber.set_receiver nic (fun pkt -> handle_packet t pkt);
  (* initial mappings: valid at home, remote elsewhere *)
  for page = 0 to pages - 1 do
    let remote = t.states.(page) = Invalid in
    match
      Api.load_mapping instance ~caller:(App_kernel.oid ak) ~space:vsp.Segment_mgr.oid
        (Api.mapping ~va:(va_of t page) ~pfn:frames.(page) ~remote ())
    with
    | Ok () -> ()
    | Error e -> Fmt.failwith "dsm: initial mapping: %a" Api.pp_error e
  done;
  ak.App_kernel.mgr.Segment_mgr.on_consistency <-
    (fun mgr ctx -> on_consistency t mgr ctx);
  t

let fetches t = t.fetches
let recalls t = t.recalls
let invalidations t = t.invalidations
let state t page = t.states.(page)
