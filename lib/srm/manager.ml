(* The system resource manager (section 3).

   One SRM instance runs per Cache Kernel/MPM as the first kernel, created,
   loaded and locked at boot with full permissions on all physical
   resources.  It initiates execution of other application kernels —
   creating their kernel objects, granting page groups, processor
   percentages and priority caps — acts as the owning kernel for kernel
   objects (handling their writeback), swaps application kernels out and
   back in, and polices I/O rates. *)

open Cachekernel
open Aklib

type launched = {
  name : string;
  ak : App_kernel.t;
  grant : Ledger.grant;
  mutable loaded : bool;
  mutable swap_outs : int;
}

(* I/O-rate policing tap: the channel manager's view of one client of the
   networking facility (section 4.3: rates computed from the interface's
   transmission counts; offenders are temporarily disconnected). *)
type tap = {
  tap_name : string;
  quota_per_epoch : int; (* packets per policing epoch *)
  counter : unit -> int;
  disconnect : unit -> unit;
  reconnect : unit -> unit;
  mutable last_count : int;
  mutable disconnected : bool;
  mutable penalties : int;
}

type t = {
  inst : Instance.t;
  ak : App_kernel.t; (* the SRM's own application-kernel skeleton *)
  ledger : Ledger.t;
  mutable kernels : launched list;
  mutable taps : tap list;
  mutable kernel_writebacks : int;
  mutable misbehaving : (Oid.t * Oid.t) list;
      (* (kernel, thread) pairs escalated by the Cache Kernel's forwarding
         watchdog: application kernels whose fault handlers never resolved
         a forwarded fault (section 2's misbehaving-program containment) *)
}

let oid t = App_kernel.oid t.ak

(** Boot the SRM on [inst]: first kernel, locked, all resources.
    [own_groups] page groups are kept for the SRM's own use (channels,
    internal threads); the rest form the allocation pool. *)
let boot inst ?(own_groups = 2) () =
  let all_groups = List.init (Instance.n_groups inst) Fun.id in
  let rec split n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | g :: rest -> split (n - 1) (g :: acc) rest
  in
  let mine, pool = split own_groups [] all_groups in
  match App_kernel.boot_first inst ~name:"srm" ~groups:mine () with
  | Error e -> Error e
  | Ok ak ->
    let t =
      {
        inst;
        ak;
        ledger = Ledger.create ~groups:pool;
        kernels = [];
        taps = [];
        kernel_writebacks = 0;
        misbehaving = [];
      }
    in
    inst.Instance.on_misbehaving <-
      (fun ~kernel ~thread ->
        t.misbehaving <- (kernel, thread) :: t.misbehaving;
        Instance.count inst "srm.misbehaving");
    ak.App_kernel.on_kernel_writeback <-
      (fun _ak _oid name _reason ->
        t.kernel_writebacks <- t.kernel_writebacks + 1;
        (match List.find_opt (fun l -> l.name = name) t.kernels with
        | Some l -> l.loaded <- false
        | None -> ()));
    Ok t

(* The one way in for an application kernel: load its kernel object and
   apply the grant — page-group access, then the processor percentage —
   and let the application kernel bind the new object.  Launch, swap-in
   and restart all load through here, so a reload never runs on the
   spec's percentage instead of the grant's. *)
let install t (l : launched) =
  match Api.load_kernel t.inst ~caller:(oid t) l.ak.App_kernel.spec with
  | Error e -> Error e
  | Ok koid ->
    List.iter
      (fun g ->
        ignore
          (Api.set_mem_access t.inst ~caller:(oid t) ~kernel:koid ~group:g Kernel_obj.Read_write))
      l.grant.Ledger.groups;
    let percent = Array.make (Instance.n_cpus t.inst) l.grant.Ledger.cpu_percent in
    ignore (Api.set_cpu_quota t.inst ~caller:(oid t) ~kernel:koid percent);
    Result.map (fun () -> l.loaded <- true) (App_kernel.install l.ak ~oid:koid)

(** Launch an application kernel prepared with {!App_kernel.prepare}:
    grant it resources and install it. *)
let launch t (ak : App_kernel.t) ~group_count ~cpu_percent ?(net_percent = 10) () =
  match
    Ledger.allocate t.ledger ~kernel_name:ak.App_kernel.name ~group_count ~cpu_percent
      ~net_percent
  with
  | Error `No_memory -> Error (Api.Bad_argument "no free page groups")
  | Error `No_cpu -> Error (Api.Bad_argument "no free processor capacity")
  | Error `No_net -> Error (Api.Bad_argument "no free network capacity")
  | Ok grant -> (
    let l = { name = ak.App_kernel.name; ak; grant; loaded = false; swap_outs = 0 } in
    match install t l with
    | Error e ->
      Ledger.release t.ledger grant;
      Error e
    | Ok () ->
      List.iter (Frame_alloc.add_group ak.App_kernel.frames) grant.Ledger.groups;
      t.kernels <- l :: t.kernels;
      Ok l)

(** Swap an application kernel out: unload its kernel object, which writes
    back every address space, thread and mapping it owns.  Its state
    survives in the application kernel's own records (the analogue of the
    SRM saving it to disk); its Cache Kernel descriptors are all freed. *)
let swap_out_kernel t l =
  if not l.loaded then Ok ()
  else
    match Api.unload_kernel t.inst ~caller:(oid t) (App_kernel.oid l.ak) with
    | Ok () ->
      l.loaded <- false;
      l.swap_outs <- l.swap_outs + 1;
      Ok ()
    | Error e -> Error e

(** Swap an application kernel back in: {!install} it again. *)
let swap_in_kernel t l = if l.loaded then Ok () else install t l

(** Rebuild a crashed node (experiment X3).  The MPM halted and lost all
    of its descriptor caches ({!Instance.crash}); what survives is the
    state held in the application kernels' own records and backing store —
    the writeback images.  The SRM (whose host-side state plays the role
    of stable storage, like [swap_out_kernel]'s) brings the node back:
    re-boot its own kernel as the first kernel, then install every launched
    kernel again; both end in {!App_kernel.install}, which reloads spaces
    and written-back threads.  Threads that were loaded at the instant of
    the crash restart fresh from their bodies — work since their last
    writeback is lost, exactly the paper's recovery contract.

    [epoch] is the incarnation number the node rejoins under (stamped on
    the [Node_restart] trace event); automatic failover passes the fenced
    epoch, manual restarts may leave the default. *)
let restart_node ?(epoch = 0) t =
  if not t.inst.Instance.halted then Error (Api.Bad_argument "node has not crashed")
  else begin
    let started_us = t.inst.Instance.crashed_at_us in
    t.inst.Instance.halted <- false;
    App_kernel.mark_crashed t.ak;
    List.iter
      (fun l ->
        l.loaded <- false;
        App_kernel.mark_crashed l.ak)
      t.kernels;
    match
      Result.bind (Api.boot t.inst t.ak.App_kernel.spec) (fun oid -> App_kernel.install t.ak ~oid)
    with
    | Error e -> Error e
    | Ok () ->
      let rec bring = function
        | [] ->
          Fault_inject.recover t.inst.Instance.fi ~site:"node.crash";
          (* restart observability: how long the node was down in simulated
             time (crash -> successful restart), plus a counter and trace *)
          let down_us =
            Hw.Cost.us_of_cycles (Hw.Mpm.now t.inst.Instance.node) -. started_us
          in
          Instance.count t.inst "srm.restart";
          Instance.observe t.inst "srm.restart_us" down_us;
          Instance.trace t.inst
            (Trace.Node_restart { node = Instance.node_id t.inst; epoch });
          Ok ()
        | l :: rest -> ( match install t l with Error e -> Error e | Ok () -> bring rest)
      in
      bring (List.rev t.kernels)
  end

(* -- I/O rate policing (section 4.3) -- *)

let register_tap t ~name ~quota_per_epoch ~counter ~disconnect ~reconnect =
  let tap =
    {
      tap_name = name;
      quota_per_epoch;
      counter;
      disconnect;
      reconnect;
      last_count = counter ();
      disconnected = false;
      penalties = 0;
    }
  in
  t.taps <- tap :: t.taps;
  tap

(** One policing epoch: compute each client's transfer rate from the
    interface counters; disconnect clients over quota, reconnect the rest
    ("exploiting the connection-oriented nature of this networking
    facility"). *)
let police_io t =
  List.iter
    (fun tap ->
      let now = tap.counter () in
      let delta = now - tap.last_count in
      tap.last_count <- now;
      if delta > tap.quota_per_epoch && not tap.disconnected then begin
        tap.disconnected <- true;
        tap.penalties <- tap.penalties + 1;
        tap.disconnect ()
      end
      else if delta <= tap.quota_per_epoch && tap.disconnected then begin
        tap.disconnected <- false;
        tap.reconnect ()
      end)
    t.taps

let kernels t = t.kernels
let ledger t = t.ledger
