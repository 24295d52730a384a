(* Kernel descriptors.

   A kernel object designates an application kernel: its trap and exception
   handlers, and the resources it has been allocated — the physical page
   groups it may map (a two-bit-per-group memory access array), the
   percentage of each processor its threads may consume, the maximum
   priority it may specify, and its locked-object quota (section 2.4,
   section 4.3).

   Handlers are OCaml closures: the simulation analogue of the handler
   entry points recorded in the descriptor.  They execute as
   application-kernel frames of the faulting/trapping thread, so all their
   activity is charged to that thread on its CPU, exactly like the
   prototype's vertical forwarding. *)

type mem_access = No_access | Read_only | Read_write

type fault_ctx = {
  thread : Oid.t;
  va : int;
  access : Hw.Mmu.access;
  kind : Hw.Mmu.fault_kind;
}

type handlers = {
  on_fault : fault_ctx -> unit;
      (* page-fault / exception handler: runs as a kernel-mode frame of the
         faulting thread (Figure 2 step 3); loads a mapping and returns, or
         takes application-defined recovery action *)
  on_trap : Oid.t -> Hw.Exec.payload -> Hw.Exec.payload;
      (* "system call" handler for threads of this kernel; the result is
         delivered as the trap's return value *)
  on_writeback : unit -> unit;
      (* notification that the writeback channel has grown; state is read
         by draining [writebacks] *)
}

let null_handlers =
  {
    on_fault = (fun _ -> ());
    on_trap = (fun _ p -> p);
    on_writeback = ignore;
  }

(** Load-time specification of an application kernel. *)
type spec = {
  name : string;
  handlers : handlers;
  cpu_percent : int array; (* allocation per processor, 0-100 *)
  max_priority : int;
  max_locked : int;
}

type t = {
  mutable oid : Oid.t;
  name : string;
  handlers : handlers;
  mem_access : mem_access array; (* per page group *)
  cpu_percent : int array;
  mutable max_priority : int;
  mutable max_locked : int;
  mutable space : Oid.t; (* the kernel's own address space, once loaded *)
  writebacks : Wb.record Queue.t;
  mutable locked : bool;
  mutable locked_count : int; (* locked objects currently loaded *)
  (* processor-percentage accounting, reset each quota epoch *)
  consumed : Hw.Cost.cycles array; (* premium-weighted cycles per CPU *)
  demoted : bool array; (* over quota on CPU i: run only when idle *)
  mutable recently_used : bool;
}

let create ~n_cpus ~n_groups (spec : spec) =
  if Array.length spec.cpu_percent <> n_cpus then
    invalid_arg "Kernel_obj.create: cpu_percent must have one entry per CPU";
  {
    oid = Oid.none;
    name = spec.name;
    handlers = spec.handlers;
    mem_access = Array.make n_groups No_access;
    cpu_percent = Array.copy spec.cpu_percent;
    max_priority = spec.max_priority;
    max_locked = spec.max_locked;
    space = Oid.none;
    writebacks = Queue.create ();
    locked = false;
    locked_count = 0;
    consumed = Array.make n_cpus 0;
    demoted = Array.make n_cpus false;
    recently_used = true;
  }

(** Can this kernel map physical page [pfn] with [access]? — the check
    performed on every mapping load against the memory access array. *)
let may_map t ~pfn ~write =
  let g = Hw.Addr.group_of_page pfn in
  if g < 0 || g >= Array.length t.mem_access then false
  else
    match t.mem_access.(g) with
    | No_access -> false
    | Read_only -> not write
    | Read_write -> true

(** Grant or revoke access to page group [group]; only the system resource
    manager may invoke the operation that reaches this. *)
let set_access t ~group access =
  if group < 0 || group >= Array.length t.mem_access then
    invalid_arg "Kernel_obj.set_access: bad group";
  t.mem_access.(group) <- access

let pp ppf t =
  Fmt.pf ppf "%a %s maxprio=%d locked=%d/%d wb=%d" Oid.pp t.oid t.name t.max_priority
    t.locked_count t.max_locked (Queue.length t.writebacks)
