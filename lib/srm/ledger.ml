(* Resource ledger: what the system resource manager hands out.

   "The SRM allocates processing capacity, memory pages and network
   capacity to application kernels.  Resources are allocated in large units
   that the application kernel can then suballocate internally" (section 3):
   memory in page groups over periods of seconds to minutes, processors and
   network capacity as percentages over the same extended periods.

   The live grants are the only record: committed capacity is their sum and
   the free groups are the governed ones no grant holds, so the ledger is
   conserved by construction. *)

type grant = {
  kernel_name : string;
  groups : int list;
  cpu_percent : int; (* of every processor *)
  net_percent : int;
}

type t = {
  mutable free_groups : int list;
  mutable grants : grant list; (* live grants, most recent first *)
}

let create ~groups = { free_groups = groups; grants = [] }
let free_group_count t = List.length t.free_groups
let grants t = t.grants
let committed t field = List.fold_left (fun acc g -> acc + field g) 0 t.grants

(** Reserve [n] page groups, [cpu] percent of every processor and [net]
    percent of network capacity for [kernel_name]. *)
let allocate t ~kernel_name ~group_count ~cpu_percent ~net_percent =
  if List.length t.free_groups < group_count then Error `No_memory
  else if committed t (fun g -> g.cpu_percent) + cpu_percent > 100 then Error `No_cpu
  else if committed t (fun g -> g.net_percent) + net_percent > 100 then Error `No_net
  else begin
    let rec take n acc rest =
      if n = 0 then (List.rev acc, rest)
      else match rest with [] -> (List.rev acc, []) | g :: tl -> take (n - 1) (g :: acc) tl
    in
    let groups, rest = take group_count [] t.free_groups in
    t.free_groups <- rest;
    let g = { kernel_name; groups; cpu_percent; net_percent } in
    t.grants <- g :: t.grants;
    Ok g
  end

(** Return a grant's resources to the pool (kernel swapped out or exited).
    Idempotent: a grant no longer listed has already been returned. *)
let release t (g : grant) =
  if List.memq g t.grants then begin
    t.free_groups <- g.groups @ t.free_groups;
    t.grants <- List.filter (fun x -> x != g) t.grants
  end
