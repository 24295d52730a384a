(* Common scaffolding for experiments: instances, booted kernels, timers. *)

open Cachekernel

let instance ?(config = Config.default) ?(cpus = 4) ?(mem = 64 * 1024 * 1024)
    ?(node_id = 0) () =
  Instance.create ~config (Hw.Mpm.create ~node_id ~cpus ~mem_size:mem ())

(** Boot a first kernel owning all physical memory. *)
let first_kernel ?(name = "app-kernel") inst =
  let groups = List.init (Instance.n_groups inst) Fun.id in
  match Aklib.App_kernel.boot_first inst ~name ~groups () with
  | Ok ak -> ak
  | Error e -> Fmt.failwith "boot: %a" Api.pp_error e

(** Simulated time now (max over CPUs), in microseconds. *)
let now_us (inst : Instance.t) = Hw.Cost.us_of_cycles (Hw.Mpm.now inst.Instance.node)

(** Time of a host-context API sequence on CPU 0, in microseconds. *)
let time_host (inst : Instance.t) f =
  inst.Instance.active_cpu <- 0;
  let cpu = inst.Instance.node.Hw.Mpm.cpus.(0) in
  let t0 = cpu.Hw.Cpu.local_time in
  f ();
  Hw.Cost.us_of_cycles (cpu.Hw.Cpu.local_time - t0)

let ok = function Ok v -> v | Error e -> Fmt.failwith "api: %a" Api.pp_error e
