(* Processor-percentage accounting (section 4.3).

   The Cache Kernel monitors the consumption of processor time by each
   thread and adds it to the total consumed by its kernel for that
   processor, charging a premium for higher-priority execution and a
   discount for lower-priority execution.  A kernel that exceeds its
   percentage allocation on a processor has its threads reduced to run only
   when the processor is otherwise idle, until the accounting epoch rolls
   over. *)

(** The "normal" priority: charging is flat here, a premium above, a
    discount below — the graduated rate that gives kernels an incentive to
    run batch work at low priority. *)
let base_priority = 8

(** Percentage multiplier applied to CPU charges at [priority]. *)
let premium_percent ~priority =
  let raw = 100 + ((priority - base_priority) * 8) in
  max 60 (min 220 raw)

(** Account [cycles] of execution by a thread of [kernel] at [priority] on
    [cpu]; then demote the kernel on that CPU if it has exceeded its
    pro-rata allocation for the current epoch.  [elapsed] is the time since
    the epoch began; [grace] absorbs start-of-epoch burstiness. *)
let charge (kernel : Kernel_obj.t) ~cpu ~priority ~cycles ~elapsed ~grace =
  let weighted = cycles * premium_percent ~priority / 100 in
  kernel.Kernel_obj.consumed.(cpu) <- kernel.Kernel_obj.consumed.(cpu) + weighted;
  let allowed = kernel.Kernel_obj.cpu_percent.(cpu) * elapsed / 100 in
  if
    kernel.Kernel_obj.cpu_percent.(cpu) < 100
    && kernel.Kernel_obj.consumed.(cpu) > allowed + grace
  then begin
    let newly = not kernel.Kernel_obj.demoted.(cpu) in
    kernel.Kernel_obj.demoted.(cpu) <- true;
    newly
  end
  else false

(** Epoch rollover: forget consumption and lift demotions. *)
let reset_epoch (kernel : Kernel_obj.t) =
  Array.fill kernel.Kernel_obj.consumed 0 (Array.length kernel.Kernel_obj.consumed) 0;
  Array.fill kernel.Kernel_obj.demoted 0 (Array.length kernel.Kernel_obj.demoted) false
