(** Processor-percentage accounting (section 4.3): consumption is charged
    against the owning kernel with a premium for high-priority execution
    and a discount for low, and a kernel exceeding its per-processor
    allocation is demoted to run only when the processor is otherwise
    idle, until the accounting epoch rolls over. *)

val base_priority : int
(** Charging is flat here; premium above, discount below. *)

val premium_percent : priority:int -> int
(** Percentage multiplier applied to CPU charges at a priority. *)

val charge :
  Kernel_obj.t ->
  cpu:int ->
  priority:int ->
  cycles:Hw.Cost.cycles ->
  elapsed:Hw.Cost.cycles ->
  grace:Hw.Cost.cycles ->
  bool
(** Account execution; returns true if the kernel was *newly* demoted on
    that CPU. *)

val reset_epoch : Kernel_obj.t -> unit
