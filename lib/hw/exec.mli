(** Execution contexts: simulated instruction streams as effectful OCaml
    code.

    A thread body performs effects for everything with an architectural
    cost or kernel involvement — compute cycles, virtual-memory accesses,
    trap instructions.  The engine handles the effects, charges simulated
    time, and may suspend the computation at any effect point; the
    suspended one-shot continuation plays the role of the thread's saved
    register file. *)

type payload = ..
(** Trap operands and results; each kernel extends this with its calls. *)

type payload += Unit_payload | Int_payload of int

type _ Effect.t +=
  | Compute : Cost.cycles -> unit Effect.t
  | Mem_read : int -> int Effect.t
  | Mem_write : int * int -> unit Effect.t
  | Trap : payload -> payload Effect.t
  | Get_time : float Effect.t

val compute : Cost.cycles -> unit
(** Execute [n] cycles of pure computation. *)

val mem_read : int -> int
(** Load the word at a virtual address (may fault; the access retries
    transparently after the fault is served). *)

val mem_write : int -> int -> unit
(** Store a word at a virtual address. *)

val trap : payload -> payload
(** Execute a trap instruction: Cache Kernel calls are served directly;
    anything else is forwarded to the owning application kernel. *)

val time_us : unit -> float
(** Read the simulated clock, in microseconds. *)

(** A paused computation: the continuation is one-shot and is resumed by
    the engine when the effect's outcome is known. *)
type status =
  | Done of payload
  | Failed of exn
  | On_compute of Cost.cycles * (unit, status) Effect.Deep.continuation
  | On_read of int * (int, status) Effect.Deep.continuation
  | On_write of int * int * (unit, status) Effect.Deep.continuation
  | On_trap of payload * (payload, status) Effect.Deep.continuation
  | On_time of (float, status) Effect.Deep.continuation

val start : (unit -> payload) -> status
(** Run [body] until its first effect (or completion). *)

val unit_body : (unit -> unit) -> unit -> payload
(** Wrap a side-effecting body that returns no useful value. *)
