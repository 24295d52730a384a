(* Execution contexts: simulated instruction streams as effectful OCaml code.

   A simulated thread body is an OCaml function that performs effects for
   everything with an architectural cost or kernel involvement: burning
   compute cycles, reading/writing virtual memory, and executing a trap
   instruction.  The engine (in the Cache Kernel or a baseline kernel)
   handles those effects, charges simulated time, performs address
   translation, and may suspend the thread at any effect point — which gives
   preemption, page-fault-and-retry, and writeback of partially executed
   threads, with the suspended one-shot continuation playing the role of the
   saved register file.

   Trap payloads are an extensible variant so that the hardware layer does
   not depend on any kernel's call vocabulary. *)

type payload = ..
(** Trap operands and results; each kernel extends this with its calls. *)

type payload += Unit_payload | Int_payload of int

type _ Effect.t +=
  | Compute : Cost.cycles -> unit Effect.t  (** execute [n] cycles of pure computation *)
  | Mem_read : int -> int Effect.t  (** load the word at a virtual address *)
  | Mem_write : int * int -> unit Effect.t  (** store a word at a virtual address *)
  | Trap : payload -> payload Effect.t  (** trap instruction: enter the kernel *)
  | Get_time : float Effect.t  (** read the (simulated) clock, in microseconds *)

(* Convenience wrappers so thread bodies read naturally. *)

let compute n = Effect.perform (Compute n)
let mem_read va = Effect.perform (Mem_read va)
let mem_write va v = Effect.perform (Mem_write (va, v))
let trap p = Effect.perform (Trap p)
let time_us () = Effect.perform Get_time

type status =
  | Done of payload
      (** the computation finished; handler frames return their result here *)
  | Failed of exn  (** the computation raised *)
  | On_compute of Cost.cycles * (unit, status) Effect.Deep.continuation
  | On_read of int * (int, status) Effect.Deep.continuation
  | On_write of int * int * (unit, status) Effect.Deep.continuation
  | On_trap of payload * (payload, status) Effect.Deep.continuation
  | On_time of (float, status) Effect.Deep.continuation

(** Start running [body] until its first effect (or completion). *)
let start (body : unit -> payload) : status =
  let open Effect.Deep in
  match_with body ()
    {
      retc = (fun p -> Done p);
      exnc = (fun e -> Failed e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Compute n ->
            Some (fun (k : (a, status) continuation) -> On_compute (n, k))
          | Mem_read va -> Some (fun (k : (a, status) continuation) -> On_read (va, k))
          | Mem_write (va, v) ->
            Some (fun (k : (a, status) continuation) -> On_write (va, v, k))
          | Trap p -> Some (fun (k : (a, status) continuation) -> On_trap (p, k))
          | Get_time -> Some (fun (k : (a, status) continuation) -> On_time (k))
          | _ -> None);
    }

(** A body that performs side effects and returns no useful value. *)
let unit_body (f : unit -> unit) : unit -> payload =
 fun () ->
  f ();
  Unit_payload
