(* Thread descriptors.

   A thread descriptor holds everything the Cache Kernel needs to run the
   thread: its priority, its address space binding, and its execution state.
   On the 68040 prototype the execution state is the register file and
   kernel stack location; in the simulation it is the stack of suspended
   execution frames (section "Substitutions" of DESIGN.md) — a user frame
   plus any application-kernel handler frames pushed by fault or trap
   forwarding (Figure 2).

   Everything else a conventional OS would keep per-process (signal masks,
   open files, ...) is *not* here: it lives in the application kernel
   (section 2.3). *)

type mode = User | Kernel_mode

(* Why a handler frame was pushed: fault forwarding (Figure 2) or trap
   forwarding (section 2.3).  The engine stamps the push time so frame
   completion can observe the end-to-end latency per origin. *)
type handler_origin = From_fault | From_trap | Internal

type frame = {
  mutable status : Hw.Exec.status;
  mode : mode;
  kernel : Oid.t; (* the application kernel a handler frame executes in *)
  mutable combined_resume : bool;
      (* handler used the optimized load-mapping-and-resume call: the return
         path skips the separate exception-complete trap (section 2.1) *)
  mutable origin : handler_origin;
  mutable pushed_at : Hw.Cost.cycles; (* time of the trap/fault that pushed it *)
}

let frame ?(mode = User) ?(kernel = Oid.none) status =
  { status; mode; kernel; combined_resume = false; origin = Internal; pushed_at = 0 }

type block_reason = On_signal

type run_state =
  | Ready
  | Running of int (* CPU id *)
  | Blocked of block_reason
  | Exited

let pp_run_state ppf = function
  | Ready -> Fmt.string ppf "ready"
  | Running c -> Fmt.pf ppf "running(cpu%d)" c
  | Blocked On_signal -> Fmt.string ppf "blocked(signal)"
  | Exited -> Fmt.string ppf "exited"

(** Saved thread state carried by a writeback record and accepted back by a
    subsequent load: the analogue of the register values the prototype
    loads a thread with. *)
type saved = {
  frames : frame list;
  resume_value : Hw.Exec.payload option;
      (* result of a trap whose handler unloaded the thread before the trap
         returned; delivered when the reloaded thread is dispatched *)
  pending_signals : int list; (* queued signal addresses at writeback time *)
}

type start =
  | Fresh of (unit -> Hw.Exec.payload) (* a new thread: its body *)
  | Saved of saved (* reload of previously written-back state *)

type t = {
  mutable oid : Oid.t;
  owner : Oid.t; (* owning kernel *)
  space : Oid.t;
  tag : int; (* application-kernel cookie, echoed in writebacks *)
  mutable priority : int;
  mutable frames : frame list;
  mutable resume_value : Hw.Exec.payload option;
  mutable state : run_state;
  mutable ready_since : Hw.Cost.cycles;
  mutable slice_left : Hw.Cost.cycles;
  signal_q : int Queue.t; (* bounded; {!Stats} counts the drops *)
  mutable affinity : int option;
  mutable locked : bool;
  mutable unload_pending : bool;
  mutable recently_used : bool;
  mutable fault_key : int; (* runaway-fault detection: last faulting page *)
  mutable fault_repeat : int;
  mutable consumed : Hw.Cost.cycles; (* lifetime CPU consumption *)
}

let create ~owner ~space ~tag ~priority ~start =
  let resume_value, pending =
    match start with
    | Fresh _ -> (None, [])
    | Saved s -> (s.resume_value, s.pending_signals)
  in
  let t =
    {
      oid = Oid.none;
      owner;
      space;
      tag;
      priority;
      frames = [];
      resume_value;
      state = Ready;
      ready_since = 0;
      slice_left = 0;
      signal_q = Queue.create ();
      affinity = None;
      locked = false;
      unload_pending = false;
      recently_used = true;
      fault_key = -1;
      fault_repeat = 0;
      consumed = 0;
    }
  in
  (match start with
  | Fresh body -> t.frames <- [ frame (Hw.Exec.start body) ]
  | Saved s -> t.frames <- s.frames);
  List.iter (fun va -> Queue.push va t.signal_q) pending;
  t

(** Current top execution frame, if the thread has not exited. *)
let top t = match t.frames with [] -> None | f :: _ -> Some f

let push_frame t f = t.frames <- f :: t.frames

let pop_frame t =
  match t.frames with
  | [] -> invalid_arg "Thread_obj.pop_frame: no frames"
  | f :: rest ->
    t.frames <- rest;
    f

(** Handler frames on the stack: how deeply the thread's faults and traps
    are nested.  Counted from the frames themselves, so a thread reloaded
    from state written back mid-handler keeps its depth. *)
let handler_depth t =
  List.fold_left (fun n f -> if f.mode = Kernel_mode then n + 1 else n) 0 t.frames

(** Mode the thread is currently executing in. *)
let mode t = match top t with Some f -> f.mode | None -> User

(** Capture the thread's state for writeback. *)
let save t =
  {
    frames = t.frames;
    resume_value = t.resume_value;
    pending_signals = Queue.fold (fun acc va -> va :: acc) [] t.signal_q |> List.rev;
  }

let queue_signal t ~depth_limit va =
  if Queue.length t.signal_q >= depth_limit then false
  else begin
    Queue.push va t.signal_q;
    true
  end

let pp ppf t =
  Fmt.pf ppf "%a prio=%d %a frames=%d" Oid.pp t.oid t.priority pp_run_state t.state
    (List.length t.frames)
