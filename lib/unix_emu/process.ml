(* Per-process state kept by the UNIX emulator.

   This is exactly the state the Cache Kernel does *not* hold (section 2.3):
   the stable pid (Cache Kernel thread and space identifiers change every
   reload), the parent/child tree, scheduling accounting for the decay
   policy, sleep bookkeeping and the memory layout.  The emulator records
   the Cache Kernel identifiers only as cache handles. *)

type state =
  | Runnable
  | Sleeping of string (* named event *)
  | Swapped
  | Zombie of int (* exit code *)

(* An in-kernel (emulator) pipe: a bounded byte buffer. *)
type pipe = { pipe_id : int; buf : Buffer.t; capacity : int }

(* One open-file-table entry — "stored only in the application kernel". *)
type fd_state =
  | File of { file : Fs.file; mutable pos : int }
  | Pipe_read_end of pipe
  | Pipe_write_end of pipe

let pp_state ppf = function
  | Runnable -> Fmt.string ppf "runnable"
  | Sleeping e -> Fmt.pf ppf "sleeping(%s)" e
  | Swapped -> Fmt.string ppf "swapped"
  | Zombie c -> Fmt.pf ppf "zombie(%d)" c

(* Standard layout of a process address space. *)
let text_base = 0x00400000
let data_base = 0x10000000
let stack_base = 0x70000000
let stack_pages = 8
let max_data_pages = 1024 (* 4 MB data segment ceiling *)

type t = {
  pid : int;
  parent : int;
  program_name : string;
  vspace : Aklib.Segment_mgr.vspace;
  mutable thread : int; (* Thread_lib id *)
  text : Aklib.Segment.t;
  data : Aklib.Segment.t;
  stack : Aklib.Segment.t;
  mutable brk_pages : int; (* current data region size *)
  mutable state : state;
  mutable swapped_from : state option; (* state to restore at swap-in *)
  mutable woken : bool;
      (* the wakeup ending our sleep arrived; the retried call that slept
         (sleep, wait or a pipe read) spends it *)
  mutable children : int list;
  mutable nice : int; (* -20..19, UNIX style *)
  mutable p_cpu : int; (* decaying CPU usage estimate (4.3BSD p_cpu) *)
  mutable last_consumed : Hw.Cost.cycles; (* thread consumption at last decay *)
  mutable segv_handler : (unit -> [ `Retry | `Die ]) option;
  fds : (int, fd_state) Hashtbl.t; (* the open file table *)
  mutable next_fd : int;
}

let is_zombie t = match t.state with Zombie _ -> true | _ -> false

let pp ppf t =
  Fmt.pf ppf "pid %d (%s) %a nice=%d p_cpu=%d" t.pid t.program_name pp_state t.state
    t.nice t.p_cpu
