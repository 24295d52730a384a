(** Per-process state of the UNIX emulator — exactly the state the Cache
    Kernel does {e not} hold (section 2.3): the stable pid, the process
    tree, scheduling accounting, sleep bookkeeping, the memory layout and
    the open file table.  Cache Kernel identifiers are recorded only as
    cache handles. *)

type state = Runnable | Sleeping of string | Swapped | Zombie of int

val pp_state : state Fmt.t

type pipe = { pipe_id : int; buf : Buffer.t; capacity : int }

type fd_state =
  | File of { file : Fs.file; mutable pos : int }
  | Pipe_read_end of pipe
  | Pipe_write_end of pipe

(** Standard address-space layout. *)

val text_base : int
val data_base : int
val stack_base : int
val stack_pages : int
val max_data_pages : int

type t = {
  pid : int;
  parent : int;
  program_name : string;
  vspace : Aklib.Segment_mgr.vspace;
  mutable thread : int;
  text : Aklib.Segment.t;
  data : Aklib.Segment.t;
  stack : Aklib.Segment.t;
  mutable brk_pages : int;
  mutable state : state;
  mutable swapped_from : state option;
  mutable woken : bool;
  mutable children : int list;
  mutable nice : int;
  mutable p_cpu : int;
  mutable last_consumed : Hw.Cost.cycles;
  mutable segv_handler : (unit -> [ `Retry | `Die ]) option;
  fds : (int, fd_state) Hashtbl.t;
  mutable next_fd : int;
}

val is_zombie : t -> bool
val pp : t Fmt.t
