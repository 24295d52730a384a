(** UNIX system-call vocabulary: trap payloads and the libc-like stubs
    programs call from inside simulated threads.

    [spawn] is fork+exec combined (a substitution recorded in DESIGN.md:
    one-shot continuations cannot be duplicated); a spawned child can
    inherit the parent's data segment copy-on-write, which preserves the
    memory behaviour fork-based workloads exercise. *)

type program = {
  name : string;
  main : unit -> int;  (** returns the exit code *)
  text_pages : int;
  data_pages : int;
}

val program : ?text_pages:int -> ?data_pages:int -> string -> (unit -> int) -> program

type Hw.Exec.payload +=
  | Sys_getpid
  | Sys_getppid
  | Sys_spawn of program * bool
  | Sys_exit of int
  | Sys_wait
  | Sys_sbrk of int
  | Sys_sleep of string
  | Sys_wakeup of string
  | Sys_write of string
  | Sys_kill of int * int
  | Sys_nice of int
  | Sys_creat of string
  | Sys_open of string
  | Sys_close of int
  | Sys_read_file of int * int
  | Sys_write_file of int * string
  | Sys_pipe
  | Ret_int of int
  | Ret_pair of int * int
  | Ret_unit
  | Ret_str of string
  | Ret_would_block
  | Ret_error of string

val sigkill : int
val sigsegv : int

(** {1 Stubs — call only from inside simulated thread bodies} *)

val getpid : unit -> int
val getppid : unit -> int

val spawn : ?inherit_memory:bool -> program -> int
(** Start a child process; returns its pid. *)

val exit : int -> 'a
(** Terminate the calling process (never returns). *)

val wait : unit -> int * int
(** Wait for a child to exit: (pid, exit code).  Sleeping waits are
    implemented by thread unload/reload (section 2.3). *)

val sbrk : int -> int
(** Grow the data region; returns the previous break. *)

val sleep : string -> unit
(** Sleep on a named event until {!wakeup}; the emulator unloads the
    thread while it sleeps. *)

val wakeup : string -> unit
val write : string -> unit
val kill : int -> int -> unit
val nice : int -> unit
val yield : unit -> unit

(** {1 Files and pipes}

    The open file table lives entirely in the emulator (section 2.3),
    and so does its buffer cache ({!Fs}): a file write blocks the calling
    thread through disk latency, a file read only when it misses the
    cache. *)

val creat : string -> int
val open_file : string -> int
val close : int -> unit

val read_file : int -> int -> string
(** Read up to [len] bytes; reading an empty pipe sleeps until a writer
    arrives. *)

val write_file : int -> string -> int
val pipe : unit -> int * int

