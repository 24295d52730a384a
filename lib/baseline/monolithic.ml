(* Monolithic kernel baseline.

   Conventional structure: a fixed, compiled-in process table (the source
   of the "hard errors" the Cache Kernel eliminates — section 7: "an
   application never encounters the hard error of the kernel running out
   of thread or address space descriptors as can occur with conventional
   systems like UNIX"), and system calls serviced synchronously inside the
   kernel at trap time — which is also why its null system call is cheaper
   than the Cache Kernel's forwarded one (section 5.3 compares against
   Mach 2.5's 25 us getpid). *)

type Hw.Exec.payload +=
  | Getpid
  | Fork (* allocate a process-table slot *)
  | Exit_proc of int
  | Pipe_write of int * int list (* pipe id, words *)
  | Pipe_read of int
  | Pipe_data of int list
  | Ret of int
  | Err_again (* EAGAIN: process table full *)

(* Service-time constants: decode + table work for a 68040-era monolithic
   kernel, tuned so the null syscall lands near Mach 2.5's measurement. *)
let c_decode = 220
let c_table = 120
let c_pipe_setup = 260
let c_copy_per_word = 3 (* copyin + copyout *)

type pipe = { mutable data : int list list; mutable readers : Runtime.thread list }

type t = {
  rt : Runtime.t;
  nproc : int;
  mutable used_slots : int;
  mutable eagains : int;
  pipes : (int, pipe) Hashtbl.t;
  mutable next_pid : int;
}

let rec create ?(nproc = 64) () =
  let t =
    {
      rt = Runtime.create ();
      nproc;
      used_slots = 0;
      eagains = 0;
      pipes = Hashtbl.create 8;
      next_pid = 100;
    }
  in
  t.rt.Runtime.syscall <- (fun rt th p -> service t rt th p);
  t

and service t rt (th : Runtime.thread) payload =
  match payload with
  | Getpid ->
    Runtime.charge rt (c_decode + c_table);
    Some (Ret th.Runtime.id)
  | Fork ->
    Runtime.charge rt (c_decode + (3 * c_table));
    if t.used_slots >= t.nproc then begin
      t.eagains <- t.eagains + 1;
      Some Err_again
    end
    else begin
      t.used_slots <- t.used_slots + 1;
      t.next_pid <- t.next_pid + 1;
      Some (Ret t.next_pid)
    end
  | Exit_proc _ ->
    Runtime.charge rt (c_decode + c_table);
    t.used_slots <- max 0 (t.used_slots - 1);
    Some (Ret 0)
  | Pipe_write (pid, words) ->
    let pipe =
      match Hashtbl.find_opt t.pipes pid with
      | Some p -> p
      | None ->
        let p = { data = []; readers = [] } in
        Hashtbl.replace t.pipes pid p;
        p
    in
    (* copyin to the kernel buffer *)
    Runtime.charge rt (c_decode + c_pipe_setup + (c_copy_per_word * List.length words));
    pipe.data <- pipe.data @ [ words ];
    List.iter Runtime.wake pipe.readers;
    pipe.readers <- [];
    Some (Ret (List.length words))
  | Pipe_read pid -> (
    let pipe =
      match Hashtbl.find_opt t.pipes pid with
      | Some p -> p
      | None ->
        let p = { data = []; readers = [] } in
        Hashtbl.replace t.pipes pid p;
        p
    in
    Runtime.charge rt (c_decode + c_pipe_setup);
    match pipe.data with
    | words :: rest ->
      pipe.data <- rest;
      (* copyout to the caller *)
      Runtime.charge rt (c_copy_per_word * List.length words);
      Some (Pipe_data words)
    | [] ->
      pipe.readers <- th :: pipe.readers;
      None (* block; trap retried after a writer wakes us *))
  | other -> Some other

(* -- Convenience stubs for baseline programs -- *)

let getpid () = match Hw.Exec.trap Getpid with Ret pid -> pid | _ -> -1

let fork () =
  match Hw.Exec.trap Fork with
  | Ret pid -> Ok pid
  | Err_again -> Error `Again
  | _ -> Error `Again

let pipe_write pid words = ignore (Hw.Exec.trap (Pipe_write (pid, words)))

let pipe_read pid =
  match Hw.Exec.trap (Pipe_read pid) with Pipe_data words -> words | _ -> []
