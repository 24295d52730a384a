(** Object-oriented RPC over memory-based messaging (section 2.2): a
    conventional procedural interface whose data never crosses the kernel
    — requests and replies travel through channel slots in shared memory,
    published by bell writes. *)

module Wire : sig
  (** Flat word-level marshalling. *)

  val of_string : string -> int list
  (** Length word followed by packed bytes. *)

  val to_string : int list -> string * int list
  (** Decode a string; returns it and the remaining words. *)
end

type conn
(** One side of a connection: request and response channels plus the
    sequence state of the at-most-once protocol.  Each side builds its
    own [conn] from its attached endpoints. *)

val conn :
  ?fi:Cachekernel.Fault_inject.t ->
  req:Channel.endpoint ->
  rsp:Channel.endpoint ->
  unit ->
  conn
(** Passing [fi] lets the server count deduplicated requests as
    [recover.signal.dup] when chaos duplicates deliveries. *)

val create_shared : Segment_mgr.t -> name:string -> Channel.shared * Channel.shared

val call : conn -> slot:int -> method_id:int -> int list -> int list
(** (thread context) Marshal a request, ring the bell, block for the reply
    in the paired slot. *)

val serve_one : conn -> handle:(method_id:int -> int list -> int list) -> unit
(** (thread context) Serve exactly one request. *)
