(* Object-oriented RPC over memory-based messaging (section 2.2).

   "An object-oriented RPC facility implemented on top of the memory-based
   messaging as a user-space communication library allows applications and
   services to use a conventional procedural communication interface."

   A connection is a pair of channels (request, response).  A request is a
   method selector plus marshalled arguments; the server's dispatch loop
   invokes the registered handler and sends the reply in the paired slot.
   Marshalling is word-oriented ({!Wire}) and every word moves through the
   simulated memory system, so RPC cost is memory-system cost — no copying
   through the kernel, no protection boundary crossing. *)

open Cachekernel

module Wire = struct
  (** Flat word-level marshalling: ints as words, strings as a length word
      plus packed bytes. *)

  let of_string s =
    let n = String.length s in
    let words = (n + 3) / 4 in
    n
    :: List.init words (fun w ->
           let b i =
             let idx = (w * 4) + i in
             if idx < n then Char.code s.[idx] else 0
           in
           b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24))

  let to_string = function
    | [] -> ("", [])
    | n :: rest ->
      let words = (n + 3) / 4 in
      let buf = Buffer.create n in
      let rec take k ws =
        if k = 0 then ws
        else
          match ws with
          | [] -> invalid_arg "Wire.to_string: truncated"
          | w :: tl ->
            for i = 0 to 3 do
              let idx = ((words - k) * 4) + i in
              if idx < n then Buffer.add_char buf (Char.chr ((w lsr (8 * i)) land 0xFF))
            done;
            take (k - 1) tl
      in
      let rest = take words rest in
      (Buffer.contents buf, rest)
end

(* One side of a connection: a request endpoint, a response endpoint, and
   the sequence state of the at-most-once protocol.  Requests and replies
   carry a sequence word: the server remembers the last sequence served
   per slot and resends the cached reply on a duplicate (a chaos-
   duplicated bell signal makes it see the same request twice), and the
   client discards replies whose sequence is not the one it is awaiting
   (a resent reply raced a newer call).  Each side builds its own [conn],
   so client and server sequence state never alias. *)
type conn = {
  req : Channel.endpoint;
  rsp : Channel.endpoint;
  fi : Fault_inject.t option;
  mutable next_seq : int; (* client side: last sequence issued *)
  last_seq : int array; (* server side: last sequence served, per slot *)
  last_reply : int list array; (* server side: cached replies *)
}

let conn ?fi ~req ~rsp () =
  {
    req;
    rsp;
    fi;
    next_seq = 0;
    last_seq = Array.make Channel.n_slots 0;
    last_reply = Array.make Channel.n_slots [];
  }

(** Build the shared state for a connection: two channels. *)
let create_shared mgr ~name =
  ( Channel.create_shared mgr ~name:(name ^ ".req"),
    Channel.create_shared mgr ~name:(name ^ ".rsp") )

(** Client-side call: marshal [seq :: method_id :: args] into a request
    slot, ring the bell, and block for the matching reply in the paired
    response slot; replies with a stale sequence are discarded. *)
let call (c : conn) ~slot ~method_id args =
  c.next_seq <- c.next_seq + 1;
  let seq = c.next_seq in
  Channel.send c.req ~slot (seq :: method_id :: args);
  let rec await () =
    match Hw.Exec.trap Api.Ck_wait_signal with
    | Api.Ck_signal va -> (
      match Channel.decode c.rsp va with
      | Some s when s = slot -> (
        let len = Hw.Exec.mem_read (c.rsp.Channel.bell_va + (4 * s)) in
        match Channel.read_slot c.rsp ~slot:s ~len with
        | rseq :: reply when rseq = seq -> reply
        | _ -> await () (* stale or resent reply: not the one we await *))
      | _ -> await ())
    | _ -> await ()
  in
  await ()

(** Server dispatch loop body: wait for one fresh request, dispatch to
    [handle], reply in the same slot.  A duplicate request (same sequence
    as the last served on the slot) resends the cached reply without
    re-invoking the handler, then keeps waiting.  Returns after one fresh
    exchange so callers can compose it into their own loops. *)
let rec serve_one (c : conn) ~handle =
  let slot, msg = Channel.recv c.req in
  match msg with
  | seq :: _ when seq = c.last_seq.(slot) ->
    (match c.fi with
    | Some fi -> Fault_inject.recover fi ~site:"signal.dup"
    | None -> ());
    Channel.send c.rsp ~slot (seq :: c.last_reply.(slot));
    serve_one c ~handle
  | seq :: method_id :: args ->
    let reply = handle ~method_id args in
    c.last_seq.(slot) <- seq;
    c.last_reply.(slot) <- reply;
    Channel.send c.rsp ~slot (seq :: reply)
  | _ -> Channel.send c.rsp ~slot []
