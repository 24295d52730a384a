(* Belady's OPT: replay a reference string over [frames] frames, evicting
   on each miss the resident page whose next use lies furthest ahead.  No
   replacement policy misses less on the same string, so its count bounds
   what any page policy can gain on a trace. *)

module Uses = Set.Make (struct
  type t = int * int (* next use, page *)

  let compare = compare
end)

(** Whether each access of [trace] misses under OPT with [frames] frames. *)
let replay ~frames trace =
  if frames < 1 then invalid_arg "Belady.replay: no frames";
  let n = Array.length trace in
  let next = Array.make n max_int in
  let seen = Hashtbl.create 64 in
  for i = n - 1 downto 0 do
    Option.iter (fun j -> next.(i) <- j) (Hashtbl.find_opt seen trace.(i));
    Hashtbl.replace seen trace.(i) i
  done;
  let resident = Hashtbl.create 64 (* page -> its next use *) in
  let uses = ref Uses.empty in
  Array.mapi
    (fun i page ->
      let miss =
        match Hashtbl.find_opt resident page with
        | Some u ->
          uses := Uses.remove (u, page) !uses;
          false
        | None ->
          if Hashtbl.length resident >= frames then begin
            let ((_, victim) as furthest) = Uses.max_elt !uses in
            uses := Uses.remove furthest !uses;
            Hashtbl.remove resident victim
          end;
          true
      in
      Hashtbl.replace resident page next.(i);
      uses := Uses.add (next.(i), page) !uses;
      miss)
    trace
