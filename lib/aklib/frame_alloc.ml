(* Physical frame allocator over the page groups granted to an application
   kernel.

   The system resource manager allocates memory to kernels in page groups
   (128 contiguous pages); the application kernel suballocates frames
   internally — this is that suballocator.  Because the application kernel
   selects the physical page frame for every mapping it loads, it fully
   controls physical page selection and the replacement policy. *)

type t = {
  mutable free : int list; (* free page frame numbers *)
  mutable groups : int list; (* page groups owned *)
  mutable total : int;
  mutable reserved : int; (* frames [take] removed for good *)
}

let create () = { free = []; groups = []; total = 0; reserved = 0 }

(** Add all frames of page group [g] to the pool. *)
let add_group t g =
  if List.mem g t.groups then invalid_arg "Frame_alloc.add_group: duplicate group";
  t.groups <- g :: t.groups;
  let base = Hw.Addr.first_page_of_group g in
  for i = Hw.Addr.pages_per_group - 1 downto 0 do
    t.free <- (base + i) :: t.free
  done;
  t.total <- t.total + Hw.Addr.pages_per_group

(** Reserve [n] specific frames out of the pool (device regions, channel
    pages).  Returns the frames removed. *)
let take t n =
  let rec loop n acc free =
    if n = 0 then (List.rev acc, free)
    else
      match free with
      | [] -> invalid_arg "Frame_alloc.take: pool exhausted"
      | f :: rest -> loop (n - 1) (f :: acc) rest
  in
  let taken, rest = loop n [] t.free in
  t.free <- rest;
  t.reserved <- t.reserved + n;
  taken

let alloc t =
  match t.free with
  | [] -> None
  | f :: rest ->
    t.free <- rest;
    Some f

let free t pfn = t.free <- pfn :: t.free
let available t = List.length t.free
let total t = t.total
let pageable t = t.total - t.reserved
let groups t = t.groups
