(* Backing store for an application kernel's segments.

   Paging I/O belongs to application kernels, not the Cache Kernel.  This
   wraps the simulated disk with block allocation and page-granularity
   transfers between physical frames and blocks; completions arrive through
   the node's event queue.

   The store is optionally *tiered* (DESIGN.md section 9): a small fast
   tier — a pinned local-RAM backing segment of [Config.fast_tier_slots]
   page images, charged [fast_latency n] for a move of [n] images — in
   front of the paging disk.  Every page-out image lands
   fast and every slow-tier refault is promoted; when the fast tier
   overflows, the least recently touched images are demoted to disk,
   [demote_batch] at a time through [Hw.Disk.write_images] — the same
   disk, and the same cost rule, as every other paging transfer.
   Fast-tier images are trimmed page images ([Hw.Phys_mem.image]), the
   zero-tail form the disk stores; whole-page reads pad them back out.
   Blocks keep their disk-allocated numbers in either tier, so callers
   ([Segment_mgr], migration, checkpoint) never see the split; a block is
   fast exactly when the [fast] table holds its image, and that image is
   then the one authoritative copy.  With
   [fast_tier_slots = 0] (the default) none of this exists and every path
   below reduces to the seed's flat store, bit for bit — the equivalence
   suite in test_tiers pins that. *)

type meta = {
  mutable last_touch : Hw.Cost.cycles;
      (* last transfer touching this block: the demotion order *)
  mutable gen : int; (* bumped per overwrite/free: in-flight moves that
                        captured an older generation must not apply *)
}

type tiering = {
  slots : int; (* fast-tier capacity, > 0 *)
  fast : (int, Bytes.t) Hashtbl.t; (* block -> authoritative page image *)
  meta : (int, meta) Hashtbl.t; (* block -> demotion order, generation *)
  mutable demoting : bool; (* at most one demotion batch in flight *)
  mutable promotes : int;
  mutable demotes : int;
  mutable fast_hits : int;
  mutable slow_hits : int;
  (* observability, installed by App_kernel: per-tier service latency
     histograms, Tier_move trace events.  Recording never charges cycles
     (DESIGN.md section 7). *)
  mutable obs_service : fast:bool -> Hw.Cost.cycles -> unit;
  mutable obs_move : block:int -> to_fast:bool -> batch:int -> unit;
}

type t = {
  disk : Hw.Disk.t;
  mem : Hw.Phys_mem.t;
  events : Hw.Event_queue.t; (* the node's queue: retries, fast-tier moves *)
  now : unit -> Hw.Cost.cycles;
  mutable page_ins : int;
  mutable page_outs : int;
  mutable retries : int;
  mutable fi : Cachekernel.Fault_inject.t option; (* None = direct transfers *)
  mutable tiers : tiering option; (* None = the seed's flat store *)
}

let create ~disk ~mem ~events ~now =
  {
    disk;
    mem;
    events;
    now;
    page_ins = 0;
    page_outs = 0;
    retries = 0;
    fi = None;
    tiers = None;
  }

let set_fault_plane t fi = t.fi <- Some fi

(* Fast-tier images demoted per disk write. *)
let demote_batch = 8

(* A fast-tier move of [n] images, as [Hw.Disk.run_latency] is a disk's. *)
let fast_latency n = Hw.Cost.fast_tier_setup + (n * Hw.Cost.fast_tier_page_copy)

let configure_tiers t ~slots =
  if slots <= 0 then t.tiers <- None
  else
    t.tiers <-
      Some
        {
          slots;
          fast = Hashtbl.create 64;
          meta = Hashtbl.create 64;
          demoting = false;
          promotes = 0;
          demotes = 0;
          fast_hits = 0;
          slow_hits = 0;
          obs_service = (fun ~fast:_ _ -> ());
          obs_move = (fun ~block:_ ~to_fast:_ ~batch:_ -> ());
        }

let set_observer t ~service ~move =
  match t.tiers with
  | None -> ()
  | Some tr ->
    tr.obs_service <- service;
    tr.obs_move <- move

(* Run [go] through the injection plane at store site [io] ([bstore] for
   disk transfers, [tier.promote] / [tier.demote] for the tier paths).
   An injected failure schedules a retry after an exponentially-backed-off
   delay on the node's event queue.  The plane never fails the same site
   twice in a row, but another transfer's attempt can take the retry's
   guaranteed pass, so one transfer can fail again; past
   [Fault_inject.io_max_retries] it is let through.  An injected delay
   just starts the transfer late and completes on its own. *)
let attempt t (io : Cachekernel.Fault_inject.io_site) go =
  match t.fi with
  | None -> go ()
  | Some fi ->
    let open Cachekernel in
    let report f suffix = f fi ~site:(io.Fault_inject.site ^ suffix) in
    let rec try_n n =
      match Fault_inject.io_fate fi io with
      | `Ok -> go ()
      | `Ok_after_fail ->
        report Fault_inject.recover ".fail";
        go ()
      | `Fail when n <= Fault_inject.io_max_retries ->
        report Fault_inject.inject ".fail";
        t.retries <- t.retries + 1;
        let backoff =
          Fault_inject.io_retry_backoff_us *. (2.0 ** float_of_int (n - 1))
        in
        Hw.Event_queue.schedule t.events
          ~time:(t.now () + Hw.Cost.cycles_of_us backoff)
          (fun () -> try_n (n + 1))
      | `Fail -> go () (* retry budget exhausted: let the transfer through *)
      | `Delay us ->
        report Fault_inject.inject ".delay";
        Hw.Event_queue.schedule t.events
          ~time:(t.now () + Hw.Cost.cycles_of_us us)
          (fun () ->
            report Fault_inject.recover ".delay";
            go ())
    in
    try_n 1

let alloc_block t = Hw.Disk.alloc_block t.disk
let alloc_run t n = Hw.Disk.alloc_run t.disk n

let free_block t b =
  (match t.tiers with
  | None -> ()
  | Some tr ->
    (* block numbers recycle through the free list: drop any fast image and
       bump the generation so in-flight moves that captured it are
       discarded.  The meta entry must survive the free — removing it would
       restart the block's next life at generation 0, letting a move
       captured under the previous life match again once the new tenant
       reaches the same generation.  Keeping the entry makes generations
       monotonic per block across recycles; [last_touch] resets to the
       fresh-block default of [get_meta]. *)
    Hashtbl.remove tr.fast b;
    (match Hashtbl.find_opt tr.meta b with
    | Some m ->
      m.gen <- m.gen + 1;
      m.last_touch <- min_int / 2
    | None -> ()));
  Hw.Disk.free_block t.disk b

(* -- tier metadata -- *)

let get_meta tr block =
  match Hashtbl.find_opt tr.meta block with
  | Some m -> m
  | None ->
    (* blocks written outside the tiered paths (boot loading, restage)
       were untouched in the distant past *)
    let m = { last_touch = min_int / 2; gen = 0 } in
    Hashtbl.replace tr.meta block m;
    m

(* -- demotion: drain the fast tier down to capacity, [demote_batch]
   images per disk write (one seek amortized across the batch) -- *)

let rec maybe_demote t tr =
  if (not tr.demoting) && Hashtbl.length tr.fast > tr.slots then begin
    (* victims: the least-recently-touched fast images *)
    let candidates =
      Hashtbl.fold (fun block _ acc -> (block, (get_meta tr block).last_touch) :: acc)
        tr.fast []
      |> List.sort (fun (_, a) (_, b) -> compare a b)
    in
    let rec take n = function
      | x :: tl when n > 0 -> x :: take (n - 1) tl
      | _ -> []
    in
    (* drain exactly to capacity: a one-block overflow must not demote a
       full batch and strand the fast tier below capacity *)
    let victims = take (min demote_batch (Hashtbl.length tr.fast - tr.slots)) candidates in
    if victims <> [] then begin
      tr.demoting <- true;
      attempt t Cachekernel.Fault_inject.tier_demote (fun () ->
          (* copy-then-delete: the images (and their generations) are taken
             when the write starts, and the fast copies stay authoritative
             (and readable) until it completes *)
          let entries =
            List.filter_map
              (fun (block, _) ->
                Option.map
                  (fun data -> (block, (get_meta tr block).gen, data))
                  (Hashtbl.find_opt tr.fast block))
              victims
            |> Array.of_list
          in
          let n = Array.length entries in
          Hw.Disk.write_images t.disk
            (Array.map (fun (block, _, data) -> (block, data)) entries)
            (fun () ->
              Array.iter
                (fun (block, gen, _) ->
                  match Hashtbl.find_opt tr.meta block with
                  | Some m when m.gen = gen && Hashtbl.mem tr.fast block ->
                    Hashtbl.remove tr.fast block;
                    tr.demotes <- tr.demotes + 1;
                    tr.obs_move ~block ~to_fast:false ~batch:n
                  | _ -> () (* overwritten or freed mid-flight: the live
                               copy (if any) stays where it is *))
                entries;
              tr.demoting <- false;
              maybe_demote t tr))
    end
  end

(** Write frames [pfns] to the blocks [block], [block + 1], ... as one
    batch; [k ()] runs once on completion.  The batch is one [bstore]
    attempt: on the flat store one sequential disk transfer, on a tiered
    store one fast-tier move of every image. *)
let page_out_batch t ~block ~pfns k =
  let n = Array.length pfns in
  t.page_outs <- t.page_outs + n;
  match t.tiers with
  | None ->
    attempt t Cachekernel.Fault_inject.bstore (fun () ->
        (* the frames are read at transfer time, so a delayed write captures
           the pages as of when the transfer actually starts *)
        Hw.Disk.write_frames t.disk ~block t.mem ~pfns k)
  | Some tr ->
    (* fast-first: each image lands in the fast tier, and LRU demotion
       ([maybe_demote]) moves it to disk once it goes stale *)
    for i = 0 to n - 1 do
      let m = get_meta tr (block + i) in
      m.last_touch <- t.now ();
      m.gen <- m.gen + 1
    done;
    attempt t Cachekernel.Fault_inject.bstore (fun () ->
        Array.iteri
          (fun i pfn -> Hashtbl.replace tr.fast (block + i) (Hw.Phys_mem.image t.mem ~pfn))
          pfns;
        Hw.Event_queue.schedule t.events
          ~time:(t.now () + fast_latency n)
          (fun () ->
            maybe_demote t tr;
            k ()))

(* Promotion: a slow-tier fault copies the just-read image into the fast
   tier so the next fault on this block is served at RAM cost. *)
let promote t tr ~block data =
  let m = get_meta tr block in
  let gen0 = m.gen in
  attempt t Cachekernel.Fault_inject.tier_promote (fun () ->
      Hw.Event_queue.schedule t.events
        ~time:(t.now () + fast_latency 1)
        (fun () ->
          match Hashtbl.find_opt tr.meta block with
          | Some m when m.gen = gen0 && not (Hashtbl.mem tr.fast block) ->
            Hashtbl.replace tr.fast block data;
            tr.promotes <- tr.promotes + 1;
            tr.obs_move ~block ~to_fast:true ~batch:1;
            maybe_demote t tr
          | _ -> () (* overwritten or freed while the copy was in flight *)))

(** Read [block] into frame [pfn]; [k ()] runs on completion. *)
let page_in t ~block ~pfn k =
  t.page_ins <- t.page_ins + 1;
  match t.tiers with
  | None ->
    attempt t Cachekernel.Fault_inject.bstore (fun () ->
        Hw.Disk.read_frame t.disk ~block t.mem ~pfn k)
  | Some tr ->
    let start = t.now () in
    let m = get_meta tr block in
    m.last_touch <- start;
    let fast_hit = Hashtbl.mem tr.fast block in
    if fast_hit then tr.fast_hits <- tr.fast_hits + 1
    else tr.slow_hits <- tr.slow_hits + 1;
    attempt t Cachekernel.Fault_inject.bstore (fun () ->
        (* re-check at transfer time: an injected delay can outlive a
           demotion, in which case the image is now on disk *)
        match Hashtbl.find_opt tr.fast block with
        | Some data ->
          Hw.Event_queue.schedule t.events
            ~time:(t.now () + fast_latency 1)
            (fun () ->
              Hw.Phys_mem.copy_page_in t.mem ~pfn data;
              tr.obs_service ~fast:true (t.now () - start);
              k ())
        | None ->
          Hw.Disk.read_frame t.disk ~block t.mem ~pfn (fun () ->
              tr.obs_service ~fast:false (t.now () - start);
              if not fast_hit then promote t tr ~block (Hw.Phys_mem.image t.mem ~pfn);
              k ()))

(** Synchronous block write for boot-time loading of program images. *)
let write_block_now t ~block data =
  (match t.tiers with
  | None -> ()
  | Some tr ->
    (* the raw write lands on the disk: retire any fast image *)
    (match Hashtbl.find_opt tr.meta block with Some m -> m.gen <- m.gen + 1 | None -> ());
    Hashtbl.remove tr.fast block);
  Hw.Disk.write_page_now t.disk ~block data

(** Synchronous block read that honours the tier split: migration and
    checkpoint capture must see the authoritative copy wherever it lives. *)
let read_block_now t ~block =
  let page = Bytes.make Hw.Addr.page_size '\000' in
  (match Option.bind t.tiers (fun tr -> Hashtbl.find_opt tr.fast block) with
  | Some data -> Bytes.blit data 0 page 0 (Bytes.length data)
  | None -> Hw.Disk.read_into_now t.disk ~block ~off:0 page ~pos:0 ~len:Hw.Addr.page_size);
  page

(** Demote every fast-tier image to the paging disk as one timed
    [Hw.Disk.write_images]; the images leave the fast tier at submission.
    A checkpoint must not depend on the volatile RAM tier. *)
let checkpoint_flush t k =
  match t.tiers with
  | None -> 0
  | Some tr ->
    let images = Hashtbl.fold (fun block data acc -> (block, data) :: acc) tr.fast [] in
    let n = List.length images in
    Hashtbl.clear tr.fast;
    tr.demotes <- tr.demotes + n;
    if n > 0 then Hw.Disk.write_images t.disk (Array.of_list images) k;
    n

let page_ins t = t.page_ins
let page_outs t = t.page_outs
let retries t = t.retries
let fast_resident t = match t.tiers with None -> 0 | Some tr -> Hashtbl.length tr.fast
let tier_promotes t = match t.tiers with None -> 0 | Some tr -> tr.promotes
let tier_demotes t = match t.tiers with None -> 0 | Some tr -> tr.demotes
let tier_fast_hits t = match t.tiers with None -> 0 | Some tr -> tr.fast_hits
let tier_slow_hits t = match t.tiers with None -> 0 | Some tr -> tr.slow_hits
