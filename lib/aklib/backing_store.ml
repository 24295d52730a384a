(* Backing store for an application kernel's segments.

   Paging I/O belongs to application kernels, not the Cache Kernel.  This
   wraps the simulated disk with block allocation and page-granularity
   transfers between physical frames and blocks; completions arrive through
   the node's event queue.

   The store is optionally *tiered* (DESIGN.md section 9): a small fast
   tier — a pinned local-RAM backing segment of [Config.fast_tier_slots]
   page images, charged [Hw.Cost.fast_tier_setup + fast_tier_page_copy]
   per move — in front of the paging disk.  Every page-out image lands
   fast and every slow-tier refault is promoted; when the fast tier
   overflows, the least recently touched images are demoted to disk.
   Fast-tier images are trimmed page images ([Hw.Phys_mem.image]), the
   zero-tail form the disk stores; whole-page reads pad them back out.
   Blocks keep their disk-allocated numbers in either tier, so callers
   ([Segment_mgr], migration, checkpoint) never see the split; per-block
   metadata designates which tier holds the one authoritative copy.  With
   [fast_tier_slots = 0] (the default) none of this exists and every path
   below reduces to the seed's flat store, bit for bit — the equivalence
   suite in test_tiers pins that. *)

type chaos_plane = {
  fi : Cachekernel.Fault_inject.t;
  events : Hw.Event_queue.t;
  now : unit -> Hw.Cost.cycles;
}

type tier = Fast | Slow

type meta = {
  mutable tier : tier; (* which tier holds the authoritative image *)
  mutable last_touch : Hw.Cost.cycles;
      (* last transfer touching this block: the demotion order *)
  mutable gen : int; (* bumped per overwrite/free: in-flight moves that
                        captured an older generation must not apply *)
}

type tiering = {
  slots : int; (* fast-tier capacity, > 0 *)
  batch : int; (* demotions per batched disk transfer *)
  t_events : Hw.Event_queue.t;
  t_now : unit -> Hw.Cost.cycles;
  fast : (int, Bytes.t) Hashtbl.t; (* block -> authoritative page image *)
  meta : (int, meta) Hashtbl.t; (* block -> tier metadata *)
  mutable fast_live : int; (* derived fast-image count; audited *)
  mutable demoting : bool; (* at most one demotion batch in flight *)
  mutable promotes : int;
  mutable demotes : int;
  mutable fast_hits : int;
  mutable slow_hits : int;
  (* observability, installed by App_kernel: counters, per-tier service
     latency histograms, Tier_move trace events.  Recording never charges
     cycles (DESIGN.md section 7). *)
  mutable obs_count : string -> unit;
  mutable obs_service : fast:bool -> Hw.Cost.cycles -> unit;
  mutable obs_move : block:int -> to_fast:bool -> batch:int -> unit;
}

type t = {
  disk : Hw.Disk.t;
  mem : Hw.Phys_mem.t;
  mutable page_ins : int;
  mutable page_outs : int;
  mutable retries : int;
  mutable chaos : chaos_plane option;
  mutable tiers : tiering option; (* None = the seed's flat store *)
}

let create ~disk ~mem =
  {
    disk;
    mem;
    page_ins = 0;
    page_outs = 0;
    retries = 0;
    chaos = None;
    tiers = None;
  }

let set_fault_plane t ~fi ~events ~now = t.chaos <- Some { fi; events; now }

let configure_tiers t ~slots ~batch ~events ~now =
  if slots <= 0 then t.tiers <- None
  else
    t.tiers <-
      Some
        {
          slots;
          batch = max 1 batch;
          t_events = events;
          t_now = now;
          fast = Hashtbl.create 64;
          meta = Hashtbl.create 64;
          fast_live = 0;
          demoting = false;
          promotes = 0;
          demotes = 0;
          fast_hits = 0;
          slow_hits = 0;
          obs_count = ignore;
          obs_service = (fun ~fast:_ _ -> ());
          obs_move = (fun ~block:_ ~to_fast:_ ~batch:_ -> ());
        }

let set_observer t ~count ~service ~move =
  match t.tiers with
  | None -> ()
  | Some tr ->
    tr.obs_count <- count;
    tr.obs_service <- service;
    tr.obs_move <- move

let tiers_enabled t = t.tiers <> None

(* Run [go] through the injection plane.  An injected failure schedules a
   retry after an exponentially-backed-off delay on the node's event queue;
   the plane never fails the same site twice in a row, so the retry is
   guaranteed to transfer (a transient-fault model — [io_max_retries] is a
   belt-and-braces bound, not a load-bearing one).  An injected delay just
   starts the transfer late and completes on its own. *)
let rec attempt t ~n go =
  match t.chaos with
  | None -> go ()
  | Some { fi; events; now } -> (
    let open Cachekernel in
    match Fault_inject.io_fate fi with
    | `Ok -> go ()
    | `Ok_after_fail ->
      Fault_inject.recover fi ~site:"bstore.fail";
      go ()
    | `Fail when n <= Fault_inject.io_max_retries fi ->
      Fault_inject.inject fi ~site:"bstore.fail";
      t.retries <- t.retries + 1;
      let backoff =
        Fault_inject.io_retry_backoff_us fi *. (2.0 ** float_of_int (n - 1))
      in
      Hw.Event_queue.schedule events
        ~time:(now () + Hw.Cost.cycles_of_us backoff)
        (fun () -> attempt t ~n:(n + 1) go)
    | `Fail -> go () (* retry budget exhausted: let the transfer through *)
    | `Delay us ->
      Fault_inject.inject fi ~site:"bstore.delay";
      Hw.Event_queue.schedule events
        ~time:(now () + Hw.Cost.cycles_of_us us)
        (fun () ->
          Fault_inject.recover fi ~site:"bstore.delay";
          go ()))

(* Same protocol on the tier promotion/demotion path (chaos sites
   [tier.promote] / [tier.demote], fail/delay split as for [bstore]). *)
let rec tier_attempt t ~promote ~n go =
  match t.chaos with
  | None -> go ()
  | Some { fi; events; now } -> (
    let open Cachekernel in
    let site = if promote then "tier.promote" else "tier.demote" in
    match Fault_inject.tier_fate fi ~promote with
    | `Ok -> go ()
    | `Ok_after_fail ->
      Fault_inject.recover fi ~site:(site ^ ".fail");
      go ()
    | `Fail when n <= Fault_inject.io_max_retries fi ->
      Fault_inject.inject fi ~site:(site ^ ".fail");
      t.retries <- t.retries + 1;
      let backoff =
        Fault_inject.io_retry_backoff_us fi *. (2.0 ** float_of_int (n - 1))
      in
      Hw.Event_queue.schedule events
        ~time:(now () + Hw.Cost.cycles_of_us backoff)
        (fun () -> tier_attempt t ~promote ~n:(n + 1) go)
    | `Fail -> go ()
    | `Delay us ->
      Fault_inject.inject fi ~site:(site ^ ".delay");
      Hw.Event_queue.schedule events
        ~time:(now () + Hw.Cost.cycles_of_us us)
        (fun () ->
          Fault_inject.recover fi ~site:(site ^ ".delay");
          go ()))

let alloc_block t = Hw.Disk.alloc_block t.disk

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
       monotonic per block across recycles; the other fields reset to the
       fresh-block defaults of [get_meta]. *)
    if Hashtbl.mem tr.fast b then begin
      Hashtbl.remove tr.fast b;
      tr.fast_live <- tr.fast_live - 1
    end;
    (match Hashtbl.find_opt tr.meta b with
    | Some m ->
      m.gen <- m.gen + 1;
      m.tier <- Slow;
      m.last_touch <- min_int / 2
    | None -> ()));
  Hw.Disk.free_block t.disk b

(* -- tier metadata -- *)

let get_meta tr block =
  match Hashtbl.find_opt tr.meta block with
  | Some m -> m
  | None ->
    (* blocks written outside the tiered paths (boot loading, restage)
       default to the slow tier, untouched in the distant past *)
    let m = { tier = Slow; last_touch = min_int / 2; gen = 0 } in
    Hashtbl.replace tr.meta block m;
    m

(* -- batched demotion framing --

   A demotion batch travels as one checksummed, length-prefixed frame (the
   migration codec's contract, restated locally: aklib cannot depend on
   lib/migrate).  The frame is built when the batch starts and verified
   before any block is applied to the disk, so a corrupted transfer is
   rejected whole. *)

let frame_magic = "CKT1"

let fnv1a bytes upto =
  let p = 0x100000001B3L and h = ref 0xCBF29CE484222325L in
  for i = 0 to upto - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get bytes i)))) p
  done;
  !h

let put64 buf v =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr (Int64.to_int (Int64.shift_right_logical v (i * 8)) land 0xff))
  done

let get64 bytes off =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get bytes (off + i))))
  done;
  !v

(* entries: (block, gen, data) *)
let encode_batch entries =
  let buf =
    Buffer.create (List.fold_left (fun n (_, _, data) -> n + 24 + Bytes.length data) 12 entries)
  in
  Buffer.add_string buf frame_magic;
  put64 buf (Int64.of_int (List.length entries));
  List.iter
    (fun (block, gen, data) ->
      put64 buf (Int64.of_int block);
      put64 buf (Int64.of_int gen);
      put64 buf (Int64.of_int (Bytes.length data));
      Buffer.add_bytes buf data)
    entries;
  let body = Buffer.to_bytes buf in
  let buf = Buffer.create (Bytes.length body + 8) in
  Buffer.add_bytes buf body;
  put64 buf (fnv1a body (Bytes.length body));
  Buffer.to_bytes buf

let decode_batch frame =
  let len = Bytes.length frame in
  if len < String.length frame_magic + 16 then Error "truncated frame"
  else if Bytes.sub_string frame 0 4 <> frame_magic then Error "bad magic"
  else if get64 frame (len - 8) <> fnv1a frame (len - 8) then Error "checksum mismatch"
  else begin
    let count = Int64.to_int (get64 frame 4) in
    let rec entries acc off n =
      if n = 0 then Ok (List.rev acc)
      else if off + 24 > len - 8 then Error "truncated entry"
      else begin
        let block = Int64.to_int (get64 frame off) in
        let gen = Int64.to_int (get64 frame (off + 8)) in
        let dlen = Int64.to_int (get64 frame (off + 16)) in
        if dlen < 0 || dlen > Hw.Addr.page_size then Error "bad payload length"
        else if off + 24 + dlen > len - 8 then Error "truncated payload"
        else
          entries ((block, gen, Bytes.sub frame (off + 24) dlen) :: acc) (off + 24 + dlen)
            (n - 1)
      end
    in
    entries [] (4 + 8) count
  end

(* -- demotion: drain the fast tier down to capacity, [batch] blocks per
   framed disk transfer (one seek amortized across the batch) -- *)

let rec maybe_demote t tr =
  if (not tr.demoting) && tr.fast_live > tr.slots then begin
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
    let victims = take (min tr.batch (tr.fast_live - tr.slots)) candidates in
    if victims <> [] then begin
      tr.demoting <- true;
      (* copy-then-delete: capture the images now, keep the fast copies
         authoritative (and readable) until the disk transfer lands *)
      let entries =
        List.filter_map
          (fun (block, _) ->
            match Hashtbl.find_opt tr.fast block with
            | Some data -> Some (block, (get_meta tr block).gen, data)
            | None -> None)
          victims
      in
      let frame = encode_batch entries in
      let n = List.length entries in
      tier_attempt t ~promote:false ~n:1 (fun () ->
          Hw.Event_queue.schedule tr.t_events
            ~time:(tr.t_now () + Hw.Cost.disk_seek + (n * Hw.Cost.disk_page_transfer))
            (fun () ->
              (match decode_batch frame with
              | Error _ -> tr.obs_count "tier.frame_rejected"
              | Ok entries ->
                List.iter
                  (fun (block, gen, data) ->
                    match Hashtbl.find_opt tr.meta block with
                    | Some m when m.gen = gen && m.tier = Fast ->
                      Hw.Disk.write_page_now t.disk ~block data;
                      m.tier <- Slow;
                      Hashtbl.remove tr.fast block;
                      tr.fast_live <- tr.fast_live - 1;
                      tr.demotes <- tr.demotes + 1;
                      tr.obs_count "tier.demote";
                      tr.obs_move ~block ~to_fast:false ~batch:n
                    | _ -> () (* overwritten or freed mid-flight: the live
                                 copy (if any) stays where it is *))
                  entries);
              tr.demoting <- false;
              maybe_demote t tr))
    end
  end

(* Install [data] as [block]'s fast-tier image (page-out or promotion
   completion). *)
let install_fast tr ~block data =
  if not (Hashtbl.mem tr.fast block) then tr.fast_live <- tr.fast_live + 1;
  Hashtbl.replace tr.fast block data

(** Write frame [pfn] to a fresh (or supplied) block; [k block] runs on
    completion. *)
let page_out t ?block ~pfn k =
  t.page_outs <- t.page_outs + 1;
  let block = match block with Some b -> b | None -> alloc_block t in
  match t.tiers with
  | None ->
    attempt t ~n:1 (fun () ->
        (* the frame is read at transfer time, so a delayed write captures
           the page contents as of when the transfer actually starts *)
        Hw.Disk.write_frame t.disk ~block t.mem ~pfn (fun () -> k block))
  | Some tr ->
    (* fast-first: the image lands in the fast tier, and LRU demotion
       ([maybe_demote]) moves it to disk once it goes stale *)
    let m = get_meta tr block in
    m.last_touch <- tr.t_now ();
    m.gen <- m.gen + 1;
    attempt t ~n:1 (fun () ->
        m.tier <- Fast;
        install_fast tr ~block (Hw.Phys_mem.image t.mem ~pfn);
        Hw.Event_queue.schedule tr.t_events
          ~time:(tr.t_now () + Hw.Cost.fast_tier_setup + Hw.Cost.fast_tier_page_copy)
          (fun () ->
            maybe_demote t tr;
            k block))

(* Promotion: a slow-tier fault copies the just-read image into the fast
   tier so the next fault on this block is served at RAM cost. *)
let promote t tr ~block data =
  let m = get_meta tr block in
  let gen0 = m.gen in
  tier_attempt t ~promote:true ~n:1 (fun () ->
      Hw.Event_queue.schedule tr.t_events
        ~time:(tr.t_now () + Hw.Cost.fast_tier_setup + Hw.Cost.fast_tier_page_copy)
        (fun () ->
          match Hashtbl.find_opt tr.meta block with
          | Some m when m.gen = gen0 && m.tier = Slow ->
            m.tier <- Fast;
            install_fast tr ~block data;
            tr.promotes <- tr.promotes + 1;
            tr.obs_count "tier.promote";
            tr.obs_move ~block ~to_fast:true ~batch:1;
            maybe_demote t tr
          | _ -> () (* overwritten or freed while the copy was in flight *)))

(** Read [block] into frame [pfn]; [k ()] runs on completion. *)
let page_in t ~block ~pfn k =
  t.page_ins <- t.page_ins + 1;
  match t.tiers with
  | None ->
    attempt t ~n:1 (fun () -> Hw.Disk.read_frame t.disk ~block t.mem ~pfn k)
  | Some tr ->
    let start = tr.t_now () in
    let m = get_meta tr block in
    m.last_touch <- start;
    let fast_hit = m.tier = Fast && Hashtbl.mem tr.fast block in
    if fast_hit then begin
      tr.fast_hits <- tr.fast_hits + 1;
      tr.obs_count "tier.hit.fast"
    end
    else begin
      tr.slow_hits <- tr.slow_hits + 1;
      tr.obs_count "tier.hit.slow"
    end;
    attempt t ~n:1 (fun () ->
        (* re-check at transfer time: an injected delay can outlive a
           demotion, in which case the image is now on disk *)
        match Hashtbl.find_opt tr.fast block with
        | Some data ->
          Hw.Event_queue.schedule tr.t_events
            ~time:(tr.t_now () + Hw.Cost.fast_tier_setup + Hw.Cost.fast_tier_page_copy)
            (fun () ->
              Hw.Phys_mem.copy_page_in t.mem ~pfn data;
              tr.obs_service ~fast:true (tr.t_now () - start);
              k ())
        | None ->
          Hw.Disk.read_frame t.disk ~block t.mem ~pfn (fun () ->
              tr.obs_service ~fast:false (tr.t_now () - start);
              if not fast_hit then promote t tr ~block (Hw.Phys_mem.image t.mem ~pfn);
              k ()))

(** Synchronous block write for boot-time loading of program images. *)
let write_block_now t ~block data =
  (match t.tiers with
  | None -> ()
  | Some tr ->
    (* the raw write lands on the disk: retire any fast image *)
    (match Hashtbl.find_opt tr.meta block with
    | Some m ->
      m.gen <- m.gen + 1;
      m.tier <- Slow
    | None -> ());
    if Hashtbl.mem tr.fast block then begin
      Hashtbl.remove tr.fast block;
      tr.fast_live <- tr.fast_live - 1
    end);
  Hw.Disk.write_page_now t.disk ~block data

(** Synchronous block read that honours the tier split: migration and
    checkpoint capture must see the authoritative copy wherever it lives. *)
let read_block_now t ~block =
  match t.tiers with
  | None -> Hw.Disk.read_now t.disk ~block
  | Some tr -> (
    match Hashtbl.find_opt tr.fast block with
    | Some data when (get_meta tr block).tier = Fast ->
      let page = Bytes.make Hw.Addr.page_size '\000' in
      Bytes.blit data 0 page 0 (Bytes.length data);
      page
    | _ -> Hw.Disk.read_now t.disk ~block)

(** Synchronously demote every fast-tier image to the paging disk.  A
    checkpoint must not depend on the volatile RAM tier, so capture flushes
    first; the returned count lets callers model the extra pause. *)
let checkpoint_flush t =
  match t.tiers with
  | None -> 0
  | Some tr ->
    let entries = Hashtbl.fold (fun block data acc -> (block, data) :: acc) tr.fast [] in
    List.iter
      (fun (block, data) ->
        Hw.Disk.write_page_now t.disk ~block data;
        (get_meta tr block).tier <- Slow;
        Hashtbl.remove tr.fast block;
        tr.fast_live <- tr.fast_live - 1;
        tr.demotes <- tr.demotes + 1;
        tr.obs_count "tier.checkpoint_flush")
      entries;
    List.length entries

(* -- audit: per-tier conservation --

   Every writeback image resides in exactly one tier: a fast image must be
   designated fast by its metadata (else there are two authoritative
   copies), Fast metadata must have an image (else there are none), and
   the derived fast-image count must match a recount. *)

let audit_tiers t ~repair =
  match t.tiers with
  | None -> []
  | Some tr ->
    let acc = ref [] in
    let add subject detail repaired =
      acc := ("tier", subject, detail, repaired) :: !acc
    in
    Hashtbl.fold
      (fun block _ l ->
        match Hashtbl.find_opt tr.meta block with
        | Some m when m.tier = Fast -> l
        | _ -> block :: l)
      tr.fast []
    |> List.iter (fun block ->
           let repaired =
             repair
             &&
             (* removing the image shrinks the fast tier: keep the derived
                count in step, or this repair manufactures a fast_live
                drift for the same pass to flag *)
             (Hashtbl.remove tr.fast block;
              tr.fast_live <- tr.fast_live - 1;
              true)
           in
           add (Fmt.str "block %d" block)
             "fast image not designated fast (two authoritative copies)" repaired);
    Hashtbl.fold
      (fun block m l -> if m.tier = Fast && not (Hashtbl.mem tr.fast block) then (block, m) :: l else l)
      tr.meta []
    |> List.iter (fun (block, m) ->
           let repaired =
             repair
             &&
             (m.tier <- Slow;
              true)
           in
           add (Fmt.str "block %d" block)
             "designated fast but image missing (disk copy is authoritative)" repaired);
    let actual = Hashtbl.length tr.fast in
    let live = tr.fast_live in
    if live <> actual then begin
      let repaired =
        repair
        &&
        (tr.fast_live <- actual;
         true)
      in
      add "fast_live" (Fmt.str "counter %d, recount %d" live actual) repaired
    end;
    List.rev !acc

(** Seed one tier-conservation corruption (for the audit tests).  Returns
    [false] if the store holds no fast image to corrupt. *)
let corrupt_tier_for_test t kind =
  match t.tiers with
  | None -> false
  | Some tr -> (
    match Hashtbl.fold (fun b _ acc -> match acc with None -> Some b | s -> s) tr.fast None with
    | None -> false
    | Some block -> (
      match kind with
      | `Orphan_image ->
        (get_meta tr block).tier <- Slow;
        true
      | `Missing_image ->
        Hashtbl.remove tr.fast block;
        true
      | `Drift ->
        tr.fast_live <- tr.fast_live + 1;
        true))

let page_ins t = t.page_ins
let page_outs t = t.page_outs
let retries t = t.retries
let fast_resident t = match t.tiers with None -> 0 | Some tr -> Hashtbl.length tr.fast
let tier_promotes t = match t.tiers with None -> 0 | Some tr -> tr.promotes
let tier_demotes t = match t.tiers with None -> 0 | Some tr -> tr.demotes
let tier_fast_hits t = match t.tiers with None -> 0 | Some tr -> tr.fast_hits
let tier_slow_hits t = match t.tiers with None -> 0 | Some tr -> tr.slow_hits
