(* Host-time spans for the traced run, kept in memory and written out at
   the end as Chrome trace-event JSON (Perfetto and chrome://tracing open
   it).

   Spans are recorded only from the benchmark's own code, around its calls
   into each layer; nothing inside the simulator is instrumented.  Three
   kinds are held:
   - layer spans (setup phases, engine slices, codec calls, checks, audit)
     on the benchmark's own track (pid 0) or a node's track (pid 1 + node);
   - per-op spans from inside the simulated thread bodies, keyed by node
     and thread and tagged hit or fault, held in flat arrays because there
     are tens of thousands of them;
   - GC phases read back from [Runtime_events], on one track per ring.

   When no recorder is installed every entry point is a single branch, so
   the untraced runs pay nothing. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = { name : string; cat : string; pid : int; tid : int; t0 : int; t1 : int }

(* growable int columns for the per-op spans *)
type col = { mutable a : int array; mutable n : int }

let col () = { a = Array.make 4096 0; n = 0 }

let push c v =
  if c.n = Array.length c.a then begin
    let b = Array.make (2 * c.n) 0 in
    Array.blit c.a 0 b 0 c.n;
    c.a <- b
  end;
  c.a.(c.n) <- v;
  c.n <- c.n + 1

type t = {
  mutable spans : span list;  (** layer spans, newest first *)
  op_t0 : col;
  op_dur : col;
  op_track : col;  (** node * 65536 + thread *)
  op_fault : col;  (** 1 when the op's thread forwarded a fault *)
  mutable tags_lost : int;  (** trace entries overwritten before a drain *)
  mutable gc : span list;
  mutable gc_open : (int * Runtime_events.runtime_phase * int) list;
  mutable gc_lost : int;
  mutable cursor : Runtime_events.cursor option;
}

let current : t option ref = ref None

let start () =
  let t =
    {
      spans = [];
      op_t0 = col ();
      op_dur = col ();
      op_track = col ();
      op_fault = col ();
      tags_lost = 0;
      gc = [];
      gc_open = [];
      gc_lost = 0;
      cursor = None;
    }
  in
  Runtime_events.start ();
  t.cursor <- Some (Runtime_events.create_cursor None);
  current := Some t;
  t

(* GC phases: the minor collections and major slices of each ring *)
let gc_name = function
  | Runtime_events.EV_MINOR -> Some "gc.minor"
  | Runtime_events.EV_MAJOR_SLICE -> Some "gc.major_slice"
  | _ -> None

let callbacks t =
  let ts x = Int64.to_int (Runtime_events.Timestamp.to_int64 x) in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun ring x ph ->
      if gc_name ph <> None then t.gc_open <- (ring, ph, ts x) :: t.gc_open)
    ~runtime_end:(fun ring x ph ->
      match gc_name ph with
      | None -> ()
      | Some name -> (
        match List.find_opt (fun (r, p, _) -> r = ring && p = ph) t.gc_open with
        | None -> ()
        | Some ((_, _, t0) as o) ->
          t.gc_open <- List.filter (fun o' -> o' != o) t.gc_open;
          t.gc <- { name; cat = "gc"; pid = -1; tid = ring; t0; t1 = ts x } :: t.gc))
    ~lost_events:(fun _ n -> t.gc_lost <- t.gc_lost + n)
    ()

(** Drain the runtime-events ring; call often enough that it cannot wrap. *)
let poll () =
  match !current with
  | Some ({ cursor = Some c; _ } as t) -> ignore (Runtime_events.read_poll c (callbacks t) None)
  | _ -> ()

let stop () =
  poll ();
  (match !current with
  | Some { cursor = Some c; _ } -> Runtime_events.free_cursor c
  | _ -> ());
  Runtime_events.pause ();
  current := None

(** Run [f] inside a layer span (a plain call when untraced). *)
let span ?(pid = 0) ?(tid = 0) ~cat name f =
  match !current with
  | None -> f ()
  | Some t ->
    let t0 = now_ns () in
    let x = f () in
    t.spans <- { name; cat; pid; tid; t0; t1 = now_ns () } :: t.spans;
    x

(* -- per-op spans -- *)

(* The hit/fault tag of an op says whether the op's own thread forwarded a
   fault while it ran.  The node-wide fault counter cannot say so: the
   engine steps the other CPU's threads in between, and their faults would
   tag this op.  So a traced run enables the node's event trace and counts
   [Forward_to_kernel] entries per thread.  The trace is drained at both
   ends of every op, outside the op's span, so it stays short and no
   thread's drain loses another thread's entries. *)
type watch = {
  inst : Cachekernel.Instance.t;
  node : int;
  per_thread : (Cachekernel.Oid.t, int) Hashtbl.t;  (** forwarded faults so far *)
}

(** Watch [inst] (node [node]) for per-op spans; traced runs only. *)
let watch ~node (inst : Cachekernel.Instance.t) =
  let tr = inst.Cachekernel.Instance.trace in
  Cachekernel.Trace.clear tr;
  Cachekernel.Trace.enable tr;
  { inst; node; per_thread = Hashtbl.create 64 }

let forwarded w thread =
  let open Cachekernel in
  let tr = w.inst.Instance.trace in
  if Trace.length tr > 0 then begin
    (match !current with Some t -> t.tags_lost <- t.tags_lost + Trace.dropped tr | None -> ());
    Trace.iter tr (fun e ->
        match e.Trace.event with
        | Trace.Forward_to_kernel { thread; _ } ->
          Hashtbl.replace w.per_thread thread
            (1 + Option.value (Hashtbl.find_opt w.per_thread thread) ~default:0)
        | _ -> ());
    Trace.clear tr
  end;
  Option.value (Hashtbl.find_opt w.per_thread thread) ~default:0

(** Run op [f] of benchmark thread [thread] and record its host span.
    Called from inside a simulated thread body, where the instance's
    current thread is the caller.  The thread's identifier changes if it
    is unloaded and reloaded during the op, so both are checked.  The span
    also holds whatever the engine stepped on the other CPU meanwhile. *)
let op w ~thread f =
  let me = w.inst.Cachekernel.Instance.current_thread in
  let c0 = forwarded w me in
  let t0 = now_ns () in
  let x = f () in
  let t1 = now_ns () in
  let me' = w.inst.Cachekernel.Instance.current_thread in
  let fault =
    forwarded w me > c0 || ((not (Cachekernel.Oid.equal me me')) && forwarded w me' > 0)
  in
  (match !current with
  | None -> ()
  | Some t ->
    push t.op_t0 t0;
    push t.op_dur (t1 - t0);
    push t.op_track ((w.node * 65536) + thread);
    push t.op_fault (if fault then 1 else 0));
  x

(** Per-op host durations in ns, split by the hit/fault tag. *)
let op_durations t =
  let hit = ref [] and fault = ref [] in
  for i = 0 to t.op_dur.n - 1 do
    let d = float_of_int t.op_dur.a.(i) in
    if t.op_fault.a.(i) = 1 then fault := d :: !fault else hit := d :: !hit
  done;
  (!hit, !fault)

(** Layer spans on the benchmark's own track: the top-level spans whose
    union must cover the traced run. *)
let top_level t = List.filter (fun s -> s.pid = 0 && s.tid = 0) t.spans

let interval s = (float_of_int s.t0, float_of_int s.t1)

(** Share of [t0, t1] covered by the union of [spans]. *)
let coverage spans ~t0 ~t1 =
  let whole = float_of_int (t1 - t0) in
  let uncovered = Pct.self_time (float_of_int t0, float_of_int t1) (List.map interval spans) in
  if whole <= 0.0 then 0.0 else 1.0 -. (uncovered /. whole)

(** Per-category host seconds: total, and self time (minus the GC phases
    and the spans nested inside). *)
let layer_split t =
  let cats = List.sort_uniq compare (List.map (fun s -> s.cat) t.spans) in
  let gc = List.map interval t.gc in
  List.map
    (fun cat ->
      let mine = List.filter (fun s -> s.cat = cat) t.spans in
      let total = List.fold_left (fun acc s -> acc +. float_of_int (s.t1 - s.t0)) 0.0 mine in
      let self =
        List.fold_left
          (fun acc s ->
            let nested =
              List.filter_map
                (fun c -> if c != s && c.t0 >= s.t0 && c.t1 <= s.t1 then Some (interval c) else None)
                t.spans
            in
            acc +. Pct.self_time (interval s) (gc @ nested))
          0.0 mine
      in
      (cat, total /. 1e9, self /. 1e9))
    cats

let gc_seconds t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (float_of_int (s.t1 - s.t0) /. 1e9) else acc)
    0.0 t.gc

(* per-op events written to the Chrome trace: enough to see the op mix
   per thread while keeping the file a few MB (the statistics always use
   every op) *)
let max_ops = 20_000

(** Chrome trace-event JSON; [names] labels the tracks. *)
let to_chrome ~origin ~names t =
  let open Cachekernel.Json in
  let ev ~name ~cat ~pid ~tid ~t0 ~t1 =
    Obj
      [
        ("name", String name);
        ("cat", String cat);
        ("ph", String "X");
        ("ts", Float (float_of_int (t0 - origin) /. 1000.0));
        ("dur", Float (float_of_int (t1 - t0) /. 1000.0));
        ("pid", Int pid);
        ("tid", Int tid);
      ]
  in
  let layer =
    List.rev_map (fun s -> ev ~name:s.name ~cat:s.cat ~pid:s.pid ~tid:s.tid ~t0:s.t0 ~t1:s.t1) t.spans
  in
  let gc =
    List.rev_map (fun s -> ev ~name:s.name ~cat:"gc" ~pid:1000 ~tid:s.tid ~t0:s.t0 ~t1:s.t1) t.gc
  in
  let ops =
    List.init (min max_ops t.op_t0.n) (fun i ->
        let tr = t.op_track.a.(i) and t0 = t.op_t0.a.(i) in
        ev
          ~name:(if t.op_fault.a.(i) = 1 then "op.fault" else "op.hit")
          ~cat:"op" ~pid:(1 + (tr / 65536)) ~tid:(tr mod 65536) ~t0 ~t1:(t0 + t.op_dur.a.(i)))
  in
  let meta =
    List.map
      (fun (pid, name) ->
        Obj
          [
            ("name", String "process_name");
            ("ph", String "M");
            ("pid", Int pid);
            ("args", Obj [ ("name", String name) ]);
          ])
      names
  in
  Obj [ ("traceEvents", List (meta @ layer @ gc @ ops)); ("displayTimeUnit", String "ms") ]
