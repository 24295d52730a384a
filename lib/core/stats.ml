(* Operation counters for one Cache Kernel instance. *)

type counter = {
  mutable loads : int;
  mutable loads_with_writeback : int;
  mutable unloads : int;
  mutable writebacks : int; (* objects displaced by replacement *)
  mutable misses : int; (* stale-identifier lookups *)
  mutable discarded : int; (* objects dropped without writeback (node crash) *)
}

let new_counter () =
  {
    loads = 0;
    loads_with_writeback = 0;
    unloads = 0;
    writebacks = 0;
    misses = 0;
    discarded = 0;
  }

type t = {
  kernels : counter;
  spaces : counter;
  threads : counter;
  mappings : counter;
  mutable faults_forwarded : int;
  mutable traps_forwarded : int;
  mutable signals_fast : int; (* delivered via the reverse TLB *)
  mutable signals_slow : int; (* delivered via the two-stage lookup *)
  mutable signals_queued : int;
  mutable signals_dropped : int;
  mutable cow_copies : int;
  mutable consistency_flushes : int;
  mutable preemptions : int;
}

let create () =
  {
    kernels = new_counter ();
    spaces = new_counter ();
    threads = new_counter ();
    mappings = new_counter ();
    faults_forwarded = 0;
    traps_forwarded = 0;
    signals_fast = 0;
    signals_slow = 0;
    signals_queued = 0;
    signals_dropped = 0;
    cow_copies = 0;
    consistency_flushes = 0;
    preemptions = 0;
  }

(** One object loaded; [displaced] when a victim was written back first. *)
let loaded c ~displaced =
  c.loads <- c.loads + 1;
  if displaced then c.loads_with_writeback <- c.loads_with_writeback + 1

(** One object unloaded; [written_back] when replacement, not its owner,
    sent it back. *)
let unloaded c ~written_back =
  c.unloads <- c.unloads + 1;
  if written_back then c.writebacks <- c.writebacks + 1

let counter t (kind : Oid.kind) =
  match kind with
  | Oid.Kernel -> t.kernels
  | Oid.Space -> t.spaces
  | Oid.Thread -> t.threads

let counter_json (x : counter) =
  Json.Obj
    [
      ("loads", Json.Int x.loads);
      ("loads_with_writeback", Json.Int x.loads_with_writeback);
      ("unloads", Json.Int x.unloads);
      ("writebacks", Json.Int x.writebacks);
      ("stale_lookups", Json.Int x.misses);
      ("discarded", Json.Int x.discarded);
    ]

(** Per-object-kind cache counters plus the flat protocol counters, for the
    machine-readable export alongside {!Metrics.to_json}. *)
let to_json t =
  Json.Obj
    [
      ("kernels", counter_json t.kernels);
      ("spaces", counter_json t.spaces);
      ("threads", counter_json t.threads);
      ("mappings", counter_json t.mappings);
      ("faults_forwarded", Json.Int t.faults_forwarded);
      ("traps_forwarded", Json.Int t.traps_forwarded);
      ("signals_fast", Json.Int t.signals_fast);
      ("signals_slow", Json.Int t.signals_slow);
      ("signals_queued", Json.Int t.signals_queued);
      ("signals_dropped", Json.Int t.signals_dropped);
      ("cow_copies", Json.Int t.cow_copies);
      ("consistency_flushes", Json.Int t.consistency_flushes);
      ("preemptions", Json.Int t.preemptions);
    ]

let pp ppf t =
  let c name (x : counter) =
    Fmt.pf ppf "  %-9s loads=%d (+wb %d) unloads=%d writebacks=%d stale=%d discarded=%d@."
      name x.loads x.loads_with_writeback x.unloads x.writebacks x.misses x.discarded
  in
  c "kernels" t.kernels;
  c "spaces" t.spaces;
  c "threads" t.threads;
  c "mappings" t.mappings;
  Fmt.pf ppf "  faults=%d traps=%d signals(fast=%d slow=%d queued=%d dropped=%d)@."
    t.faults_forwarded t.traps_forwarded t.signals_fast t.signals_slow t.signals_queued
    t.signals_dropped;
  Fmt.pf ppf "  cow=%d consistency-flush=%d preemptions=%d@." t.cow_copies
    t.consistency_flushes t.preemptions
