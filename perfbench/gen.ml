(* Seeded input generators for the three benchmark workloads.

   Everything a workload feeds the simulator is drawn here from one seed:
   Zipf page traces for [pager], process-mix plans for [unix], and load and
   migration schedules for [cluster].  The simulator receives only these
   generated values, so the same seed always yields byte-identical inputs
   ({!digest} is what the self-test compares).  The generator is a local
   splitmix64, independent of the stdlib [Random] implementation. *)

type rng = { mutable s : int64 }

let rng seed = { s = Int64.of_int ((seed * 0x9E3779B1) lxor 0x5bd1e995) }

let next64 r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Non-negative 62-bit draw. *)
let bits r = Int64.to_int (Int64.shift_right_logical (next64 r) 2)

let int r bound = bits r mod bound
let float r = Int64.to_float (Int64.shift_right_logical (next64 r) 11) /. 9007199254740992.0
let range r lo hi = lo + int r (hi - lo + 1)

(** A seeded permutation of [0, n). *)
let permutation r n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(** Inverse-CDF sampler over ranks [0, n) with P(rank k) ~ 1/(k+1)^s. *)
let zipf_cdf ~n ~s =
  let c = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (k + 1)) s);
    c.(k) <- !acc
  done;
  Array.map (fun v -> v /. !acc) c

let zipf_draw cdf r =
  let u = float r in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* -- pager -- *)

(** One address space's access trace: [page.(i)] is the page touched by
    access [i]; [value.(i)] is the word written, or [-1] for a read.  Written
    values are full 62-bit draws, so the 32-bit store truncation is part of
    what the read-back check verifies. *)
type trace = { page : int array; value : int array }

type pager = { traces : trace array }

let pager_trace r ~pages ~accesses ~zipf_s ~write_frac =
  let cdf = zipf_cdf ~n:pages ~s:zipf_s in
  (* hot ranks land on scattered pages, different in every space *)
  let perm = permutation r pages in
  let page = Array.make accesses 0 and value = Array.make accesses (-1) in
  for i = 0 to accesses - 1 do
    page.(i) <- perm.(zipf_draw cdf r);
    if float r < write_frac then value.(i) <- bits r
  done;
  { page; value }

let pager ~seed ~spaces ~pages ~accesses ~zipf_s ~write_frac =
  let r = rng seed in
  { traces = Array.init spaces (fun _ -> pager_trace r ~pages ~accesses ~zipf_s ~write_frac) }

(** The last value written to each page of a trace, if any. *)
let last_writes (t : trace) =
  let h = Hashtbl.create 256 in
  Array.iteri (fun i p -> if t.value.(i) >= 0 then Hashtbl.replace h p t.value.(i)) t.page;
  h

(* -- unix -- *)

(** One child process of a wave.  [steps] is its syscall script, run in
    order; [cow] spawns it copy-on-write from init's data segment. *)
type step =
  | Getpid
  | Getppid
  | Sbrk of int  (** pages *)
  | Touch of int  (** write then read back this many data pages *)
  | File of string  (** creat/write_file/close/open_file/read_file/close *)
  | Pipe of string  (** pipe/write_file/read_file/close/close *)
  | Nap  (** sleep until the next clock tick wakes it *)
  | Yield

type child = { cow : bool; steps : step list; exit_code : int }

type unix = { waves : child array array; init_pages : int }

let unix_child r =
  let n = range r 6 14 in
  let step () =
    match int r 100 with
    | k when k < 18 -> Getpid
    | k when k < 30 -> Getppid
    | k when k < 38 -> Sbrk (range r 1 3)
    | k when k < 52 -> Touch (range r 1 4)
    | k when k < 66 ->
      File (String.init (range r 8 96) (fun _ -> Char.chr (97 + int r 26)))
    | k when k < 78 ->
      Pipe (String.init (range r 4 64) (fun _ -> Char.chr (65 + int r 26)))
    | _ -> Yield
  in
  let steps = List.init n (fun _ -> step ()) in
  (* every child naps once first, so a whole wave is alive at once *)
  let steps = Nap :: steps in
  { cow = int r 100 < 40; steps; exit_code = range r 1 120 }

let unix ~seed ~waves ~per_wave =
  let r = rng seed in
  let waves = Array.init waves (fun _ -> Array.init per_wave (fun _ -> unix_child r)) in
  { waves; init_pages = 4 }

(* -- cluster -- *)

type move = {
  at_us : float;  (** simulated issue time, relative to the run start *)
  src : int;
  dst : int;
  ws_pages : int;  (** dirty working set shipped with the space *)
  fill : int;  (** seed of the page contents *)
}

type cluster = {
  nodes : int;
  load : int array;  (** compute threads per node: skewed, a few hot nodes *)
  moves : move array;  (** ascending [at_us] *)
}

let cluster ~seed ~nodes ~moves ~window_us ~hot_nodes ~victim =
  let r = rng seed in
  (* a fixed multiset of per-node thread counts, hot nodes 6-10 and the
     rest 1-3, so every seed runs the same total load; the seed decides
     only which node gets which count *)
  let load = Array.make nodes 0 in
  Array.iteri
    (fun k i -> load.(i) <- (if k < hot_nodes then 6 + (k mod 5) else 1 + (k mod 3)))
    (permutation r nodes);
  (* Moves are spread the same way for every seed: each node sends and
     receives moves in turn, and the working-set sizes are a fixed
     multiset of 12-32 pages.  The seed decides the pairs, which size goes
     where, and when.  So the fault-latency tail does not swing by seed
     with how many moves happen to land on busy nodes.  The crash victim
     neither sends nor receives: its recovery is measured on its own, not
     through migration recovery. *)
  let others = Array.of_list (List.filter (fun n -> n <> victim) (List.init nodes Fun.id)) in
  let k = Array.length others in
  let order = permutation r k and sizes = permutation r moves in
  let shifts = Array.init ((moves / k) + 1) (fun _ -> 1 + int r (k - 1)) in
  let mv m =
    let s = order.(m mod k) in
    {
      at_us = window_us *. (0.05 +. (0.6 *. float r));
      src = others.(s);
      dst = others.((s + shifts.(m / k)) mod k);
      ws_pages = 12 + (sizes.(m) mod 21);
      fill = bits r;
    }
  in
  let moves = Array.init moves mv in
  Array.stable_sort (fun a b -> compare a.at_us b.at_us) moves;
  { nodes; load; moves }

(** Canonical byte encoding of any generated input (pure data, no
    closures), for the determinism self-test. *)
let digest v = Marshal.to_string v [ Marshal.No_sharing ]
