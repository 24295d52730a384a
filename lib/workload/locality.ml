(* C3: the MP3D page-locality experiment (section 5.2).

   "We measured up to a 25 percent degradation in performance in the MP3D
   program from processors accessing particles scattered across too many
   pages.  The solution with MP3D was to enforce page locality as well as
   cache line locality by copying particles." *)

open Cachekernel

type comparison = {
  scattered : Sim_kernel.Mp3d.report;
  clustered : Sim_kernel.Mp3d.report;
  degradation_percent : float; (* scattered slowdown relative to clustered *)
}

let mp3d_compare ?(particles = 16384) ?(cells = 64) ?(steps = 3) () =
  let run placement =
    let inst = Setup.instance ~cpus:4 () in
    let ak = Setup.first_kernel inst in
    let sim =
      match Sim_kernel.Mp3d.create ak ~particles ~cells ~placement () with
      | Ok s -> s
      | Error e -> Fmt.failwith "mp3d: %a" Api.pp_error e
    in
    Sim_kernel.Mp3d.run sim ~steps ()
  in
  let scattered = run Sim_kernel.Mp3d.Scattered in
  let clustered = run Sim_kernel.Mp3d.Clustered in
  let degradation =
    100.0
    *. (scattered.Sim_kernel.Mp3d.us_per_step -. clustered.Sim_kernel.Mp3d.us_per_step)
    /. clustered.Sim_kernel.Mp3d.us_per_step
  in
  { scattered; clustered; degradation_percent = degradation }

(** Application-controlled paging: run MP3D with a constrained frame pool,
    once with the default Clock replacement and once with the simulation
    kernel's locality-aware victim policy installed; report page-in counts
    (the application avoids "random page faults" by paging out what it is
    not about to process). *)
type paging_comparison = {
  default_page_ins : int;
  app_policy_page_ins : int;
  default_us : float;
  app_policy_us : float;
}

let app_paging_compare ?(particles = 8192) ?(cells = 32) ?(steps = 2) ?(frames = 48) () =
  let run ~use_app_policy =
    let inst = Setup.instance ~cpus:2 () in
    let ak = Setup.first_kernel inst in
    let sim =
      match
        Sim_kernel.Mp3d.create ak ~particles ~cells ~placement:Sim_kernel.Mp3d.Clustered ()
      with
      | Ok s -> s
      | Error e -> Fmt.failwith "mp3d: %a" Api.pp_error e
    in
    if use_app_policy then Sim_kernel.Mp3d.install_locality_aware_eviction sim;
    (* constrain the frame pool after setup so paging is forced *)
    let avail = Aklib.Frame_alloc.available ak.Aklib.App_kernel.frames in
    if avail > frames then
      ignore (Aklib.Frame_alloc.take ak.Aklib.App_kernel.frames (avail - frames));
    let r = Sim_kernel.Mp3d.run sim ~steps ~workers:2 () in
    (r.Sim_kernel.Mp3d.page_ins, r.Sim_kernel.Mp3d.elapsed_us)
  in
  let default_page_ins, default_us = run ~use_app_policy:false in
  let app_policy_page_ins, app_policy_us = run ~use_app_policy:true in
  { default_page_ins; app_policy_page_ins; default_us; app_policy_us }
