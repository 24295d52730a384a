(* The MP3D wind-tunnel simulation kernel (sections 3, 5.2), runnable with
   either particle placement policy.

   Run with: dune exec examples/mp3d_run.exe -- --particles 16384 --both *)

open Cmdliner

let run particles cells steps placement both paging =
  let run_one placement =
    let inst = Workload.Setup.instance ~cpus:4 () in
    let ak = Workload.Setup.first_kernel inst in
    let sim =
      match Sim_kernel.Mp3d.create ak ~particles ~cells ~placement () with
      | Ok s -> s
      | Error e -> Fmt.failwith "mp3d: %a" Cachekernel.Api.pp_error e
    in
    let r = Sim_kernel.Mp3d.run sim ~steps () in
    Fmt.pr "%a@." Sim_kernel.Mp3d.pp_report r;
    r
  in
  if both then begin
    let s = run_one Sim_kernel.Mp3d.Scattered in
    let c = run_one Sim_kernel.Mp3d.Clustered in
    Fmt.pr "degradation from scattering: %.1f%% (paper: up to 25%%)@."
      (100.0
      *. (s.Sim_kernel.Mp3d.us_per_step -. c.Sim_kernel.Mp3d.us_per_step)
      /. c.Sim_kernel.Mp3d.us_per_step)
  end
  else
    ignore
      (run_one
         (match placement with
         | "scattered" -> Sim_kernel.Mp3d.Scattered
         | _ -> Sim_kernel.Mp3d.Clustered));
  if paging then begin
    Fmt.pr "@.application-controlled paging (constrained frames):@.";
    let p = Workload.Locality.app_paging_compare ~particles:(min particles 8192) () in
    Fmt.pr "  Clock: %d page-ins (%.0f us); app policy: %d page-ins (%.0f us)@."
      p.Workload.Locality.default_page_ins p.Workload.Locality.default_us
      p.Workload.Locality.app_policy_page_ins p.Workload.Locality.app_policy_us
  end

let particles =
  Arg.(value & opt int 16384 & info [ "particles" ] ~doc:"Number of particles.")

let cells = Arg.(value & opt int 64 & info [ "cells" ] ~doc:"Number of grid cells.")
let steps = Arg.(value & opt int 3 & info [ "steps" ] ~doc:"Simulation steps.")

let placement =
  Arg.(
    value
    & opt (enum [ ("scattered", "scattered"); ("clustered", "clustered") ]) "clustered"
    & info [ "placement" ] ~doc:"Particle placement policy.")

let both =
  Arg.(value & flag & info [ "both" ] ~doc:"Run both placements and report degradation.")

let paging =
  Arg.(
    value & flag
    & info [ "paging" ] ~doc:"Also run the application-controlled paging comparison.")

let cmd =
  Cmd.v
    (Cmd.info "mp3d_run" ~doc:"MP3D particle-in-cell simulation on the Cache Kernel")
    Term.(const run $ particles $ cells $ steps $ placement $ both $ paging)

let () = Stdlib.exit (Cmd.eval cmd)
