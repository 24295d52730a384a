(* The reachability walk behind bin/loc_report's "measured" column.

   Pins which lib modules no `ckos bench` scenario or perfbench workload
   reaches: a module that stops being reached, or one that gets wired
   into a measured path, changes this list on purpose.  The lexer cases
   check that comments and literals name nothing and that opens resolve
   bare names. *)

let reach = lazy (Reach.reachability ~root:"..")

let measured dir name =
  match
    List.find_opt
      (fun ((m : Reach.lib_module), _) -> m.dir = dir && m.name = name)
      (Lazy.force reach)
  with
  | Some (_, r) -> r
  | None -> Alcotest.failf "no lib module %s/%s" dir name

let test_reached () =
  List.iter
    (fun (dir, name) ->
      Alcotest.(check bool) (dir ^ "/" ^ name ^ " is measured") true (measured dir name))
    [ ("lib/aklib", "Segment_mgr"); ("lib/aklib", "Backing_store"); ("lib/hw", "Disk") ]

let test_unreached () =
  let unreached =
    List.filter_map
      (fun ((m : Reach.lib_module), r) -> if r then None else Some (m.dir ^ "/" ^ m.name))
      (Lazy.force reach)
  in
  Alcotest.(check (list string))
    "modules no measured workload reaches"
    [
      "lib/aklib/Dsm"; "lib/aklib/Rpc"; "lib/core/Drivers"; "lib/unix_emu/Sched";
      "lib/unix_emu/Swapper";
    ]
    unreached

let mods =
  List.map
    (fun (dir, lib, name) -> { Reach.dir; lib; name })
    [
      ("lib/aklib", "Aklib", "Dsm"); ("lib/aklib", "Aklib", "Rpc");
      ("lib/aklib", "Aklib", "Segment_mgr"); ("lib/hw", "Hw", "Disk");
    ]

let names src =
  List.sort_uniq compare (List.map (fun (m : Reach.lib_module) -> m.name) (Reach.references mods src))

let test_lexer () =
  let check what want src = Alcotest.(check (list string)) what want (names src) in
  check "comments, strings and chars name nothing" [ "Segment_mgr" ]
    "(* Dsm (* Rpc *) \"*)\" Disk *) let _ = \"Rpc.x\", '\"', 'D', '\\'' in Aklib.Segment_mgr.create";
  check "a bare name needs its library open" [] "let _ = Dsm.create ()";
  check "open resolves bare names" [ "Dsm"; "Rpc" ] "open Aklib let _ = Dsm.create (); Rpc.call";
  check "local open" [ "Disk" ] "let _ = Hw.(Disk.reads d)";
  check "a path's tail is not a module" [ "Segment_mgr" ]
    "open Aklib let _ = Segment_mgr.Disk.x"

let () =
  Alcotest.run "reach"
    [
      ( "walker",
        [
          Alcotest.test_case "measured modules" `Quick test_reached;
          Alcotest.test_case "unreached modules" `Quick test_unreached;
          Alcotest.test_case "references" `Quick test_lexer;
        ] );
    ]
