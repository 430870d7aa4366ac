(* The benchmark's own tests. *)

module P = Perfbench

(* The benchmark's grids shrunk for the unit-test suite: three stamp32
   points at a fortieth of the size, and a 8k-cycle replay trace. *)
let tiny ?(seed = P.default_seed) () =
  let closed = P.workload ~seed "stamp32" in
  let replay = P.workload ~seed "replay" in
  let pick = [ "intruder/Baseline/32"; "intruder/LockillerTM/32"; "ssca2/CGL/32" ] in
  let shorten (p : P.point) =
    match p.job with
    | P.Open { gen; body } -> { p with job = P.Open { gen = { gen with duration = 8_000 }; body } }
    | P.Closed _ -> p
  in
  [
    {
      closed with
      scale = 0.025;
      points = List.filter (fun (p : P.point) -> List.mem p.label pick) closed.points;
    };
    { replay with points = List.map shorten replay.points };
  ]

let pass ?reference ~traced wl = P.run_pass ?reference ~scratch:"." ~traced wl

(* The simulated counts a traced pass reports, which must repeat. *)
let counts (p : P.pass) =
  let l = Option.get p.layers in
  ( p.events,
    p.cycles,
    l.minor_words /. float_of_int p.events,
    l.messages,
    l.txs,
    l.trace_records,
    p.digests )

let test_repeatable () =
  List.iter
    (fun wl ->
      (* The first pass in a process allocates a few one-off tables;
         the benchmark's first pass is untraced for the same reason. *)
      let u = pass ~traced:false wl in
      let a = pass ~traced:true wl in
      let b = pass ~traced:true wl in
      Alcotest.(check int) "no failures" 0 (a.failed + b.failed);
      Alcotest.(check bool) (wl.P.name ^ " counts repeat") true (counts a = counts b);
      Alcotest.(check string) "grid digest repeats" (P.grid_digest a) (P.grid_digest b);
      Alcotest.(check (list (pair string string)))
        "tracing changes no result" a.digests u.digests;
      Alcotest.(check int) "tracing changes no event count" a.events u.events)
    (tiny ())

let test_seed_changes_digest () =
  List.iter2
    (fun a b ->
      let da = P.grid_digest (pass ~traced:false a)
      and db = P.grid_digest (pass ~traced:false b) in
      Alcotest.(check bool) (a.P.name ^ " digest depends on the seed") true (da <> db))
    (tiny ()) (tiny ~seed:(P.default_seed + 1) ())

let test_reference () =
  List.iter
    (fun wl ->
      let good = pass ~traced:false wl in
      let ok = pass ~reference:good.digests ~traced:false wl in
      Alcotest.(check int) "matching reference" 0 ok.failed;
      let wrong =
        List.mapi (fun i (l, d) -> if i = 0 then (l, String.make 32 '0') else (l, d)) good.digests
      in
      let bad = pass ~reference:wrong ~traced:false wl in
      Alcotest.(check int) "one wrong digest fails one run" 1 bad.failed;
      Alcotest.(check int) "every run attempted" (List.length wl.P.points) bad.attempted)
    (tiny ())

let test_layers_present () =
  let wls = tiny () in
  let traced = List.map (pass ~traced:true) wls
  and untraced = List.map (pass ~traced:false) wls in
  List.iter2
    (fun t u ->
      let ms = P.per_layer ~traced:[ t ] ~untraced:[ u ] in
      let v name =
        match List.find_opt (fun (n, _, _) -> n = name) ms with
        | Some (_, v, _) -> v
        | None -> Alcotest.failf "missing metric %s" name
      in
      List.iter
        (fun name -> Alcotest.(check bool) (name ^ " > 0") true (v name > 0.))
        [ "engine.run_s"; "engine.events"; "coherence.build_s"; "coherence.check_s";
          "mesh.messages"; "engine.kernel_ns_per_event"; "engine.kernel_share" ];
      match t.P.layers with
      | Some l when l.trace_records > 0 ->
        Alcotest.(check bool) "replay backlog" true (v "runner.max_backlog" > 0.);
        Alcotest.(check (float 0.)) "no oracle on replay" 0. (v "htm.oracle_sections")
      | _ -> Alcotest.(check bool) "oracle ran" true (v "htm.oracle_sections" > 0.))
    traced untraced

let test_spot_check () =
  let wl = P.spot_check (P.workload ~seed:P.default_seed "stamp32") in
  let part i (p : P.point) = List.nth (String.split_on_char '/' p.label) i in
  let count i v = List.length (List.filter (fun p -> part i p = v) wl.points) in
  Alcotest.(check int) "one point per app" 9 (List.length wl.points);
  List.iter
    (fun (a : Lockiller.Stamp.Workload.profile) ->
      Alcotest.(check int) (a.name ^ " once") 1 (count 0 a.name))
    Lockiller.Stamp.Suite.all;
  List.iter
    (fun s -> Alcotest.(check int) (s ^ " thrice") 3 (count 1 s))
    [ "CGL"; "Baseline"; "LockillerTM" ];
  Alcotest.(check int) "replay kept whole" 1
    (List.length (P.spot_check (P.workload ~seed:P.default_seed "replay")).points)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "traced passes repeat" `Quick test_repeatable;
          Alcotest.test_case "seed changes digest" `Quick test_seed_changes_digest;
          Alcotest.test_case "wrong reference fails runs" `Quick test_reference;
          Alcotest.test_case "per-layer metrics present" `Quick test_layers_present;
          Alcotest.test_case "spot check covers apps and systems" `Quick test_spot_check;
        ] );
    ]
