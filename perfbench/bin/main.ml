(* Benchmark entry point; see perfbench/README.md.

   main.exe --workload W --seed N --seconds S --trace 0|1 [--print-digests]

   Runs passes of the workload's grid for about S seconds (at least two;
   with --trace 1, untraced and traced passes alternate, at least two
   each). With a seed other than the default one, it then runs the
   default seed's spot check (Perfbench.spot_check), untimed, so that
   every run is checked against the committed reference digests. Prints one JSON object as
   the last line of stdout. *)

module P = Perfbench

let workload = ref ""
let seed = ref P.default_seed
let seconds = ref 30.
let trace = ref 0
let scratch = "perfbench/_run"
let reference_file = "perfbench/reference.txt"
let print_digests = ref false

let spec =
  [
    ("--workload", Arg.Set_string workload, "W stamp32, mesh256 or replay");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_float seconds, "S measuring time");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ( "--print-digests",
      Arg.Set print_digests,
      " print every run's digest in reference-file format" );
  ]

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

let json_metric (name, v, unit) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
    (if Float.is_integer v then Printf.sprintf "%.0f" v
     else Printf.sprintf "%.17g" v)
    unit

let () =
  Arg.parse spec (fun a -> die ("unexpected argument " ^ a)) "main.exe";
  if not (List.mem !workload P.names) then
    die ("--workload must be one of " ^ String.concat ", " P.names);
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let wl = P.workload ~seed:!seed !workload in
  if not (Sys.file_exists scratch) then Sys.mkdir scratch 0o755;
  (* The committed reference covers the default seed. Passes at any
     other seed are checked against the run's first pass, and the
     reference by a default-seed spot check at the end: a third of a
     pass, so that a run of the largest grid stays within about a
     minute. *)
  let committed = P.read_reference reference_file !workload in
  if committed = [] then die ("no reference digests for " ^ !workload);
  let reference = ref (if !seed = P.default_seed then committed else []) in
  let on_failure label why =
    Printf.eprintf "perfbench: %s %s: %s\n%!" !workload label why
  in
  let pass traced =
    let p =
      P.run_pass ~reference:!reference ~on_failure ~scratch ~traced
        wl
    in
    if !reference = [] then reference := p.digests;
    let sum = List.fold_left ( +. ) 0. in
    Printf.printf "pass %s wall_s=%.4f cpu_s=%.4f setup_s=%.4f run_s=%.4f failed=%d\n%!"
      (if traced then "traced  " else "untraced") (sum p.run_wall_s)
      (sum p.run_cpu_s) p.setup_s p.run_s p.failed;
    p
  in
  let start = Unix.gettimeofday () in
  let untraced = ref [] and traced = ref [] in
  let min_each = 2 in
  let last = ref 0. in
  (* Keep starting passes while one more still fits in the time box. *)
  while
    List.length !untraced < min_each
    || (!trace = 1 && List.length !traced < min_each)
    || Unix.gettimeofday () -. start +. !last <= !seconds
  do
    let t0 = Unix.gettimeofday () in
    untraced := pass false :: !untraced;
    if !trace = 1 then traced := pass true :: !traced;
    last := Unix.gettimeofday () -. t0
  done;
  let check =
    if !seed = P.default_seed then []
    else
      [
        P.run_pass ~reference:committed ~on_failure ~scratch ~traced:false
          (P.spot_check (P.workload ~seed:P.default_seed !workload));
      ]
  in
  let passes = List.concat [ !untraced; !traced; check ] in
  let attempted = List.fold_left (fun a (p : P.pass) -> a + p.attempted) 0 passes in
  let failed = List.fold_left (fun a (p : P.pass) -> a + p.failed) 0 passes in
  let first = List.hd (List.rev !untraced) in
  if !print_digests then
    List.iter
      (fun (label, d) -> Printf.printf "%s %s %s\n" !workload label d)
      first.digests;
  Printf.printf "perfbench: workload=%s seed=%d passes=%d runs=%d runs_failed=%d\n"
    !workload !seed (List.length passes) attempted failed;
  Printf.printf "perfbench: digest %s seed=%d %s\n" !workload !seed
    (P.grid_digest first);
  let metrics =
    if !trace = 0 then P.end_to_end (List.rev !untraced)
    else P.per_layer ~traced:!traced ~untraced:!untraced
  in
  List.iter
    (fun (n, v, u) -> Printf.printf "  %-30s %16.6g %s\n" n v u)
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", " (List.map json_metric metrics))
