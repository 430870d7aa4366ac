(* Tests of the simulation harness: machine configs, metrics, report
   rendering, the runner's metric collection and the experiment
   definitions (exercised on a small machine so they stay fast). *)

module Config = Lk_sim.Config
module Runner = Lk_sim.Runner
module Metrics = Lk_sim.Metrics
module Report = Lk_sim.Report
module Experiments = Lk_sim.Experiments
module Sysconf = Lk_lockiller.Sysconf
module Suite = Lk_stamp.Suite
module Workload = Lk_stamp.Workload
module Reason = Lk_htm.Reason
module Accounting = Lk_cpu.Accounting
module Protocol = Lk_coherence.Protocol
module Json = Lk_sim.Json
module Pool = Lk_sim.Pool
module Cache = Lk_sim.Cache

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_float = check (Alcotest.float 0.0001)

(* --- Config ------------------------------------------------------------ *)

let test_machine_defaults () =
  let m = Config.machine () in
  check_int "32 cores" 32 m.Config.cores;
  check_int "4 rows" 4 m.Config.rows;
  check_int "8 cols" 8 m.Config.cols;
  check_int "32KB L1" (32 * 1024) m.Config.protocol.Protocol.l1_size;
  check_int "8MB LLC" (8 * 1024 * 1024) m.Config.protocol.Protocol.llc_size

let test_machine_cache_profiles () =
  let small = Config.machine ~cache:Config.Small () in
  check_int "8KB L1" (8 * 1024) small.Config.protocol.Protocol.l1_size;
  check_int "1MB LLC" (1024 * 1024) small.Config.protocol.Protocol.llc_size;
  let large = Config.machine ~cache:Config.Large () in
  check_int "128KB L1" (128 * 1024) large.Config.protocol.Protocol.l1_size;
  check_int "32MB LLC" (32 * 1024 * 1024)
    large.Config.protocol.Protocol.llc_size

let test_machine_small_meshes () =
  List.iter
    (fun (cores, rows, cols) ->
      let m = Config.machine ~cores () in
      check_int "rows" rows m.Config.rows;
      check_int "cols" cols m.Config.cols)
    [ (2, 1, 2); (4, 2, 2); (8, 2, 4); (16, 4, 4) ]

let test_machine_rejects_odd_core_counts () =
  (* Formerly rejected; the general factorisation gives primes a 1xN
     chain. *)
  let m = Config.machine ~cores:3 () in
  check_int "3 cores rows" 1 m.Config.rows;
  check_int "3 cores cols" 3 m.Config.cols;
  Alcotest.check_raises "0 cores"
    (Invalid_argument
       "Config.machine: unsupported core count 0 (supported: 1-1024)")
    (fun () -> ignore (Config.machine ~cores:0 ()));
  Alcotest.check_raises "1025 cores"
    (Invalid_argument
       "Config.machine: unsupported core count 1025 (supported: 1-1024)")
    (fun () -> ignore (Config.machine ~cores:1025 ()))

let test_table1_rows () =
  let m = Config.machine () in
  let rows = Config.table1 m in
  check_int "eleven rows" 11 (List.length rows);
  check_bool "mentions mesh" true
    (List.exists (fun (k, _) -> k = "Topology and Routing") rows)

let test_build () =
  let m = Config.machine ~cores:4 () in
  let _sim, net, proto = Config.build m in
  check_int "tiles" 4
    (Lk_mesh.Topology.tiles (Lk_mesh.Network.topology net));
  check_int "cores" 4 (Protocol.config proto).Protocol.cores

let test_build_non_divisor_llc () =
  (* 100 directory banks do not divide the 8MB LLC evenly; the bank
     size must round down to whole sets instead of being rejected. *)
  let m = Config.machine ~cores:100 () in
  let _sim, _net, proto = Config.build m in
  check_int "cores" 100 (Protocol.config proto).Protocol.cores

let test_mesh_shape_general () =
  (* Spot-check the nearest-square factorisation, including the shapes
     the old hard-coded table produced (2..64 must not change: cached
     results key on the mesh shape via the machine id). *)
  List.iter
    (fun (cores, rows, cols) ->
      let r, c = Config.mesh_shape cores in
      check_int (string_of_int cores ^ " rows") rows r;
      check_int (string_of_int cores ^ " cols") cols c)
    [
      (1, 1, 1); (2, 1, 2); (4, 2, 2); (6, 2, 3); (7, 1, 7); (12, 3, 4);
      (32, 4, 8); (36, 6, 6); (100, 10, 10); (256, 16, 16); (768, 24, 32);
      (1024, 32, 32);
    ];
  for n = 1 to 128 do
    let r, c = Config.mesh_shape n in
    check_int "rows*cols = cores" n (r * c);
    check_bool "rows <= cols" true (r <= c)
  done;
  Alcotest.check_raises "out of range"
    (Invalid_argument
       "Config.machine: unsupported core count 1025 (supported: 1-1024)")
    (fun () -> ignore (Config.mesh_shape 1025))

(* --- Metrics ------------------------------------------------------------ *)

let test_speedup () =
  check_float "2x" 2.0 (Metrics.speedup ~baseline_cycles:100 ~cycles:50);
  check_float "0.5x" 0.5 (Metrics.speedup ~baseline_cycles:50 ~cycles:100);
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Metrics.speedup: cycle counts must be positive")
    (fun () -> ignore (Metrics.speedup ~baseline_cycles:0 ~cycles:1))

let test_geomean () =
  check_float "of [2;8]" 4.0 (Metrics.geomean [ 2.0; 8.0 ]);
  check_float "empty" 1.0 (Metrics.geomean []);
  check_float "singleton" 3.0 (Metrics.geomean [ 3.0 ]);
  Alcotest.check_raises "non-positive rejected"
    (Invalid_argument "Metrics.geomean: non-positive value") (fun () ->
      ignore (Metrics.geomean [ 1.0; 0.0 ]))

let check_float_opt msg expected got =
  Alcotest.(check (option (float 1e-9))) msg expected got

let test_mean_max () =
  check_float "mean" 2.0 (Metrics.mean [ 1.0; 2.0; 3.0 ]);
  check_float "mean empty" 0.0 (Metrics.mean []);
  check_float_opt "max" (Some 3.0) (Metrics.max_of [ 1.0; 3.0; 2.0 ]);
  check_float_opt "min" (Some 1.0) (Metrics.min_of [ 1.0; 3.0; 2.0 ]);
  check_float_opt "max empty" None (Metrics.max_of []);
  check_float_opt "min empty" None (Metrics.min_of []);
  check_float_opt "max singleton" (Some 7.0) (Metrics.max_of [ 7.0 ]);
  check_float_opt "min singleton" (Some 7.0) (Metrics.min_of [ 7.0 ]);
  check_float "pct" 50.0 (Metrics.pct 0.5)

let prop_geomean_between_min_max =
  QCheck.Test.make ~name:"geomean lies between min and max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 10) (float_range 0.1 100.0))
    (fun xs ->
      let g = Metrics.geomean xs in
      let mn = List.fold_left min (List.hd xs) xs in
      let mx = List.fold_left max (List.hd xs) xs in
      g >= mn -. 1e-9 && g <= mx +. 1e-9)

(* --- Report ------------------------------------------------------------- *)

let string_contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_report_render () =
  let t =
    Report.table ~title:"T" ~headers:[ "a"; "bbbb" ]
      [ [ "x"; "y" ]; [ "longer"; "z" ] ]
      ~notes:[ "note" ]
  in
  let s = Format.asprintf "%a" Report.pp_table t in
  check_bool "has title" true (string_contains s "== T ==");
  check_bool "has cell" true (string_contains s "longer");
  check_bool "has note" true (string_contains s "note")

let test_report_csv () =
  let t =
    Report.table ~title:"Fig 7: speedup over CGL, 2 threads"
      ~headers:[ "workload"; "speed,up" ]
      [ [ "a"; "1.0" ]; [ "with \"quote\""; "2.0" ] ]
  in
  let csv = Report.to_csv t in
  check_bool "quoted comma header" true (string_contains csv "\"speed,up\"");
  check_bool "quoted quote" true (string_contains csv "\"with \"\"quote\"\"\"");
  check_bool "filename" true
    (Report.csv_filename t = "fig_7_speedup_over_cgl_2_threads.csv")

(* --- Cli ----------------------------------------------------------------- *)

let test_cli_cores () =
  (match Lk_sim.Cli.cores ~what:"--cores" "256" with
  | Ok n -> check_int "parses" 256 n
  | Error e -> Alcotest.fail e);
  (match Lk_sim.Cli.cores ~what:"--cores" "1025" with
  | Error e -> check_bool "error names the range" true (string_contains e "1-1024")
  | Ok _ -> Alcotest.fail "1025 accepted");
  (match Lk_sim.Cli.cores ~what:"--cores" "0" with
  | Error e -> check_bool "error names the flag" true (string_contains e "--cores")
  | Ok _ -> Alcotest.fail "0 accepted");
  match Lk_sim.Cli.cores ~what:"--cores" "many" with
  | Error e -> check_bool "non-integer rejected" true (string_contains e "integer")
  | Ok _ -> Alcotest.fail "junk accepted"

(* --- Runner -------------------------------------------------------------- *)

let quick_machine = Config.machine ~cores:4 ()

(* Scaled-down options for fast runs; [machine_options] keeps the
   default scale. *)
let machine_options = { Runner.default_options with machine = quick_machine }
let quick_options = { machine_options with scale = 0.25 }

let quick_run ?(sysconf = Sysconf.lockiller) ?(threads = 4) workload_name =
  let workload = Option.get (Suite.find workload_name) in
  Runner.run ~options:quick_options ~sysconf ~workload ~threads ()

let test_runner_basic_metrics () =
  let r = quick_run "intruder" in
  check_bool "cycles positive" true (r.Runner.cycles > 0);
  check_bool "commit rate in [0;1]" true
    (r.Runner.commit_rate >= 0.0 && r.Runner.commit_rate <= 1.0);
  check_int "threads recorded" 4 r.Runner.threads;
  check_bool "some commits" true
    (r.Runner.htm_commits + r.Runner.stl_commits + r.Runner.lock_commits > 0);
  check_bool "network traffic" true (r.Runner.network_messages > 0)

let test_runner_breakdown_covers_all_categories () =
  let r = quick_run "genome" in
  check_int "8 categories" 8 (List.length r.Runner.breakdown);
  List.iter
    (fun (_, n) -> check_bool "non-negative" true (n >= 0))
    r.Runner.breakdown

let test_runner_abort_mix_paper_order () =
  let r = quick_run "yada" in
  Alcotest.(check (list string))
    "order" [ "mc"; "lock"; "mutex"; "non_tran"; "of"; "fault"; "valid" ]
    (List.map (fun (reason, _) -> Reason.label reason) r.Runner.abort_mix)

let test_runner_deterministic () =
  let a = quick_run "kmeans+" and b = quick_run "kmeans+" in
  check_int "same cycles" a.Runner.cycles b.Runner.cycles;
  check_int "same aborts" a.Runner.aborts b.Runner.aborts

let test_runner_seed_changes_outcome () =
  let workload = Option.get (Suite.find "kmeans+") in
  let a =
    Runner.run
      ~options:{ quick_options with seed = 1 }
      ~sysconf:Sysconf.baseline ~workload ~threads:4 ()
  in
  let b =
    Runner.run
      ~options:{ quick_options with seed = 2 }
      ~sysconf:Sysconf.baseline ~workload ~threads:4 ()
  in
  check_bool "different cycles" true (a.Runner.cycles <> b.Runner.cycles)

let test_runner_thread_bounds () =
  let workload = Option.get (Suite.find "ssca2") in
  Alcotest.check_raises "too many threads"
    (Invalid_argument "Runner.run: thread count out of range") (fun () ->
      ignore
        (Runner.run ~options:machine_options ~sysconf:Sysconf.cgl ~workload
           ~threads:5 ()))

let test_abort_fraction () =
  let r = quick_run ~sysconf:Sysconf.baseline "yada" in
  let total =
    List.fold_left (fun acc reason -> acc +. Runner.abort_fraction r reason)
      0.0 Reason.all
  in
  if r.Runner.aborts > 0 then
    check (Alcotest.float 0.001) "fractions sum to 1" 1.0 total
  else check (Alcotest.float 0.001) "no aborts" 0.0 total

let test_runner_fault_survival_in_lock_modes () =
  (* yada under full LockillerTM: all faults in TL/STL survive, so the
     only fault aborts are from HTM attempts *)
  let r = quick_run ~sysconf:Sysconf.lockiller "yada" in
  check_bool "completed" true (r.Runner.cycles > 0)

let test_placement_spread () =
  let workload = Option.get (Suite.find "intruder") in
  let compact =
    Runner.run
      ~options:{ quick_options with placement = Runner.Compact }
      ~sysconf:Sysconf.baseline ~workload ~threads:2 ()
  in
  let spread =
    Runner.run
      ~options:{ quick_options with placement = Runner.Spread }
      ~sysconf:Sysconf.baseline ~workload ~threads:2 ()
  in
  (* both complete and conserve (asserted inside run); timings differ
     because the threads sit on different tiles *)
  check_bool "placements differ in timing" true
    (compact.Runner.cycles <> spread.Runner.cycles)

let test_avg_attempts_metric () =
  let r = quick_run ~sysconf:Sysconf.baseline "kmeans+" in
  if r.Runner.htm_commits > 0 then
    check_bool "attempts >= 1 per commit" true
      (r.Runner.avg_attempts_per_commit >= 1.0)

let test_cycle_limit_guard () =
  let workload = Option.get (Suite.find "ssca2") in
  check_bool "tiny limit trips the guard" true
    (match
       Runner.run
         ~options:{ machine_options with cycle_limit = 50 }
         ~sysconf:Sysconf.cgl ~workload ~threads:2 ()
     with
    | exception Failure _ -> true
    | _ -> false)

let test_run_program () =
  let program =
    [|
      [
        {
          Lk_cpu.Program.pre_compute = 5;
          ops = [ Lk_cpu.Program.Incr (64 * 16) ];
          post_compute = 5;
        };
      ];
      [
        {
          Lk_cpu.Program.pre_compute = 5;
          ops = [ Lk_cpu.Program.Incr (64 * 16) ];
          post_compute = 5;
        };
      ];
    |]
  in
  let r =
    Runner.run_program ~options:machine_options ~name:"two-incr"
      ~sysconf:Sysconf.lockiller ~program ()
  in
  check_int "threads from program" 2 r.Runner.threads;
  check_bool "named" true (r.Runner.workload = "two-incr");
  check_bool "oracle ran" true (r.Runner.oracle_sections >= 2)

let test_run_program_rejects_lock_collision () =
  let program =
    [|
      [
        {
          Lk_cpu.Program.pre_compute = 0;
          ops = [ Lk_cpu.Program.Incr 0 ];
          post_compute = 0;
        };
      ];
    |]
  in
  check_bool "lock-line address rejected" true
    (match
       Runner.run_program ~options:machine_options ~sysconf:Sysconf.cgl
         ~program ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Experiments --------------------------------------------------------- *)

let quick_ctx () =
  Experiments.make_context ~scale:0.2 ~cores:4 ~threads:[ 2; 4 ] ()

let test_context_thread_filter () =
  let ctx = Experiments.make_context ~cores:4 ~threads:[ 2; 4; 8; 16 ] () in
  Alcotest.(check (list int)) "filtered" [ 2; 4 ] (Experiments.thread_counts ctx)

let test_experiment_ids_unique () =
  let ids = List.map (fun e -> e.Experiments.id) Experiments.all in
  check_int "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_experiment_find () =
  check_bool "fig7" true (Experiments.find "FIG7" <> None);
  check_bool "unknown" true (Experiments.find "fig99" = None)

let test_result_memoised () =
  let ctx = quick_ctx () in
  let w = Option.get (Suite.find "kmeans") in
  let a = Experiments.result ctx ~sysconf:Sysconf.baseline ~workload:w ~threads:2 () in
  let b = Experiments.result ctx ~sysconf:Sysconf.baseline ~workload:w ~threads:2 () in
  check_bool "same physical result" true (a == b)

let test_speedup_vs_cgl_positive () =
  let ctx = quick_ctx () in
  let w = Option.get (Suite.find "ssca2") in
  let s =
    Experiments.speedup_vs_cgl ctx ~sysconf:Sysconf.lockiller ~workload:w
      ~threads:4 ()
  in
  check_bool "positive" true (s > 0.0)

let test_quick_experiments_render () =
  (* The cheap experiments render real tables on a 4-core machine. *)
  let ctx = quick_ctx () in
  List.iter
    (fun e ->
      let tables = e.Experiments.render ctx in
      check_bool (e.Experiments.id ^ " renders tables") true (tables <> []);
      List.iter
        (fun t ->
          check_bool
            (e.Experiments.id ^ " has rows")
            true
            (t.Report.rows <> []))
        tables)
    [ Experiments.table1; Experiments.table2; Experiments.fig1 ]

let test_fig10_renders_on_small_machine () =
  let ctx = quick_ctx () in
  let tables = Experiments.fig10.Experiments.render ctx in
  check_int "one table" 1 (List.length tables);
  (* 9 workloads x 3 systems *)
  check_int "27 rows" 27 (List.length (List.hd tables).Report.rows)

(* --- JSON results API ----------------------------------------------------- *)

let sample_result () =
  let w = Option.get (Suite.find "intruder") in
  Runner.run
    ~options:
      {
        Runner.default_options with
        scale = 0.1;
        machine = Config.machine ~cores:4 ();
      }
    ~sysconf:Sysconf.lockiller ~workload:w ~threads:4 ()

let test_result_json_roundtrip () =
  let r = sample_result () in
  match Runner.result_of_json (Runner.result_to_json r) with
  | Error msg -> Alcotest.fail msg
  | Ok r' -> check_bool "structurally equal" true (r = r')

let test_result_json_fields () =
  (* Every result field appears as a member, floats exactly. *)
  match Json.of_string (Runner.result_to_json (sample_result ())) with
  | Error msg -> Alcotest.fail msg
  | Ok (Json.Obj members) ->
    List.iter
      (fun field ->
        check_bool (field ^ " present") true (List.mem_assoc field members))
      [
        "system"; "workload"; "threads"; "cache"; "cycles"; "commit_rate";
        "htm_commits"; "stl_commits"; "lock_commits"; "sw_commits"; "aborts";
        "abort_mix"; "breakdown"; "rejects"; "parks"; "wakeups";
        "switches_granted"; "switches_denied"; "spilled_lines";
        "clock_advances"; "watchdog_rescues"; "network_messages";
        "network_flits"; "oracle_sections"; "avg_attempts_per_commit";
      ]
  | Ok _ -> Alcotest.fail "expected a JSON object"

let test_result_json_rejects_garbage () =
  check_bool "truncated" true
    (Result.is_error (Runner.result_of_json "{\"system\":"));
  check_bool "wrong shape" true (Result.is_error (Runner.result_of_json "[]"));
  (* The reader is strict JSON: a [\u] escape takes exactly four hex
     digits (no OCaml [_] separators) and numbers carry no leading
     zeros. *)
  let rejects what input offset =
    match Json.of_string input with
    | Ok _ -> Alcotest.failf "%s accepted: %s" what input
    | Error msg ->
      check_bool (what ^ " offset") true
        (string_contains msg ("at offset " ^ string_of_int offset ^ ":"))
  in
  rejects "underscore in \\u" {|{"a":"\u1_23"}|} 8;
  rejects "leading zero" {|{"b":007}|} 5;
  rejects "negative leading zero" {|[-01]|} 1;
  (* RFC 8259 number grammar: an integer part before any fraction, and
     at least one digit after a decimal point or an exponent marker. *)
  rejects "no integer part" "-.5" 1;
  rejects "bare decimal point" "1." 2;
  rejects "empty fraction before exponent" "1.e5" 2;
  rejects "negative bare decimal point" "-1." 3;
  rejects "zero, empty fraction" "0.e1" 2;
  rejects "negative, no integer part" "-.0" 1;
  List.iter
    (fun input ->
      check_bool (input ^ " accepted") true (Result.is_ok (Json.of_string input)))
    [ "0"; "-0"; "0.5"; "-0.5"; "10"; {|"\u00e9"|}; "1e5"; "1E+2"; "-0.5e-3" ]

let test_json_float_roundtrip () =
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') ->
        check_bool (string_of_float f ^ " exact") true (f = f')
      | _ -> Alcotest.fail "float did not round-trip")
    [ 0.1; 1.0; 1.85; 3.0e22; -0.0070000000000000001 ]

let test_report_to_json () =
  let t =
    Report.table ~title:"T" ~headers:[ "a"; "b" ]
      ~notes:[ "n" ]
      [ [ "1"; "2" ]; [ "3"; "4" ] ]
  in
  match Json.of_string (Report.to_json t) with
  | Ok (Json.Obj members) ->
    check_bool "title" true
      (List.assoc "title" members = Json.String "T");
    check_bool "rows" true
      (List.assoc "rows" members
      = Json.List
          [
            Json.List [ Json.String "1"; Json.String "2" ];
            Json.List [ Json.String "3"; Json.String "4" ];
          ])
  | _ -> Alcotest.fail "table did not parse"

(* --- Ledger / Tracing ------------------------------------------------------ *)

module Tracing = Lk_sim.Tracing
module Ledger = Lk_engine.Ledger
module Runtime = Lk_lockiller.Runtime

(* One observed run: LockillerTM on a small machine with the event
   ledger on (capacity ample enough that nothing is dropped). Intruder
   at this scale is contended enough to produce aborts, rejects and
   parks while staying fast. *)
let run_observed ?(sysconf = Sysconf.lockiller) ?(workload = "intruder")
    ?(threads = 4) ?(queue_backend = Lk_engine.Event_queue.Wheel) () =
  let w = Option.get (Suite.find workload) in
  let handle = ref None in
  let r =
    Runner.run
      ~options:
        {
          Runner.default_options with
          scale = 0.2;
          machine = Config.machine ~cores:4 ();
          queue_backend;
          on_runtime =
            (fun rt ->
              ignore (Runtime.enable_ledger ~capacity:(1 lsl 18) rt);
              handle := Some rt);
        }
      ~sysconf ~workload:w ~threads ()
  in
  let rt = Option.get !handle in
  (r, rt, Option.get (Runtime.ledger rt))

let run_with_ledger ?sysconf ?threads ?queue_backend () =
  let r, _, l = run_observed ?sysconf ?threads ?queue_backend () in
  (r, l)

let test_ledger_breakdown_matches_stats () =
  let r, l = run_with_ledger () in
  check_int "nothing dropped" 0 (Ledger.dropped l);
  let b = Tracing.abort_breakdown l in
  check_int "aborts" r.Runner.aborts b.Tracing.aborts;
  List.iter2
    (fun (reason, expected) (reason', got) ->
      check_bool "reason order" true (reason = reason');
      check_int (Reason.label reason) expected got)
    r.Runner.abort_mix b.Tracing.by_reason;
  check_int "rejects" r.Runner.rejects b.Tracing.rejects;
  check_int "parks" r.Runner.parks b.Tracing.parks;
  check_int "wakes" r.Runner.wakeups b.Tracing.wakes;
  (* Commit events pair off with the runner's commit counters too. *)
  let commits = ref 0 in
  Ledger.iter l (fun ~time:_ ~core:_ ~kind ~arg:_ ->
      if kind = Ledger.Tx_commit then incr commits);
  check_int "commits" r.Runner.htm_commits !commits;
  (* [Runtime.count] is the runtime's one record path: for every kind
     it emits, the count equals the ledger's records of that kind, and
     the result fields read from the counts agree with the stream.
     Besides the contended intruder run, a switching run (spills,
     switch decisions) and a hybrid run (software path, clock
     advances). *)
  let emitted_elsewhere =
    [ Ledger.Nack; Ledger.Abort_kill; Ledger.Spec_publish; Ledger.Spec_discard ]
  in
  List.iter
    (fun (sysconf, workload) ->
      let r, rt, l = run_observed ~sysconf ~workload () in
      let what = sysconf.Sysconf.name ^ "/" ^ workload in
      check_int (what ^ " nothing dropped") 0 (Ledger.dropped l);
      let per_kind = Array.make (List.length Ledger.kinds) 0 in
      Ledger.iter l (fun ~time:_ ~core:_ ~kind ~arg:_ ->
          let i = Ledger.kind_code kind in
          per_kind.(i) <- per_kind.(i) + 1);
      let records kind = per_kind.(Ledger.kind_code kind) in
      List.iter
        (fun kind ->
          let expected =
            if List.mem kind emitted_elsewhere then 0 else records kind
          in
          check_int
            (what ^ " count " ^ Ledger.kind_label kind)
            expected (Runtime.count rt kind))
        Ledger.kinds;
      check_int (what ^ " wakeups") (records Ledger.Wake) r.Runner.wakeups;
      check_int (what ^ " switches_granted")
        (records Ledger.Switch_granted) r.Runner.switches_granted;
      check_int (what ^ " switches_denied")
        (records Ledger.Switch_denied) r.Runner.switches_denied;
      check_int (what ^ " spilled_lines") (records Ledger.Spill)
        r.Runner.spilled_lines;
      check_int (what ^ " clock_advances")
        (records Ledger.Clock_advance) r.Runner.clock_advances)
    [
      (Sysconf.lockiller, "intruder");
      (Sysconf.lockiller, "labyrinth");
      (Sysconf.hytm_gv1, "intruder");
    ]

let test_lifecycle_labels () =
  (* One hand-built record of every kind through the [trace] listing's
     decoder: every kind has a label, in the "%10d  core %2d  <label>"
     line format. *)
  let l = Ledger.create (Lk_engine.Sim.create ()) in
  let emit core kind arg = Ledger.emit l ~core kind ~arg in
  let mc = Reason.index Reason.Conflict_htm in
  emit 0 Ledger.Tx_begin 0;
  emit 0 Ledger.Tx_commit 1;
  emit 1 Ledger.Tx_abort (Ledger.pack_abort ~reason:mc ~who:2 ~age:40);
  emit 1 Ledger.Nack (Ledger.pack_attr ~who:(-1) ~age:5);
  emit 1 Ledger.Reject (Ledger.pack_attr ~who:2 ~age:5);
  emit 3 Ledger.Abort_kill (Ledger.pack_attr ~who:12 ~age:9);
  emit 1 Ledger.Park 0;
  emit 1 Ledger.Wake 0;
  emit 2 Ledger.Lock_acquire 0;
  emit 2 Ledger.Lock_release 0;
  emit 2 Ledger.Hl_begin 0;
  emit 2 Ledger.Hl_end 1;
  emit 2 Ledger.Hl_end 0;
  emit 0 Ledger.Switch_granted 0;
  emit 0 Ledger.Switch_denied 0;
  emit 0 Ledger.Spill 77;
  emit 0 Ledger.Spec_publish 3;
  emit 1 Ledger.Spec_discard (Ledger.pack_discard ~writes:4 ~age:10);
  emit 1 Ledger.Sw_begin 6;
  emit 1 Ledger.Sw_commit 8;
  emit 1 Ledger.Sw_abort
    (Ledger.pack_abort ~reason:(Reason.index Reason.Validation) ~who:(-1)
       ~age:3);
  emit 1 Ledger.Clock_advance 8;
  let kinds = List.map (fun e -> e.Ledger.kind) (Ledger.entries l) in
  List.iter
    (fun k ->
      check_bool (Ledger.kind_label k ^ " covered") true (List.mem k kinds))
    Ledger.kinds;
  let line core label = Printf.sprintf "%10d  core %2d  %s" 0 core label in
  let expected =
    [
      line 0 "xbegin"; line 0 "commit"; line 1 "abort:mc";
      line 1 "nack(by llc)"; line 1 "rejected(by 2)"; line 3 "killed(by 12)";
      line 1 "parked"; line 1 "woken"; line 2 "lock-acquired";
      line 2 "lock-released"; line 2 "hlbegin"; line 2 "hlend(stl)";
      line 2 "hlend(tl)"; line 0 "switch-granted"; line 0 "switch-denied";
      line 0 "spill(line 77)"; line 0 "publish(3 writes)";
      line 1 "discard(4 writes)"; line 1 "swbegin(rv 6)";
      line 1 "swcommit(wt 8)"; line 1 "swabort:valid"; line 1 "clock(8)";
    ]
  in
  let listing ?limit () =
    Format.asprintf "%a" (Tracing.pp_lifecycle ?limit) l
    |> String.split_on_char '\n'
    |> List.filter (fun s -> s <> "")
  in
  Alcotest.(check (list string)) "decoded lines" expected (listing ());
  Alcotest.(check (list string))
    "last two" [ line 1 "swabort:valid"; line 1 "clock(8)" ]
    (listing ~limit:2 ())

let test_ledger_backend_differential () =
  (* The ledger is a total order over observable events, so it is a
     stronger differential axis than aggregate results: both event
     queue backends must produce byte-identical streams. *)
  let dump l = Format.asprintf "%a" (Ledger.dump ?limit:None) l in
  let _, wheel = run_with_ledger ~queue_backend:Lk_engine.Event_queue.Wheel ()
  and _, heap = run_with_ledger ~queue_backend:Lk_engine.Event_queue.Heap () in
  check_bool "non-trivial stream" true (Ledger.length wheel > 100);
  check Alcotest.string "byte-identical dumps" (dump wheel) (dump heap)

let test_ledger_jobs_differential () =
  (* Each pool job builds its own simulator and ledger, so the event
     stream must not depend on how many domains ran the grid. *)
  let grid =
    Array.of_list
      [ (Sysconf.lockiller, 2); (Sysconf.lockiller, 4);
        (Sysconf.baseline, 2); (Sysconf.baseline, 4) ]
  in
  let dump_of (sysconf, threads) =
    let _, l = run_with_ledger ~sysconf ~threads () in
    Format.asprintf "%a" (Ledger.dump ?limit:None) l
  in
  let seq = Pool.map ~jobs:1 dump_of grid in
  let par = Pool.map ~jobs:4 dump_of grid in
  check_bool "identical event streams" true (seq = par)

let test_perfetto_export_wellformed () =
  let r, l = run_with_ledger () in
  match Tracing.perfetto_json l with
  | Json.Obj [ ("traceEvents", Json.List events) ] ->
    check_bool "has events" true (List.length events > 0);
    (* Every event carries the mandatory members; slices have
       non-negative durations; abort slices are tagged with a reason
       and count exactly the runner's aborts. *)
    let aborts = ref 0 in
    List.iter
      (fun e ->
        let member name =
          match Json.member name e with
          | Ok v -> v
          | Error m -> Alcotest.fail m
        in
        let name =
          match Json.to_str (member "name") with
          | Ok s -> s
          | Error m -> Alcotest.fail m
        in
        match Json.to_str (member "ph") with
        | Ok "X" ->
          (match Json.to_int (member "dur") with
          | Ok d -> check_bool "dur >= 0" true (d >= 0)
          | Error m -> Alcotest.fail m);
          if String.length name > 6 && String.sub name 0 6 = "abort:" then begin
            incr aborts;
            match Json.member "args" e with
            | Ok (Json.Obj args) ->
              check_bool "reason tag" true (List.mem_assoc "reason" args)
            | Ok _ | Error _ -> Alcotest.fail "abort slice without args"
          end
        | Ok _ -> ()
        | Error m -> Alcotest.fail m)
      events;
    check_int "abort slices" r.Runner.aborts !aborts
  | _ -> Alcotest.fail "expected {\"traceEvents\": [...]}"

(* --- Causal profile --------------------------------------------------------- *)

module Profile = Lk_sim.Profile

(* One profiled run: the streaming tap and the retained ring observe
   the same events, so the tap-fed profile and a post-hoc fold of the
   ledger must agree exactly (when nothing wrapped). *)
let run_with_profile ?(capacity = 1 lsl 18) () =
  let w = Option.get (Suite.find "intruder") in
  let state = ref None in
  let r =
    Runner.run
      ~options:
        {
          Runner.default_options with
          scale = 0.2;
          machine = Config.machine ~cores:4 ();
          on_runtime =
            (fun rt ->
              let l = Runtime.enable_ledger ~capacity rt in
              let p = Profile.create ~cores:4 in
              Profile.attach p l;
              state := Some (l, p));
        }
      ~sysconf:Sysconf.lockiller ~workload:w ~threads:4 ()
  in
  let l, p = Option.get !state in
  (r, l, p)

let test_profile_stream_matches_fold () =
  let r, l, streamed = run_with_profile () in
  check_int "nothing dropped" 0 (Ledger.dropped l);
  let folded = Profile.of_ledger ~cores:4 l in
  check_int "fold sees no drops" 0 (Profile.dropped folded);
  check_int "total aborts" (Profile.total_aborts folded)
    (Profile.total_aborts streamed);
  check_int "attributed" (Profile.attributed folded)
    (Profile.attributed streamed);
  check_int "environmental" (Profile.environmental folded)
    (Profile.environmental streamed);
  check_int "wasted" (Profile.wasted folded) (Profile.wasted streamed);
  check_int "nacks" (Profile.nacks folded) (Profile.nacks streamed);
  check_int "rejects" (Profile.rejects folded) (Profile.rejects streamed);
  check_int "protocol kills" (Profile.protocol_kills folded)
    (Profile.protocol_kills streamed);
  check_int "commits" (Profile.commits folded) (Profile.commits streamed);
  check_int "chain depth" (Profile.max_chain_depth folded)
    (Profile.max_chain_depth streamed);
  check_int "serial commit cycles"
    (Profile.serial_commit_cycles folded)
    (Profile.serial_commit_cycles streamed);
  check_int "discarded writes" (Profile.discarded_writes folded)
    (Profile.discarded_writes streamed);
  check_int "lock acquisitions" (Profile.lock_acquisitions folded)
    (Profile.lock_acquisitions streamed);
  check_int "lock handoffs" (Profile.lock_handoffs folded)
    (Profile.lock_handoffs streamed);
  for core = 0 to 3 do
    check_int
      (Printf.sprintf "wasted core %d" core)
      (Profile.wasted_of folded ~core)
      (Profile.wasted_of streamed ~core);
    check_int
      (Printf.sprintf "killed_by core %d" core)
      (Profile.killed_by folded ~victim:core)
      (Profile.killed_by streamed ~victim:core)
  done;
  check_bool "same top pairs" true
    (Profile.top_pairs folded ~k:10 = Profile.top_pairs streamed ~k:10);
  (* And both agree with the runner's own always-on accounting. *)
  check_int "edge total = runner aborts" r.Runner.aborts
    (Profile.total_aborts streamed);
  check_int "wasted = runner wasted" r.Runner.wasted_cycles
    (Profile.wasted streamed);
  List.iter
    (fun (reason, n) ->
      check_int
        ("wasted by " ^ Reason.label reason)
        n
        (Profile.wasted_by_reason streamed reason))
    r.Runner.wasted_by_reason

let test_profile_stream_survives_wraparound () =
  (* A tiny ring wraps long before the run ends; the streaming tap
     still sees every record (its totals match the big-ring run, which
     is deterministic across ledger capacities), while a post-hoc fold
     can only cover the retained suffix. *)
  let _, big_l, big_p = run_with_profile () in
  let _, small_l, small_p = run_with_profile ~capacity:256 () in
  check_bool "ring wrapped" true (Ledger.dropped small_l > 0);
  check_int "streamed aborts immune to wrap" (Profile.total_aborts big_p)
    (Profile.total_aborts small_p);
  check_int "streamed wasted immune to wrap" (Profile.wasted big_p)
    (Profile.wasted small_p);
  check_int "ledgers saw the same stream" (Ledger.recorded big_l)
    (Ledger.recorded small_l);
  let folded = Profile.of_ledger ~cores:4 small_l in
  check_bool "fold reports the loss" true (Profile.dropped folded > 0);
  check_bool "fold covers at most the stream" true
    (Profile.total_aborts folded <= Profile.total_aborts small_p)

let test_profile_feed_no_alloc () =
  (* The tap runs on the simulator's emit path, so feeding a record —
     including the abort/commit bookkeeping — must not allocate. *)
  let sim = Lk_engine.Sim.create () in
  let l = Ledger.create ~capacity:1024 sim in
  let p = Profile.create ~cores:4 in
  Profile.attach p l;
  let emit_round i =
    Ledger.emit l ~core:(i land 3) Ledger.Tx_begin ~arg:0;
    Ledger.emit l ~core:(i land 3) Ledger.Nack
      ~arg:(Ledger.pack_attr ~who:((i + 1) land 3) ~age:17);
    Ledger.emit l ~core:(i land 3) Ledger.Tx_abort
      ~arg:(Ledger.pack_abort ~reason:0 ~who:((i + 1) land 3) ~age:42);
    Ledger.emit l ~core:(i land 3) Ledger.Spec_discard
      ~arg:(Ledger.pack_discard ~writes:3 ~age:42);
    Ledger.emit l ~core:(i land 3) Ledger.Tx_commit ~arg:1;
    Ledger.emit l ~core:(i land 3) Ledger.Lock_acquire ~arg:0;
    Ledger.emit l ~core:(i land 3) Ledger.Lock_release ~arg:0
  in
  for i = 1 to 100 do
    emit_round i
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    emit_round i
  done;
  let per_event = (Gc.minor_words () -. w0) /. 70_000.0 in
  check_bool
    (Printf.sprintf "allocation-free feed (%.4f words/event)" per_event)
    true
    (per_event < 0.01)

(* --- Telemetry ------------------------------------------------------------- *)

module Telemetry = Lk_sim.Telemetry
module Timeseries = Lk_engine.Timeseries

(* One sampled run: intruder is contended enough at this scale that the
   phase strips show transactional, lock and parked states. *)
let run_with_telemetry ?(queue_backend = Lk_engine.Event_queue.Wheel)
    ?(sysconf = Sysconf.lockiller) ?(threads = 4) ?(interval = 256) () =
  let w = Option.get (Suite.find "intruder") in
  let tele = ref None in
  let r =
    Runner.run
      ~options:
        {
          Runner.default_options with
          scale = 0.2;
          machine = Config.machine ~cores:4 ();
          queue_backend;
          telemetry =
            Some (Runner.telemetry_request ~interval (fun t -> tele := Some t));
        }
      ~sysconf ~workload:w ~threads ()
  in
  (r, Option.get !tele)

let test_telemetry_samples_the_run () =
  let r, t = run_with_telemetry () in
  check_int "interval" 256 (Telemetry.interval t);
  check_bool "sampled repeatedly" true (Telemetry.samples t > 10);
  check_int "nothing dropped" 0 (Telemetry.dropped t);
  check_int "one channel per core" 4 (Timeseries.width (Telemetry.phases t));
  Alcotest.(check (list string))
    "gauge channels" Telemetry.gauge_channels
    (Timeseries.channels (Telemetry.gauges t));
  (* The rings sample in lockstep on an exact interval grid. (The last
     samples may land shortly after the final core finishes, while the
     simulator drains trailing events.) *)
  let phases = Telemetry.phases t in
  let n = Timeseries.length phases in
  check_int "rings in lockstep" n (Timeseries.length (Telemetry.gauges t));
  check_int "rings in lockstep" n (Timeseries.length (Telemetry.links t));
  for s = 0 to n - 1 do
    let time = Timeseries.time phases ~sample:s in
    check_int "sample on the grid" 0 (time mod 256);
    if s > 0 then
      check_int "consecutive samples" (Timeseries.time phases ~sample:(s - 1) + 256) time
  done;
  check_bool "sampling stops soon after the run" true
    (Timeseries.time phases ~sample:(n - 1) <= r.Runner.cycles + (2 * 256));
  (* Phase codes stay in range and the run visits a transactional
     phase at some point. *)
  let saw_tx = ref false in
  Timeseries.iter phases (fun ~time:_ ~row ->
      Array.iter
        (fun p ->
          check_bool "phase code in range" true (p >= 0 && p < Runtime.num_phases);
          if p = 1 then saw_tx := true)
        row);
  check_bool "saw a transactional phase" true !saw_tx

let test_telemetry_does_not_change_results () =
  (* The sampler is read-only: the simulated outcome must be identical
     with telemetry on and off. *)
  let w = Option.get (Suite.find "intruder") in
  let base_options =
    {
      Runner.default_options with
      scale = 0.2;
      machine = Config.machine ~cores:4 ();
    }
  in
  let plain =
    Runner.run ~options:base_options ~sysconf:Sysconf.lockiller ~workload:w
      ~threads:4 ()
  in
  let sampled, _ = run_with_telemetry () in
  check_bool "identical results" true (plain = sampled)

let test_telemetry_backend_differential () =
  let _, wheel =
    run_with_telemetry ~queue_backend:Lk_engine.Event_queue.Wheel ()
  and _, heap =
    run_with_telemetry ~queue_backend:Lk_engine.Event_queue.Heap ()
  in
  check Alcotest.string "byte-identical JSON" (Telemetry.to_json wheel)
    (Telemetry.to_json heap);
  check Alcotest.string "byte-identical CSV" (Telemetry.to_csv wheel)
    (Telemetry.to_csv heap)

let test_telemetry_jobs_differential () =
  let grid =
    Array.of_list
      [ (Sysconf.lockiller, 2); (Sysconf.lockiller, 4);
        (Sysconf.baseline, 2); (Sysconf.baseline, 4) ]
  in
  let export_of (sysconf, threads) =
    let _, t = run_with_telemetry ~sysconf ~threads () in
    Telemetry.to_json t ^ Telemetry.to_csv t
  in
  let seq = Pool.map ~jobs:1 export_of grid in
  let par = Pool.map ~jobs:4 export_of grid in
  check_bool "identical exports" true (seq = par)

let test_telemetry_sample_no_alloc () =
  (* The sampling path must not allocate: phase/gauge reads are plain
     field loads and the ring writes are stores into preallocated
     arrays. *)
  let _, t = run_with_telemetry () in
  for _ = 1 to 100 do
    Telemetry.sample_now t
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Telemetry.sample_now t
  done;
  let per_call = (Gc.minor_words () -. w0) /. 10_000.0 in
  check_bool
    (Printf.sprintf "allocation-free sampling (%.2f words/sample)" per_call)
    true (per_call < 0.01)

let test_telemetry_perfetto_counters () =
  let _, t = run_with_telemetry () in
  let events = Telemetry.perfetto_counters t in
  let retained = Timeseries.length (Telemetry.phases t) in
  let cores = Timeseries.width (Telemetry.phases t) in
  (* Per sample: one counter per core plus signature fill, queue depth,
     cores waiting, hybrid sw, backlog and link utilization. *)
  check_int "event count" (retained * (cores + 6)) (List.length events);
  List.iter
    (fun e ->
      let member name =
        match Json.member name e with
        | Ok v -> v
        | Error m -> Alcotest.fail m
      in
      check_bool "ph C" true (Json.to_str (member "ph") = Ok "C");
      check_bool "has ts" true (Result.is_ok (Json.to_int (member "ts")));
      match member "args" with
      | Json.Obj members ->
        check_bool "has a series" true (members <> []);
        List.iter
          (fun (_, v) ->
            match v with
            | Json.Int _ | Json.Float _ -> ()
            | _ -> Alcotest.fail "non-numeric series")
          members
      | _ -> Alcotest.fail "args not an object")
    events

let test_telemetry_latency_percentiles_in_result () =
  let r, _ = run_with_telemetry () in
  check_bool "p50 positive" true (r.Runner.tx_latency_p50 > 0);
  check_bool "ordered" true
    (r.Runner.tx_latency_p50 <= r.Runner.tx_latency_p95
    && r.Runner.tx_latency_p95 <= r.Runner.tx_latency_p99)

(* --- Hybrid-TM comparators ---------------------------------------------- *)

let hybrid_run ?(sysconf = Sysconf.sw_tl2)
    ?(queue_backend = Lk_engine.Event_queue.Wheel) workload_name =
  let workload = Option.get (Suite.find workload_name) in
  Runner.run
    ~options:{ quick_options with queue_backend }
    ~sysconf ~workload ~threads:4 ()

let test_hybrid_sw_tl2_all_software () =
  (* With max_retries = 0 every section goes straight to the TL2
     software path: no hardware or lock commits, only [sw_commits],
     and the time spent committing lands in the [Sw] category. The run
     itself is the strongest assertion — conservation and the
     serializability oracle verify the committed values. *)
  let r = hybrid_run "intruder" in
  check_int "no htm commits" 0 r.Runner.htm_commits;
  check_int "no lock commits" 0 r.Runner.lock_commits;
  check_bool "sw commits" true (r.Runner.sw_commits > 0);
  check_bool "oracle ran" true (r.Runner.oracle_sections > 0);
  check_bool "sw cycles accounted" true
    (List.assoc Accounting.Sw r.Runner.breakdown > 0);
  check_bool "clock advanced" true (r.Runner.clock_advances > 0)

let test_hybrid_gv1_gv5_equivalent_outcome () =
  (* The eager (GV1) and lazy (GV5) clock disciplines serialize
     differently but must agree on the outcome: both oracle-clean
     (Runner.run raises otherwise), both commit every section. *)
  let gv1 = hybrid_run ~sysconf:Sysconf.hytm_gv1 "intruder" in
  let gv5 = hybrid_run ~sysconf:Sysconf.hytm_gv5 "intruder" in
  check_int "same sections committed"
    (gv1.Runner.htm_commits + gv1.Runner.sw_commits)
    (gv5.Runner.htm_commits + gv5.Runner.sw_commits);
  check_bool "gv1 oracle ran" true (gv1.Runner.oracle_sections > 0);
  check_bool "gv5 oracle ran" true (gv5.Runner.oracle_sections > 0);
  check_bool "both exercise the software path" true
    (gv1.Runner.sw_commits > 0 && gv5.Runner.sw_commits > 0)

let test_hybrid_validation_abort_in_ledger () =
  (* Validation failures must show up consistently in three places:
     the result's abort mix, the ledger-derived breakdown, and the
     software-path counters. *)
  let r, l = run_with_ledger ~sysconf:Sysconf.sw_tl2 () in
  check_int "nothing dropped" 0 (Ledger.dropped l);
  let b = Tracing.abort_breakdown l in
  let valid_result = List.assoc Reason.Validation r.Runner.abort_mix in
  let valid_ledger = List.assoc Reason.Validation b.Tracing.by_reason in
  check_bool "validation aborts occurred" true (valid_result > 0);
  check_int "ledger matches result" valid_result valid_ledger;
  check_bool "all sw aborts have a reason" true
    (b.Tracing.sw_aborts >= valid_ledger);
  check_int "sw commits" r.Runner.sw_commits b.Tracing.sw_commits;
  check_int "clock advances" r.Runner.clock_advances b.Tracing.clock_advances

let test_hybrid_nohw_determinism () =
  (* The software path must stay byte-identical across event-queue
     backends, like every other mechanism. *)
  let dump ?queue_backend () =
    Json.to_string (Runner.json_of_result (hybrid_run ?queue_backend "intruder"))
  in
  check Alcotest.string "heap backend byte-identical" (dump ())
    (dump ~queue_backend:Lk_engine.Event_queue.Heap ())

(* --- Pool ------------------------------------------------------------------ *)

let test_pool_matches_sequential () =
  let xs = Array.init 20 (fun i -> i) in
  let f i = i * i in
  check_bool "jobs:4 = jobs:1" true
    (Pool.map ~jobs:1 f xs = Pool.map ~jobs:4 f xs)

let test_pool_parallel_results_identical () =
  (* The acceptance bar: simulation results collected through the pool
     are identical (hence deterministic) for any job count. *)
  let w = Option.get (Suite.find "kmeans") in
  let grid =
    Array.of_list
      (List.concat_map
         (fun sysconf -> [ (sysconf, 2); (sysconf, 4) ])
         [ Sysconf.cgl; Sysconf.baseline; Sysconf.lockiller ])
  in
  let run (sysconf, threads) =
    Runner.run
      ~options:
        {
          Runner.default_options with
          scale = 0.1;
          machine = Config.machine ~cores:4 ();
        }
      ~sysconf ~workload:w ~threads ()
  in
  let seq = Pool.map ~jobs:1 run grid in
  let par = Pool.map ~jobs:4 run grid in
  check_bool "identical results" true (seq = par)

let test_pool_propagates_exception () =
  check_bool "raises" true
    (match
       Pool.map ~jobs:4
         (fun i -> if i = 7 then failwith "boom" else i)
         (Array.init 16 (fun i -> i))
     with
    | exception Failure msg -> msg = "boom"
    | _ -> false)

(* --- Cache ----------------------------------------------------------------- *)

let with_temp_cache ?schema f =
  let dir = Filename.temp_file "lockiller-test" ".cache" in
  Sys.remove dir;
  let finally () =
    let c = Cache.create ~dir () in
    ignore (Cache.clear c);
    try Sys.rmdir dir with Sys_error _ -> ()
  in
  Fun.protect ~finally (fun () -> f (Cache.create ?schema ~dir ()))

let sample_job_key cache =
  let w = Option.get (Suite.find "intruder") in
  Cache.key cache
    ~options:{ Runner.default_options with scale = 0.1 }
    ~sysconf:Sysconf.lockiller ~workload:w ~threads:4

let test_cache_roundtrip () =
  with_temp_cache (fun cache ->
      let r = sample_result () in
      let key = sample_job_key cache in
      check_bool "cold" true (Cache.find cache key = None);
      Cache.store cache key r;
      (match Cache.find cache key with
      | None -> Alcotest.fail "stored entry not found"
      | Some r' -> check_bool "structurally equal" true (r = r'));
      check_int "one store" 1 (Cache.stores cache);
      check_int "one hit" 1 (Cache.hits cache);
      check_int "one miss" 1 (Cache.misses cache))

let test_cache_schema_invalidates () =
  with_temp_cache (fun cache ->
      let r = sample_result () in
      Cache.store cache (sample_job_key cache) r;
      (* Same directory, bumped schema: the key changes and the old
         entry is unreachable. *)
      let bumped = Cache.create ~schema:"999" ~dir:(Cache.dir cache) () in
      check_bool "different key" true
        (sample_job_key cache <> sample_job_key bumped);
      check_bool "miss after bump" true
        (Cache.find bumped (sample_job_key bumped) = None);
      let st = Cache.disk_stats bumped in
      check_int "old entry is stale" 1 st.Cache.stale_entries)

let test_cache_corrupt_entry_is_miss () =
  with_temp_cache (fun cache ->
      let key = sample_job_key cache in
      Cache.store cache key (sample_result ());
      let path =
        Filename.concat
          (Filename.concat (Cache.dir cache) ("v" ^ Cache.schema_version))
          (key ^ ".json")
      in
      let oc = open_out path in
      output_string oc "{ not json";
      close_out oc;
      check_bool "corrupt entry misses" true (Cache.find cache key = None);
      check_bool "corrupt entry removed" true (not (Sys.file_exists path)))

let test_cache_key_sensitivity () =
  with_temp_cache (fun cache ->
      let w = Option.get (Suite.find "intruder") in
      let base ?(options = { Runner.default_options with scale = 0.1 })
          ?(threads = 4) () =
        Cache.key cache ~options ~sysconf:Sysconf.lockiller ~workload:w
          ~threads
      in
      let k = base () in
      check_bool "seed" true
        (k <> base ~options:{ Runner.default_options with scale = 0.1; seed = 2 } ());
      check_bool "scale" true
        (k <> base ~options:{ Runner.default_options with scale = 0.2 } ());
      check_bool "threads" true (k <> base ~threads:2 ()))

(* --- Parallel + cached experiment execution -------------------------------- *)

let test_execute_parallel_matches_sequential () =
  let render jobs cache =
    let ctx =
      Experiments.make_context ~scale:0.2 ~cores:4 ~threads:[ 2; 4 ] ~jobs
        ?cache ()
    in
    let tables = Experiments.execute ctx Experiments.fig1 in
    (tables, Experiments.simulations ctx)
  in
  let seq, n_seq = render 1 None in
  let par, n_par = render 4 None in
  check_bool "tables identical" true (seq = par);
  check_int "same simulation count" n_seq n_par;
  check_bool "simulated something" true (n_seq > 0)

let test_execute_warm_cache_skips_simulation () =
  with_temp_cache (fun cache ->
      let run () =
        let ctx =
          Experiments.make_context ~scale:0.2 ~cores:4 ~threads:[ 2 ] ~jobs:2
            ~cache ()
        in
        let tables = Experiments.execute ctx Experiments.fig1 in
        (tables, Experiments.simulations ctx)
      in
      let cold, n_cold = run () in
      let warm, n_warm = run () in
      check_bool "warm tables identical" true (cold = warm);
      check_bool "cold simulated" true (n_cold > 0);
      check_int "warm simulated nothing" 0 n_warm)

let () =
  Alcotest.run "sim"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_machine_defaults;
          Alcotest.test_case "cache profiles" `Quick
            test_machine_cache_profiles;
          Alcotest.test_case "small meshes" `Quick test_machine_small_meshes;
          Alcotest.test_case "bad core count" `Quick
            test_machine_rejects_odd_core_counts;
          Alcotest.test_case "table1" `Quick test_table1_rows;
          Alcotest.test_case "build" `Quick test_build;
          Alcotest.test_case "mesh shape general" `Quick
            test_mesh_shape_general;
          Alcotest.test_case "non-divisor llc banks" `Quick
            test_build_non_divisor_llc;
          Alcotest.test_case "cli cores validator" `Quick test_cli_cores;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "speedup" `Quick test_speedup;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "mean/max/pct" `Quick test_mean_max;
          QCheck_alcotest.to_alcotest prop_geomean_between_min_max;
        ] );
      ( "report",
        [
          Alcotest.test_case "render" `Quick test_report_render;
          Alcotest.test_case "csv" `Quick test_report_csv;
        ] );
      ( "runner",
        [
          Alcotest.test_case "basic metrics" `Quick test_runner_basic_metrics;
          Alcotest.test_case "breakdown categories" `Quick
            test_runner_breakdown_covers_all_categories;
          Alcotest.test_case "abort mix order" `Quick
            test_runner_abort_mix_paper_order;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick
            test_runner_seed_changes_outcome;
          Alcotest.test_case "thread bounds" `Quick test_runner_thread_bounds;
          Alcotest.test_case "abort fractions" `Quick test_abort_fraction;
          Alcotest.test_case "yada under lockiller" `Quick
            test_runner_fault_survival_in_lock_modes;
          Alcotest.test_case "placement" `Quick test_placement_spread;
          Alcotest.test_case "avg attempts" `Quick test_avg_attempts_metric;
          Alcotest.test_case "cycle limit" `Quick test_cycle_limit_guard;
          Alcotest.test_case "run_program" `Quick test_run_program;
          Alcotest.test_case "run_program lock collision" `Quick
            test_run_program_rejects_lock_collision;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "thread filter" `Quick test_context_thread_filter;
          Alcotest.test_case "unique ids" `Quick test_experiment_ids_unique;
          Alcotest.test_case "find" `Quick test_experiment_find;
          Alcotest.test_case "memoised" `Quick test_result_memoised;
          Alcotest.test_case "speedup positive" `Quick
            test_speedup_vs_cgl_positive;
          Alcotest.test_case "cheap experiments render" `Quick
            test_quick_experiments_render;
          Alcotest.test_case "fig10 shape" `Quick
            test_fig10_renders_on_small_machine;
        ] );
      ( "json",
        [
          Alcotest.test_case "result round-trip" `Quick
            test_result_json_roundtrip;
          Alcotest.test_case "result fields" `Quick test_result_json_fields;
          Alcotest.test_case "rejects garbage" `Quick
            test_result_json_rejects_garbage;
          Alcotest.test_case "float exactness" `Quick
            test_json_float_roundtrip;
          Alcotest.test_case "report to_json" `Quick test_report_to_json;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "lifecycle labels" `Quick test_lifecycle_labels;
          Alcotest.test_case "breakdown matches stats" `Quick
            test_ledger_breakdown_matches_stats;
          Alcotest.test_case "wheel vs heap streams" `Quick
            test_ledger_backend_differential;
          Alcotest.test_case "jobs:4 = jobs:1 streams" `Quick
            test_ledger_jobs_differential;
          Alcotest.test_case "perfetto well-formed" `Quick
            test_perfetto_export_wellformed;
        ] );
      ( "profile",
        [
          Alcotest.test_case "stream matches fold" `Quick
            test_profile_stream_matches_fold;
          Alcotest.test_case "stream survives wraparound" `Quick
            test_profile_stream_survives_wraparound;
          Alcotest.test_case "feed no alloc" `Quick test_profile_feed_no_alloc;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "sw-tl2 pure software" `Quick
            test_hybrid_sw_tl2_all_software;
          Alcotest.test_case "gv1/gv5 same outcome" `Quick
            test_hybrid_gv1_gv5_equivalent_outcome;
          Alcotest.test_case "validation aborts in ledger" `Quick
            test_hybrid_validation_abort_in_ledger;
          Alcotest.test_case "nohw determinism" `Quick
            test_hybrid_nohw_determinism;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "samples the run" `Quick
            test_telemetry_samples_the_run;
          Alcotest.test_case "results unchanged" `Quick
            test_telemetry_does_not_change_results;
          Alcotest.test_case "wheel vs heap exports" `Quick
            test_telemetry_backend_differential;
          Alcotest.test_case "jobs:4 = jobs:1 exports" `Quick
            test_telemetry_jobs_differential;
          Alcotest.test_case "sample no alloc" `Quick
            test_telemetry_sample_no_alloc;
          Alcotest.test_case "perfetto counters" `Quick
            test_telemetry_perfetto_counters;
          Alcotest.test_case "latency percentiles" `Quick
            test_telemetry_latency_percentiles_in_result;
        ] );
      ( "pool",
        [
          Alcotest.test_case "pure map" `Quick test_pool_matches_sequential;
          Alcotest.test_case "simulation grid deterministic" `Quick
            test_pool_parallel_results_identical;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_propagates_exception;
        ] );
      ( "cache",
        [
          Alcotest.test_case "round-trip" `Quick test_cache_roundtrip;
          Alcotest.test_case "schema bump invalidates" `Quick
            test_cache_schema_invalidates;
          Alcotest.test_case "corrupt entry" `Quick
            test_cache_corrupt_entry_is_miss;
          Alcotest.test_case "key sensitivity" `Quick
            test_cache_key_sensitivity;
        ] );
      ( "parallel-execute",
        [
          Alcotest.test_case "jobs:4 = jobs:1" `Quick
            test_execute_parallel_matches_sequential;
          Alcotest.test_case "warm cache skips simulation" `Quick
            test_execute_warm_cache_skips_simulation;
        ] );
    ]
