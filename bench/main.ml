(* Benchmark harness.

   Default: regenerate every table and figure of the paper's evaluation
   (one section per artefact; see DESIGN.md's experiment index) and
   finish with Bechamel microbenchmarks of the simulator's hot paths.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig7 fig12   # selected experiments
     dune exec bench/main.exe -- --micro      # microbenchmarks only
     dune exec bench/main.exe -- --micro --format json   # BENCH_micro.json
     dune exec bench/main.exe -- --list       # list experiment ids
     dune exec bench/main.exe -- --scale 0.5  # smaller workloads
     dune exec bench/main.exe -- --csv out/   # also write CSVs
     dune exec bench/main.exe -- --jobs 8     # parallel simulations
     dune exec bench/main.exe -- --no-cache   # ignore the result cache
     dune exec bench/main.exe -- --cache-dir d  # cache location *)

module Experiments = Lockiller.Sim.Experiments
module Report = Lockiller.Sim.Report
module Rng = Lockiller.Engine.Rng
module Event_queue = Lockiller.Engine.Event_queue
module Sim = Lockiller.Engine.Sim
module Topology = Lockiller.Mesh.Topology
module Network = Lockiller.Mesh.Network
module L1 = Lockiller.Coherence.L1_cache
module Protocol = Lockiller.Coherence.Protocol
module Shard = Lockiller.Coherence.Shard
module Types = Lockiller.Coherence.Types
module Signature = Lockiller.Mechanisms.Signature
module Sysconf = Lockiller.Mechanisms.Sysconf
module Runner = Lockiller.Sim.Runner
module Cache = Lockiller.Sim.Cache
module Pool = Lockiller.Sim.Pool
module Perf = Lockiller.Sim.Perf
module Json = Lockiller.Sim.Json

(* [Sys.mkdir] is non-recursive: --csv out/nested/dir used to fail. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
  end

(* --- Paper experiments -------------------------------------------------- *)

let run_experiments ~scale ~jobs ~cache ~csv_dir ~ids =
  let ctx = Experiments.make_context ~scale ~jobs ?cache () in
  let emit_csv table =
    match csv_dir with
    | None -> ()
    | Some dir ->
      mkdir_p dir;
      let path = Filename.concat dir (Report.csv_filename table) in
      let oc = open_out path in
      output_string oc (Report.to_csv table);
      close_out oc;
      Printf.printf "(csv: %s)\n" path
  in
  let selected =
    match ids with
    | [] -> Experiments.all
    | ids ->
      List.filter_map
        (fun id ->
          match Experiments.find id with
          | Some e -> Some e
          | None ->
            Printf.eprintf "unknown experiment %S (skipped)\n%!" id;
            None)
        ids
  in
  List.iter
    (fun e ->
      Printf.printf "# %s (%s)\n# %s\n\n" e.Experiments.artefact
        e.Experiments.id e.Experiments.describe;
      let t0 = Sys.time () in
      Perf.reset_totals ();
      List.iter
        (fun table ->
          Report.print table;
          emit_csv table)
        (Experiments.execute ctx e);
      Printf.printf "(rendered in %.1fs cpu)\n" (Sys.time () -. t0);
      (* Throughput over the simulations this experiment actually ran
         (warm-cache runs report 0 sims). Wall time varies run to run,
         so `make ci`'s cold/warm diff filters "perf:" lines out. *)
      Printf.printf "(perf: %s)\n\n%!"
        (Format.asprintf "%a" Perf.pp_totals (Perf.totals ())))
    selected;
  (* Observability for the warm-cache acceptance check: a second run of
     the same experiments must report 0 simulations. *)
  (match cache with
  | None ->
    Printf.printf "(simulations: %d, cache disabled)\n%!"
      (Experiments.simulations ctx)
  | Some c ->
    Printf.printf "(simulations: %d, cache hits: %d, stores: %d)\n%!"
      (Experiments.simulations ctx) (Cache.hits c) (Cache.stores c);
    Cache.persist_counters c)

(* --- Perf microbenchmark: schedule/pop throughput, wheel vs heap -------- *)

let backend_id = function
  | Event_queue.Wheel -> "wheel"
  | Event_queue.Heap -> "heap"

(* Deterministic delay stream (no global RNG) matching the simulator's
   profile: mostly short latencies (L1 hits, NoC hops — 1..256 cycles),
   with 1 in 64 a long one (up to ~4k, past the wheel's 1024-cycle near
   window, exercising the far-heap overflow path). *)
let lcg_next st =
  st := (!st * 0x2545F4914F6CDD1D) + 0x9E3779B9;
  let r = !st lsr 33 in
  if r land 63 = 0 then 1 + (r land 4095) else 1 + (r land 255)

(* Hold model on the raw queue: [resident] pending events; every pop
   reschedules its payload a pseudo-random delay ahead, so occupancy
   stays constant and the probe sees pure schedule/pop steady state.
   Uses the allocation-free next_time/pop_payload pair like the kernel
   does. *)
let queue_micro ~backend ~ops =
  let q = Event_queue.create ~backend () in
  let resident = 8192 in
  let st = ref 0x3779B97F4A7C15 in
  for i = 0 to resident - 1 do
    Event_queue.add q ~time:(lcg_next st) i
  done;
  let probe = Perf.start () in
  let clock = ref 0 in
  for _ = 1 to ops do
    let t = Event_queue.next_time q in
    let v = Event_queue.pop_payload q in
    clock := t;
    Event_queue.add q ~time:(t + lcg_next st) v
  done;
  Perf.stop probe ~events:ops ~cycles:!clock

(* The same steady state through the kernel: 1024 self-rescheduling
   event chains until ~[ops] events have fired. *)
let sim_micro ~backend ~ops =
  let sim = Sim.create ~backend () in
  let st = ref 0x51AFE2149F123BCD in
  let remaining = ref ops in
  let rec tick () =
    if !remaining > 0 then begin
      decr remaining;
      Sim.schedule sim ~delay:(lcg_next st) tick
    end
  in
  for _ = 1 to 1024 do
    Sim.schedule sim ~delay:(lcg_next st) tick
  done;
  let (), s = Perf.observe sim (fun () -> Sim.run sim) in
  s

(* Trace ingestion: streaming read throughput over a generated binary
   trace. Written once to a temp file, then measured over a full
   streaming read pass (header + varint decode + monotonicity check),
   the same path 'lockiller_sim replay' feeds from. *)
let trace_micro ~ops =
  let module Gen = Lockiller.Trace.Gen in
  let module Stream = Lockiller.Trace.Stream in
  let profile = { Gen.default with duration = max 1 ops } in
  let file = Filename.temp_file "lockiller_bench" ".lkt" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let oc = open_out_bin file in
  let w = Stream.writer_to_channel Stream.Binary oc in
  let n =
    match
      Gen.generate profile ~seed:1 ~emit:(fun r ->
          match Stream.write w r with Ok () -> () | Error e -> failwith e)
    with
    | Ok n -> n
    | Error e -> failwith e
  in
  close_out oc;
  let read_pass () =
    let ic = open_in_bin file in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    match Stream.reader_of_channel ~name:file ic with
    | Error e -> failwith e
    | Ok r -> (
      let probe = Perf.start () in
      match
        Stream.fold r ~init:0 ~f:(fun _ rec_ ->
            rec_.Lockiller.Trace.Record.arrival)
      with
      | Error e -> failwith e
      | Ok last -> Perf.stop probe ~events:n ~cycles:last)
  in
  (* First run warms code and minor heap; report the second. *)
  ignore (read_pass ());
  read_pass ()

(* Closed-loop machine throughput as the mesh grows: the same 16
   threads and offered work on a 32-core and a 256-core machine, so
   the only variable is the fabric — more directory shards, longer NoC
   distances, a larger event set. The events/sec ratio is
   the kernel's large-mesh scaling figure (docs/SCALING.md). *)
let machine_micro ~cores =
  match Lockiller.Stamp.Suite.find "ssca2" with
  | None -> assert false
  | Some w ->
    let machine = Lockiller.Sim.Config.machine ~cores () in
    let options =
      { Runner.default_options with machine; oracle = false; scale = 0.25 }
    in
    let once () =
      Perf.reset_totals ();
      ignore
        (Runner.run ~options ~sysconf:Sysconf.lockiller ~workload:w
           ~threads:16 ());
      let t = Perf.totals () in
      {
        Perf.wall_seconds = t.Perf.total_wall_seconds;
        minor_words = t.Perf.total_minor_words;
        events = t.Perf.total_events;
        cycles = t.Perf.total_cycles;
      }
    in
    ignore (once ());
    once ()

(* The causal profiler priced on a contended closed-loop run, off and
   on. "On" attaches the event ledger with the streaming Profile tap
   (the `profile` subcommand's configuration); the emit path is int
   packing into preallocated arrays plus an allocation-free tap call,
   so both samples must stay inside the perfcheck band — the
   "profiler_on_speedup" ratio is the gate on observation overhead
   (docs/OBSERVABILITY.md). *)
let profile_micro ~profiled =
  let module Runtime = Lockiller.Mechanisms.Runtime in
  let module Profile = Lockiller.Sim.Profile in
  match Lockiller.Stamp.Suite.find "intruder" with
  | None -> assert false
  | Some w ->
    let options =
      {
        Runner.default_options with
        oracle = false;
        scale = 0.25;
        on_runtime =
          (fun rt ->
            if profiled then begin
              let l = Runtime.enable_ledger rt in
              let p = Profile.create ~cores:32 in
              Profile.attach p l
            end);
      }
    in
    let once () =
      Perf.reset_totals ();
      ignore
        (Runner.run ~options ~sysconf:Sysconf.lockiller ~workload:w
           ~threads:16 ());
      let t = Perf.totals () in
      {
        Perf.wall_seconds = t.Perf.total_wall_seconds;
        minor_words = t.Perf.total_minor_words;
        events = t.Perf.total_events;
        cycles = t.Perf.total_cycles;
      }
    in
    ignore (once ());
    once ()

(* The TL2 software path under contention: the maximally-contended
   counter microbenchmark on SW-TL2 runs every transaction through the
   software fallback (no HTM attempts), so the sample prices the
   fallback itself — version-clock traffic, read-set validation,
   commit-time write locks (docs/HYBRID.md). *)
let swpath_micro () =
  match Lockiller.Stamp.Suite.find "micro-counter" with
  | None -> assert false
  | Some w ->
    let options =
      { Runner.default_options with oracle = false; scale = 0.25 }
    in
    let once () =
      Perf.reset_totals ();
      ignore
        (Runner.run ~options ~sysconf:Sysconf.sw_tl2 ~workload:w ~threads:8 ());
      let t = Perf.totals () in
      {
        Perf.wall_seconds = t.Perf.total_wall_seconds;
        minor_words = t.Perf.total_minor_words;
        events = t.Perf.total_events;
        cycles = t.Perf.total_cycles;
      }
    in
    ignore (once ());
    once ()

let bench_micro_file = "BENCH_micro.json"

let run_perf_micro ~scale ~format =
  (* Floored at 1M ops: minor-words/event carries a fixed setup-sized
     overhead that only amortises out at the baseline's operating
     point, so `--scale 0.1` must not shrink the micro below it. *)
  let ops = max 1_000_000 (int_of_float (1_000_000. *. scale)) in
  let measure micro backend =
    (* First run warms code and minor heap; report the second. *)
    ignore (micro ~backend ~ops);
    micro ~backend ~ops
  in
  let qw = measure queue_micro Event_queue.Wheel in
  let qh = measure queue_micro Event_queue.Heap in
  let sw = measure sim_micro Event_queue.Wheel in
  let sh = measure sim_micro Event_queue.Heap in
  let tr = trace_micro ~ops in
  let m32 = machine_micro ~cores:32 in
  let m256 = machine_micro ~cores:256 in
  let poff = profile_micro ~profiled:false in
  let pon = profile_micro ~profiled:true in
  let sp = swpath_micro () in
  let speedup w h =
    let h = Perf.events_per_sec h in
    if h <= 0.0 then 0.0 else Perf.events_per_sec w /. h
  in
  match format with
  | `Json ->
    let section w h =
      Json.Obj
        [
          ("wheel", Perf.json_of_sample w);
          ("heap", Perf.json_of_sample h);
          ("wheel_speedup", Json.Float (speedup w h));
        ]
    in
    let j =
      Json.Obj
        [
          ("schema", Json.Int 1);
          ("ops", Json.Int ops);
          ("queue", section qw qh);
          ("sim", section sw sh);
          ("trace", Json.Obj [ ("read", Perf.json_of_sample tr) ]);
          ( "mesh",
            Json.Obj
              [
                ("threads", Json.Int 16);
                ("cores32", Perf.json_of_sample m32);
                ("cores256", Perf.json_of_sample m256);
                ("large_mesh_speedup", Json.Float (speedup m256 m32));
              ] );
          ( "profile",
            Json.Obj
              [
                ("threads", Json.Int 16);
                ("off", Perf.json_of_sample poff);
                ("on", Perf.json_of_sample pon);
                ("profiler_on_speedup", Json.Float (speedup pon poff));
              ] );
          ( "swpath",
            Json.Obj
              [ ("threads", Json.Int 8); ("sw_tl2", Perf.json_of_sample sp) ]
          );
        ]
    in
    let oc = open_out bench_micro_file in
    output_string oc (Json.to_string_pretty j);
    output_char oc '\n';
    close_out oc;
    Printf.printf "(micro: %s)\n%!" bench_micro_file
  | `Text ->
    Printf.printf "# Event-engine throughput (%d ops, wheel vs heap)\n\n" ops;
    Printf.printf "%-8s %-8s %14s %16s\n" "section" "backend" "events/sec"
      "minor w/event";
    List.iter
      (fun (section, backend, s) ->
        Printf.printf "%-8s %-8s %14.0f %16.2f\n" section (backend_id backend)
          (Perf.events_per_sec s)
          (Perf.minor_words_per_event s))
      [
        ("queue", Event_queue.Wheel, qw);
        ("queue", Event_queue.Heap, qh);
        ("sim", Event_queue.Wheel, sw);
        ("sim", Event_queue.Heap, sh);
      ];
    Printf.printf "%-8s %-8s %14.0f %16.2f\n" "trace" "read"
      (Perf.events_per_sec tr)
      (Perf.minor_words_per_event tr);
    List.iter
      (fun (label, s) ->
        Printf.printf "%-8s %-8s %14.0f %16.2f\n" "mesh" label
          (Perf.events_per_sec s)
          (Perf.minor_words_per_event s))
      [ ("32", m32); ("256", m256) ];
    List.iter
      (fun (label, s) ->
        Printf.printf "%-8s %-8s %14.0f %16.2f\n" "profile" label
          (Perf.events_per_sec s)
          (Perf.minor_words_per_event s))
      [ ("off", poff); ("on", pon) ];
    Printf.printf "%-8s %-8s %14.0f %16.2f\n" "swpath" "sw_tl2"
      (Perf.events_per_sec sp)
      (Perf.minor_words_per_event sp);
    Printf.printf "\nqueue wheel speedup over heap: %.2fx\n" (speedup qw qh);
    Printf.printf "sim   wheel speedup over heap: %.2fx\n" (speedup sw sh);
    Printf.printf "mesh  256-core over 32-core:     %.2fx\n\n%!"
      (speedup m256 m32)

(* --- Bechamel microbenchmarks ------------------------------------------- *)

open Bechamel
open Toolkit

let test_event_queue =
  Test.make ~name:"event-queue push+pop x256"
    (Staged.stage (fun () ->
         let q = Event_queue.create () in
         for i = 0 to 255 do
           Event_queue.add q ~time:((i * 7919) land 1023) i
         done;
         let rec drain () =
           match Event_queue.pop q with None -> () | Some _ -> drain ()
         in
         drain ()))

let test_rng_zipf =
  let rng = Rng.create 7 in
  Test.make ~name:"rng zipf draw (n=64, s=0.8)"
    (Staged.stage (fun () -> ignore (Rng.zipf rng ~n:64 ~s:0.8)))

let test_l1_lookup =
  let l1 = L1.create ~size_bytes:(32 * 1024) ~ways:4 in
  for i = 0 to 127 do
    L1.insert l1 i L1.S
  done;
  let counter = ref 0 in
  Test.make ~name:"l1 lookup (hit)"
    (Staged.stage (fun () ->
         counter := (!counter + 1) land 127;
         ignore (L1.lookup l1 !counter)))

let test_signature =
  let s = Signature.create () in
  let counter = ref 0 in
  Test.make ~name:"signature add+test"
    (Staged.stage (fun () ->
         incr counter;
         Signature.add s !counter;
         ignore (Signature.test s !counter)))

let test_route =
  let topo = Topology.create ~rows:4 ~cols:8 in
  let counter = ref 0 in
  Test.make ~name:"mesh x-y route (corner to corner)"
    (Staged.stage (fun () ->
         counter := (!counter + 1) land 31;
         ignore (Topology.route topo ~src:!counter ~dst:31)))

let test_protocol_access =
  Test.make ~name:"protocol access (cold miss, 4 cores)"
    (Staged.stage (fun () ->
         let sim = Sim.create () in
         let net = Network.create (Topology.create ~rows:2 ~cols:2) in
         let cfg =
           {
             Protocol.cores = 4;
             l1_size = 4 * 1024;
             l1_ways = 4;
             l1_hit_latency = 2;
             llc_size = 64 * 1024;
             llc_ways = 8;
             llc_hit_latency = 12;
             mem_latency = 100;
      exclusive_state = true;
      dir_pointers = None;
      dir_shards = 0;
      dir_hash = Shard.Mod;
           }
         in
         let p = Protocol.create ~sim ~network:net cfg in
         Protocol.access p ~core:0 ~line:5 ~what:Types.Read ~epoch:0
           ~k:(fun _ -> ());
         Sim.run sim))

let test_full_sim =
  Test.make ~name:"full kmeans+ run (LockillerTM, 4 threads, scale 0.2)"
    (Staged.stage (fun () ->
         match Lockiller.Stamp.Suite.find "kmeans+" with
         | None -> assert false
         | Some w ->
           ignore
             (Runner.run
                ~options:
                  {
                    Runner.default_options with
                    scale = 0.2;
                    machine = Lockiller.Sim.Config.machine ~cores:4 ();
                  }
                ~sysconf:Sysconf.lockiller ~workload:w ~threads:4 ())))

let microbenchmarks =
  [
    test_event_queue;
    test_rng_zipf;
    test_l1_lookup;
    test_signature;
    test_route;
    test_protocol_access;
    test_full_sim;
  ]

let run_micro () =
  Printf.printf "# Microbenchmarks (simulator hot paths)\n\n%!";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols instance raw in
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> Printf.printf "%-55s %12.1f ns/run\n%!" name ns
          | Some _ | None -> Printf.printf "%-55s (no estimate)\n%!" name)
        results)
    microbenchmarks

(* --- entry point --------------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let scale = ref 1.0 in
  let micro_only = ref false in
  let skip_micro = ref false in
  let format = ref `Text in
  let csv_dir = ref None in
  let jobs = ref (Pool.default_jobs ()) in
  let no_cache = ref false in
  let cache_dir = ref None in
  let ids = ref [] in
  let rec parse = function
    | [] -> ()
    | "--micro" :: rest ->
      micro_only := true;
      parse rest
    | "--no-micro" :: rest ->
      skip_micro := true;
      parse rest
    | "--list" :: _ ->
      List.iter
        (fun e ->
          Printf.printf "%-10s %s\n" e.Experiments.id e.Experiments.artefact)
        Experiments.all;
      exit 0
    | "--format" :: v :: rest ->
      (match v with
      | "text" -> format := `Text
      | "json" -> format := `Json
      | _ ->
        Printf.eprintf "unknown --format %S (want text or json)\n%!" v;
        exit 2);
      parse rest
    | "--scale" :: v :: rest ->
      scale := float_of_string v;
      parse rest
    | "--jobs" :: v :: rest ->
      (match Lockiller.Sim.Cli.positive_int ~what:"--jobs" v with
      | Ok j -> jobs := j
      | Error msg ->
        Printf.eprintf "%s\n%!" msg;
        exit 2);
      parse rest
    | "--no-cache" :: rest ->
      no_cache := true;
      parse rest
    | "--cache-dir" :: dir :: rest ->
      cache_dir := Some dir;
      parse rest
    | "--csv" :: dir :: rest ->
      csv_dir := Some dir;
      parse rest
    | id :: rest ->
      ids := !ids @ [ id ];
      parse rest
  in
  parse args;
  if !micro_only then begin
    run_perf_micro ~scale:!scale ~format:!format;
    if !format = `Text then run_micro ();
    exit 0
  end;
  begin
    let cache =
      if !no_cache then None
      else
        Some
          (Cache.create
             ~dir:
               (match !cache_dir with
               | Some d -> d
               | None -> Cache.default_dir ())
             ())
    in
    run_experiments ~scale:!scale ~jobs:!jobs ~cache ~csv_dir:!csv_dir
      ~ids:!ids
  end;
  if (not !skip_micro) && !ids = [] then run_micro ()
