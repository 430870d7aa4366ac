module Sim = Lk_engine.Sim
module Stats = Lk_engine.Stats
module Ledger = Lk_engine.Ledger
module Network = Lk_mesh.Network
module Protocol = Lk_coherence.Protocol
module Store = Lk_htm.Store
module Reason = Lk_htm.Reason
module Sysconf = Lk_lockiller.Sysconf
module Runtime = Lk_lockiller.Runtime
module Program = Lk_cpu.Program
module Accounting = Lk_cpu.Accounting
module Core = Lk_cpu.Core
module Workload = Lk_stamp.Workload

(* Open-loop replay statistics: how the service kept up with the
   arrival stream. Queueing delay is arrival -> service start, sojourn
   is arrival -> completion; both come from log-linear histograms
   recorded incrementally, so a multi-gigabyte trace needs no
   per-transaction storage. *)
type open_loop_stats = {
  arrivals : int;
  completed : int;
  max_backlog : int;
  queue_delay_p50 : int;
  queue_delay_p95 : int;
  queue_delay_p99 : int;
  sojourn_p50 : int;
  sojourn_p95 : int;
  sojourn_p99 : int;
  phase_mix : (int * int) list;
}

type result = {
  system : string;
  workload : string;
  threads : int;
  cache : Config.cache_profile;
  cycles : int;
  commit_rate : float;
  htm_commits : int;
  stl_commits : int;
  lock_commits : int;
  sw_commits : int;
  aborts : int;
  abort_mix : (Reason.t * int) list;
  wasted_cycles : int;
  wasted_by_reason : (Reason.t * int) list;
  breakdown : (Accounting.category * int) list;
  rejects : int;
  parks : int;
  wakeups : int;
  switches_granted : int;
  switches_denied : int;
  spilled_lines : int;
  lock_dwell_cycles : int;
  clock_advances : int;
  watchdog_rescues : int;
  network_messages : int;
  network_flits : int;
  oracle_sections : int;
  avg_attempts_per_commit : float;
  tx_latency_p50 : int;
  tx_latency_p95 : int;
  tx_latency_p99 : int;
  open_loop : open_loop_stats option;
}

type telemetry_request = {
  sample_interval : int;
  sample_capacity : int;
  consume : Telemetry.t -> unit;
}

let telemetry_request ?(interval = 1024) ?(capacity = 4096) consume =
  { sample_interval = interval; sample_capacity = capacity; consume }

type placement = Compact | Spread

(* Thread index -> core id. *)
let place ~placement ~cores ~threads i =
  match placement with
  | Compact -> i
  | Spread -> i * cores / threads

(* How [execute] drives the cores: a closed-loop pre-built program or
   an open-loop arrival stream served by stream cores. *)
type exec_mode =
  | Closed of { program : Program.t; barrier_every : int option }
  | Open of {
      ol : Workload_source.open_loop;
      threads : int;
      seed : int;
      expected : (int, int) Hashtbl.t;
          (* Hot-counter increments accumulated as bodies are
             synthesised, for the post-run conservation check. *)
    }

(* Shared execution engine for generated workloads, hand-written
   programs and trace replay. *)
let execute ?queue_backend ?(check = false) ?telemetry ~machine ~oracle ~on_runtime ~placement ~cycle_limit ~sysconf ~mode
    ~(workload_name : string) ~cache () =
  let threads =
    match mode with
    | Closed { program; _ } -> Array.length program
    | Open { threads; _ } -> threads
  in
  if threads <= 0 || threads > machine.Config.cores then
    invalid_arg "Runner.run: thread count out of range";
  let core_of = place ~placement ~cores:machine.Config.cores ~threads in
  let sim, net, protocol = Config.build ?backend:queue_backend machine in
  let store = Store.create ~cores:machine.Config.cores in
  let runtime =
    Runtime.create ~protocol ~store ~sysconf
      ~lock_addr:Workload.lock_addr ()
  in
  let oracle_handle =
    if oracle then Some (Runtime.enable_oracle runtime) else None
  in
  on_runtime runtime;
  let tele =
    Option.map
      (fun req ->
        ( req,
          Telemetry.attach ~interval:req.sample_interval
            ~capacity:req.sample_capacity runtime ))
      telemetry
  in
  let sanitizer =
    if check then Some (Lk_check.Sanitizer.attach runtime) else None
  in
  let acct = Accounting.create ~cores:machine.Config.cores in
  let finished = ref 0 in
  let cpus, post_run, collect_open =
    match mode with
    | Closed { program; barrier_every } ->
      let barrier =
        Option.map
          (fun k -> (Lk_cpu.Barrier.create ~parties:threads, k))
          barrier_every
      in
      let cpus =
        Array.mapi
          (fun i thread ->
            Core.spawn ?barrier ~runtime ~core:(core_of i) ~thread
              ~accounting:acct
              ~on_done:(fun () -> incr finished)
              ())
          program
      in
      Array.iter Core.start cpus;
      (cpus, (fun () -> ()), fun () -> None)
    | Open { ol; seed; expected; _ } ->
      let cpus =
        Array.init threads (fun i ->
            Core.spawn_stream ~runtime ~core:(core_of i) ~accounting:acct
              ~on_done:(fun () -> incr finished)
              ())
      in
      let body = ol.Workload_source.body in
      (* Per-slot body RNGs, seeded exactly like [Workload.generate]'s
         per-thread streams so replay bodies are deterministic in
         (profile, seed, threads). *)
      let root =
        Lk_engine.Rng.create
          (seed + (1299721 * Hashtbl.hash body.Workload.name))
      in
      let rngs = Array.init threads (fun _ -> Lk_engine.Rng.split root) in
      let qdelay = Stats.hdr () in
      let sojourn = Stats.hdr () in
      let phases = Array.make (Lk_trace.Record.max_phase + 1) 0 in
      let arrivals = ref 0
      and completed = ref 0
      and inflight = ref 0
      and max_backlog = ref 0 in
      (* Surface the open-loop backlog as a telemetry gauge (and
         Perfetto counter track): the replay overlay the closed-loop
         channels cannot see. Observational only — the probe never
         perturbs the run. *)
      (match tele with
      | Some (_, handle) ->
        Telemetry.set_backlog_probe handle (fun () -> !inflight)
      | None -> ());
      let feed_error = ref None in
      let rr = ref 0 in
      let dispatch (r : Lk_trace.Record.t) =
        let slot =
          if r.core >= 0 then r.core mod threads
          else begin
            let s = !rr in
            rr := (s + 1) mod threads;
            s
          end
        in
        incr arrivals;
        incr inflight;
        if !inflight > !max_backlog then max_backlog := !inflight;
        let arrival = r.arrival and phase = r.phase in
        let reads = r.reads and writes = r.writes in
        Core.submit cpus.(slot)
          ~gen:(fun () ->
            let tx =
              Workload.synthesize body rngs.(slot) ~threads ~thread:slot
                ~reads ~writes
            in
            List.iter
              (function
                | Program.Incr a ->
                  Hashtbl.replace expected a
                    (1 + Option.value ~default:0 (Hashtbl.find_opt expected a))
                | Program.Add _ | Program.Read _ | Program.Write _
                | Program.Compute _ | Program.Fault ->
                  ())
              tx.Program.ops;
            tx)
          ~notify:(fun ~started ->
            decr inflight;
            incr completed;
            phases.(phase) <- phases.(phase) + 1;
            Stats.record qdelay (started - arrival);
            Stats.record sojourn (Sim.now sim - arrival))
      in
      let seal_all () = Array.iter Core.seal cpus in
      (* Pull-one-ahead feeder: at most one unscheduled record is in
         memory at any time, so replay is O(1) in trace length. *)
      let rec feed () =
        let live = ref true in
        while !live do
          match ol.Workload_source.next () with
          | Error e ->
            feed_error := Some e;
            seal_all ();
            live := false
          | Ok None ->
            seal_all ();
            live := false
          | Ok (Some r) ->
            if r.Lk_trace.Record.arrival <= Sim.now sim then dispatch r
            else begin
              Sim.schedule_at sim ~time:r.Lk_trace.Record.arrival (fun () ->
                  dispatch r;
                  feed ());
              live := false
            end
        done
      in
      feed ();
      let post_run () =
        match !feed_error with
        | Some e ->
          failwith
            (Printf.sprintf "Runner.replay: %s/%s: %s" sysconf.Sysconf.name
               workload_name e)
        | None -> ()
      in
      let collect () =
        Some
          {
            arrivals = !arrivals;
            completed = !completed;
            max_backlog = !max_backlog;
            queue_delay_p50 = Stats.percentile qdelay 50.;
            queue_delay_p95 = Stats.percentile qdelay 95.;
            queue_delay_p99 = Stats.percentile qdelay 99.;
            sojourn_p50 = Stats.percentile sojourn 50.;
            sojourn_p95 = Stats.percentile sojourn 95.;
            sojourn_p99 = Stats.percentile sojourn 99.;
            phase_mix =
              Array.to_list phases
              |> List.mapi (fun i n -> (i, n))
              |> List.filter (fun (_, n) -> n > 0);
          }
      in
      (cpus, post_run, collect)
  in
  let (), perf_sample =
    Perf.observe sim (fun () -> Sim.run ~limit:cycle_limit sim)
  in
  Perf.note perf_sample;
  post_run ();
  if !finished <> threads then
    failwith
      (Printf.sprintf "Runner.run: %s/%s/%d threads: only %d threads finished"
         sysconf.Sysconf.name workload_name threads !finished);
  Protocol.check_invariants protocol;
  (* Serializability: replay the committed sections in completion order
     and check every observed read. *)
  (match oracle_handle with
  | None -> ()
  | Some o -> (
    match Lk_htm.Oracle.verify o with
    | Ok () -> ()
    | Error v ->
      failwith
        (Format.asprintf "Runner.run: %s/%s: serializability violated: %a"
           sysconf.Sysconf.name workload_name
           Lk_htm.Oracle.pp_violation v)));
  (match sanitizer with
  | None -> ()
  | Some s -> (
    match Lk_check.Sanitizer.finish s with
    | [] -> ()
    | v :: _ as vs ->
      failwith
        (Printf.sprintf "Runner.run: %s/%s: invariant sanitizer: %s%s"
           sysconf.Sysconf.name workload_name
           (Lk_check.Invariant.violation_to_string v)
           (match List.length vs with
           | 1 -> ""
           | n -> Printf.sprintf " (+%d more)" (n - 1)))));
  let cycles =
    Array.fold_left (fun acc cpu -> max acc (Core.finish_time cpu)) 0 cpus
  in
  let htm_commits = ref 0
  and stl_commits = ref 0
  and lock_commits = ref 0
  and sw_commits = ref 0
  and aborts = ref 0
  and rejects = ref 0
  and parks = ref 0
  and attempts = ref 0
  and wasted = ref 0 in
  let mix = Array.make Reason.count 0 in
  let wasted_mix = Array.make Reason.count 0 in
  for i = 0 to threads - 1 do
    let cs = Runtime.core_stats runtime (core_of i) in
    htm_commits := !htm_commits + cs.Runtime.commits;
    stl_commits := !stl_commits + cs.Runtime.stl_commits;
    lock_commits := !lock_commits + cs.Runtime.lock_commits;
    sw_commits := !sw_commits + cs.Runtime.sw_commits;
    aborts := !aborts + cs.Runtime.aborts;
    rejects := !rejects + cs.Runtime.rejects_received;
    parks := !parks + cs.Runtime.parks;
    attempts := !attempts + cs.Runtime.attempts_at_commit;
    wasted := !wasted + cs.Runtime.wasted;
    Array.iteri
      (fun i n -> mix.(i) <- mix.(i) + n)
      cs.Runtime.abort_reasons;
    Array.iteri
      (fun i n -> wasted_mix.(i) <- wasted_mix.(i) + n)
      cs.Runtime.wasted_by_reason
  done;
  (match tele with
  | Some (req, handle) -> req.consume handle
  | None -> ());
  let count = Runtime.count runtime in
  let latency = Runtime.tx_latency_hdr runtime in
  ( store,
    {
    system = sysconf.Sysconf.name;
    workload = workload_name;
    threads;
    cache;
    cycles;
    commit_rate = Runtime.commit_rate runtime;
    htm_commits = !htm_commits;
    stl_commits = !stl_commits;
    lock_commits = !lock_commits;
    sw_commits = !sw_commits;
    aborts = !aborts;
    abort_mix = List.map (fun r -> (r, mix.(Reason.index r))) Reason.all;
    wasted_cycles = !wasted;
    wasted_by_reason =
      List.map (fun r -> (r, wasted_mix.(Reason.index r))) Reason.all;
    breakdown = Accounting.total acct;
    rejects = !rejects;
    parks = !parks;
    wakeups = count Ledger.Wake;
    switches_granted = count Ledger.Switch_granted;
    switches_denied = count Ledger.Switch_denied;
    spilled_lines = count Ledger.Spill;
    lock_dwell_cycles = Stats.hdr_sum (Runtime.lock_dwell_hdr runtime);
    clock_advances = count Ledger.Clock_advance;
    watchdog_rescues = Runtime.watchdog_rescues runtime;
    network_messages = Network.messages_sent net;
    network_flits = Network.flits_sent net;
    oracle_sections =
      (match oracle_handle with
      | None -> 0
      | Some o -> Lk_htm.Oracle.size o);
    avg_attempts_per_commit =
      (if !htm_commits = 0 then 0.0
       else float_of_int !attempts /. float_of_int !htm_commits);
    tx_latency_p50 = Stats.percentile latency 50.;
    tx_latency_p95 = Stats.percentile latency 95.;
    tx_latency_p99 = Stats.percentile latency 99.;
    open_loop = collect_open ();
  } )

type options = {
  seed : int;
  scale : float;
  machine : Config.t;
  oracle : bool;
  on_runtime : Runtime.t -> unit;
  placement : placement;
  cycle_limit : int;
  queue_backend : Lk_engine.Event_queue.backend;
  check : bool;
  telemetry : telemetry_request option;
}

let default_options =
  {
    seed = 1;
    scale = 1.0;
    machine = Config.machine ();
    oracle = true;
    on_runtime = (fun _ -> ());
    placement = Compact;
    cycle_limit = 1 lsl 30;
    queue_backend = Lk_engine.Event_queue.Wheel;
    check = false;
    telemetry = None;
  }

let run ?(options = default_options) ~sysconf ~workload ~threads () =
  let {
    seed;
    scale;
    machine;
    oracle;
    on_runtime;
    placement;
    cycle_limit;
    queue_backend;
    check;
    telemetry;
  } =
    options
  in
  let program = Workload.generate workload ~threads ~seed ~scale in
  let store, result =
    execute ~queue_backend ~check ?telemetry ~machine ~oracle ~on_runtime
      ~placement ~cycle_limit ~sysconf
      ~mode:
        (Closed
           { program; barrier_every = workload.Workload.barrier_every })
      ~workload_name:workload.Workload.name ~cache:machine.Config.cache ()
  in
  (* End-to-end atomicity check: committed hot counters must equal the
     increments the program performs. *)
  List.iter
    (fun (addr, expected) ->
      let got = Store.committed store addr in
      if got <> expected then
        failwith
          (Printf.sprintf
             "Runner.run: %s/%s: conservation violated at %#x: %d <> %d"
             sysconf.Sysconf.name workload.Workload.name addr got expected))
    (Workload.expected_hot_increments workload ~threads ~seed ~scale);
  result

let run_program ?(options = default_options) ?(name = "custom") ~sysconf
    ~program () =
  let {
    machine;
    oracle;
    on_runtime;
    placement;
    cycle_limit;
    queue_backend;
    check;
    telemetry;
    seed = _;
    scale = _;
  } =
    options
  in
  (match Lk_cpu.Program.validate program with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Runner.run_program: " ^ msg));
  List.iter
    (fun addr ->
      (* Lines 0-1 hold the fallback lock, line 2 the global version
         clock, line 3 the software-mode gate. *)
      if addr < 256 then
        invalid_arg
          (Printf.sprintf
             "Runner.run_program: address %#x collides with the reserved \
              lock/clock/gate lines"
             addr))
    (Lk_cpu.Program.touched_addresses program);
  let _, result =
    execute ~queue_backend ~check ?telemetry ~machine ~oracle ~on_runtime
      ~placement ~cycle_limit ~sysconf
      ~mode:(Closed { program; barrier_every = None })
      ~workload_name:name ~cache:machine.Config.cache ()
  in
  result

let replay ?(options = default_options) ~sysconf ~open_loop ~threads () =
  let {
    seed;
    machine;
    oracle;
    on_runtime;
    placement;
    cycle_limit;
    queue_backend;
    check;
    telemetry;
    scale = _;
  } =
    options
  in
  (match Workload.validate open_loop.Workload_source.body with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Runner.replay: body profile: " ^ msg));
  let expected = Hashtbl.create 64 in
  let store, result =
    execute ~queue_backend ~check ?telemetry ~machine ~oracle ~on_runtime
      ~placement ~cycle_limit ~sysconf
      ~mode:(Open { ol = open_loop; threads; seed; expected })
      ~workload_name:open_loop.Workload_source.trace_name
      ~cache:machine.Config.cache ()
  in
  (* Conservation, open-loop flavour: hot increments are tallied as
     bodies are synthesised, so the check needs no second trace pass. *)
  Hashtbl.iter
    (fun addr want ->
      let got = Store.committed store addr in
      if got <> want then
        failwith
          (Printf.sprintf
             "Runner.replay: %s/%s: conservation violated at %#x: %d <> %d"
             sysconf.Sysconf.name open_loop.Workload_source.trace_name addr
             got want))
    expected;
  result

let run_source ?(options = default_options) ~sysconf ~source ~threads () =
  match (source : Workload_source.t) with
  | Workload_source.Workload workload -> run ~options ~sysconf ~workload ~threads ()
  | Workload_source.Program { name; program } ->
    if Array.length program <> threads then
      invalid_arg
        (Printf.sprintf
           "Runner.run_source: %d threads requested but the program has %d"
           threads (Array.length program));
    run_program ~options ~name ~sysconf ~program ()
  | Workload_source.Replay open_loop ->
    replay ~options ~sysconf ~open_loop ~threads ()

let abort_fraction r reason =
  if r.aborts = 0 then 0.0
  else
    float_of_int (List.assoc reason r.abort_mix) /. float_of_int r.aborts

let pp ppf r =
  Format.fprintf ppf
    "@[<v>%s / %s / %d threads: %d cycles, commit rate %.2f, %d commits \
     (%d stl, %d lock, %d sw), %d aborts@]"
    r.system r.workload r.threads r.cycles r.commit_rate r.htm_commits
    r.stl_commits r.lock_commits r.sw_commits r.aborts

(* --- JSON codec --------------------------------------------------------- *)

(* One member per [result] field, in declaration order; [abort_mix] and
   [breakdown] become label-keyed objects. The cache and the CLI's
   [--format json] share this encoding, so round-tripping is exercised
   on every warm-cache run. *)
let json_of_open_loop o =
  Json.Obj
    [
      ("arrivals", Json.Int o.arrivals);
      ("completed", Json.Int o.completed);
      ("max_backlog", Json.Int o.max_backlog);
      ("queue_delay_p50", Json.Int o.queue_delay_p50);
      ("queue_delay_p95", Json.Int o.queue_delay_p95);
      ("queue_delay_p99", Json.Int o.queue_delay_p99);
      ("sojourn_p50", Json.Int o.sojourn_p50);
      ("sojourn_p95", Json.Int o.sojourn_p95);
      ("sojourn_p99", Json.Int o.sojourn_p99);
      ( "phase_mix",
        Json.Obj
          (List.map
             (fun (phase, n) -> (string_of_int phase, Json.Int n))
             o.phase_mix) );
    ]

let json_of_result r =
  Json.Obj
    [
      ("schema", Json.Int Schema.version);
      ("system", Json.String r.system);
      ("workload", Json.String r.workload);
      ("threads", Json.Int r.threads);
      ("cache", Json.String (Config.cache_profile_id r.cache));
      ("cycles", Json.Int r.cycles);
      ("commit_rate", Json.Float r.commit_rate);
      ("htm_commits", Json.Int r.htm_commits);
      ("stl_commits", Json.Int r.stl_commits);
      ("lock_commits", Json.Int r.lock_commits);
      ("sw_commits", Json.Int r.sw_commits);
      ("aborts", Json.Int r.aborts);
      ( "abort_mix",
        Json.Obj
          (List.map
             (fun (reason, n) -> (Reason.label reason, Json.Int n))
             r.abort_mix) );
      ("wasted_cycles", Json.Int r.wasted_cycles);
      ( "wasted_by_reason",
        Json.Obj
          (List.map
             (fun (reason, n) -> (Reason.label reason, Json.Int n))
             r.wasted_by_reason) );
      ( "breakdown",
        Json.Obj
          (List.map
             (fun (cat, n) -> (Accounting.label cat, Json.Int n))
             r.breakdown) );
      ("rejects", Json.Int r.rejects);
      ("parks", Json.Int r.parks);
      ("wakeups", Json.Int r.wakeups);
      ("switches_granted", Json.Int r.switches_granted);
      ("switches_denied", Json.Int r.switches_denied);
      ("spilled_lines", Json.Int r.spilled_lines);
      ("lock_dwell_cycles", Json.Int r.lock_dwell_cycles);
      ("clock_advances", Json.Int r.clock_advances);
      ("watchdog_rescues", Json.Int r.watchdog_rescues);
      ("network_messages", Json.Int r.network_messages);
      ("network_flits", Json.Int r.network_flits);
      ("oracle_sections", Json.Int r.oracle_sections);
      ("avg_attempts_per_commit", Json.Float r.avg_attempts_per_commit);
      ("tx_latency_p50", Json.Int r.tx_latency_p50);
      ("tx_latency_p95", Json.Int r.tx_latency_p95);
      ("tx_latency_p99", Json.Int r.tx_latency_p99);
      ( "open_loop",
        match r.open_loop with
        | None -> Json.Null
        | Some o -> json_of_open_loop o );
    ]

let result_to_json r = Json.to_string (json_of_result r)

let ( let* ) = Result.bind

let open_loop_of_json_value v =
  let int name = let* m = Json.member name v in Json.to_int m in
  let* arrivals = int "arrivals" in
  let* completed = int "completed" in
  let* max_backlog = int "max_backlog" in
  let* queue_delay_p50 = int "queue_delay_p50" in
  let* queue_delay_p95 = int "queue_delay_p95" in
  let* queue_delay_p99 = int "queue_delay_p99" in
  let* sojourn_p50 = int "sojourn_p50" in
  let* sojourn_p95 = int "sojourn_p95" in
  let* sojourn_p99 = int "sojourn_p99" in
  let* phase_mix =
    let* m = Json.member "phase_mix" v in
    let* obj = Json.to_obj m in
    List.fold_left
      (fun acc (key, j) ->
        let* acc = acc in
        match (int_of_string_opt key, j) with
        | Some phase, Json.Int n when phase >= 0 -> Ok ((phase, n) :: acc)
        | _ ->
          Error
            (Printf.sprintf "phase_mix: bad entry %S: %s" key
               (Json.to_string j)))
      (Ok []) obj
    |> Result.map List.rev
  in
  Ok
    {
      arrivals;
      completed;
      max_backlog;
      queue_delay_p50;
      queue_delay_p95;
      queue_delay_p99;
      sojourn_p50;
      sojourn_p95;
      sojourn_p99;
      phase_mix;
    }

let result_of_json_value v =
  let int name = let* m = Json.member name v in Json.to_int m in
  let float name = let* m = Json.member name v in Json.to_float m in
  let str name = let* m = Json.member name v in Json.to_str m in
  let* () =
    match Json.member "schema" v with
    | Error _ ->
      Error
        (Printf.sprintf
           "missing \"schema\" member (result predates schema v%d); re-run \
            to regenerate"
           Schema.version)
    | Ok m ->
      let* s = Json.to_int m in
      Schema.check s
  in
  let labelled name all label of_pairs =
    let* m = Json.member name v in
    let* obj = Json.to_obj m in
    let* pairs =
      List.fold_left
        (fun acc key ->
          let* acc = acc in
          match List.assoc_opt (label key) obj with
          | Some (Json.Int n) -> Ok ((key, n) :: acc)
          | Some j ->
            Error
              (Printf.sprintf "%s.%s: expected int, got %s" name (label key)
                 (Json.to_string j))
          | None ->
            Error (Printf.sprintf "%s: missing count for %S" name (label key)))
        (Ok []) all
    in
    Ok (of_pairs (List.rev pairs))
  in
  let* system = str "system" in
  let* workload = str "workload" in
  let* threads = int "threads" in
  let* cache =
    let* id = str "cache" in
    match Config.cache_profile_of_id id with
    | Some c -> Ok c
    | None -> Error (Printf.sprintf "unknown cache profile %S" id)
  in
  let* cycles = int "cycles" in
  let* commit_rate = float "commit_rate" in
  let* htm_commits = int "htm_commits" in
  let* stl_commits = int "stl_commits" in
  let* lock_commits = int "lock_commits" in
  let* sw_commits = int "sw_commits" in
  let* aborts = int "aborts" in
  let* abort_mix = labelled "abort_mix" Reason.all Reason.label Fun.id in
  let* wasted_cycles = int "wasted_cycles" in
  let* wasted_by_reason =
    labelled "wasted_by_reason" Reason.all Reason.label Fun.id
  in
  let* breakdown =
    labelled "breakdown" Accounting.categories Accounting.label Fun.id
  in
  let* rejects = int "rejects" in
  let* parks = int "parks" in
  let* wakeups = int "wakeups" in
  let* switches_granted = int "switches_granted" in
  let* switches_denied = int "switches_denied" in
  let* spilled_lines = int "spilled_lines" in
  let* lock_dwell_cycles = int "lock_dwell_cycles" in
  let* clock_advances = int "clock_advances" in
  let* watchdog_rescues = int "watchdog_rescues" in
  let* network_messages = int "network_messages" in
  let* network_flits = int "network_flits" in
  let* oracle_sections = int "oracle_sections" in
  let* avg_attempts_per_commit = float "avg_attempts_per_commit" in
  let* tx_latency_p50 = int "tx_latency_p50" in
  let* tx_latency_p95 = int "tx_latency_p95" in
  let* tx_latency_p99 = int "tx_latency_p99" in
  let* open_loop =
    let* m = Json.member "open_loop" v in
    match m with
    | Json.Null -> Ok None
    | m -> Result.map Option.some (open_loop_of_json_value m)
  in
  Ok
    {
      system;
      workload;
      threads;
      cache;
      cycles;
      commit_rate;
      htm_commits;
      stl_commits;
      lock_commits;
      sw_commits;
      aborts;
      abort_mix;
      wasted_cycles;
      wasted_by_reason;
      breakdown;
      rejects;
      parks;
      wakeups;
      switches_granted;
      switches_denied;
      spilled_lines;
      lock_dwell_cycles;
      clock_advances;
      watchdog_rescues;
      network_messages;
      network_flits;
      oracle_sections;
      avg_attempts_per_commit;
      tx_latency_p50;
      tx_latency_p95;
      tx_latency_p99;
      open_loop;
    }

let result_of_json s =
  let* v = Json.of_string s in
  result_of_json_value v
