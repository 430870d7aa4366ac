module Sysconf = Lockiller.Mechanisms.Sysconf
module Runtime = Lockiller.Mechanisms.Runtime
module Config = Lockiller.Sim.Config
module Runner = Lockiller.Sim.Runner
module Perf = Lockiller.Sim.Perf
module Workload = Lockiller.Stamp.Workload
module Suite = Lockiller.Stamp.Suite
module Program = Lockiller.Cpu.Program
module Accounting = Lockiller.Cpu.Accounting
module Ksim = Lockiller.Engine.Sim
module Stats = Lockiller.Engine.Stats
module Topology = Lockiller.Mesh.Topology
module Network = Lockiller.Mesh.Network
module Protocol = Lockiller.Coherence.Protocol
module Oracle = Lockiller.Htm.Oracle
module Gen = Lockiller.Trace.Gen
module Stream = Lockiller.Trace.Stream

let now = Unix.gettimeofday

(* --- Workloads ---------------------------------------------------------- *)

type job =
  | Closed of Workload.profile
  | Open of { gen : Gen.profile; body : Workload.profile }

type point = {
  label : string;
  sysconf : Sysconf.t;
  threads : int;
  machine : Config.t;
  job : job;
}

type workload = {
  name : string;
  seed : int;
  scale : float;
  oracle : bool;
  points : point list;
}

let names = [ "stamp32"; "mesh256"; "replay" ]
let default_seed = 1

(* Input sizes are the ones users run: [Runner.default_options.scale]
   (the CLI's --scale default) and the trace generator's default
   horizon. Set-up and the end-of-run checks cost the same per run at
   any scale, so a shrunken run would inflate their share. One pass of
   the closed-loop grids fits the time box by keeping only the 32-thread
   column of the paper's thread sweep, which fills the 32-core machine. *)
let threads = 32
let systems = [ Sysconf.cgl; Sysconf.baseline; Sysconf.lockiller ]

let closed_grid machine =
  List.concat_map
    (fun (profile : Workload.profile) ->
      List.map
        (fun (sysconf : Sysconf.t) ->
          {
            label = Printf.sprintf "%s/%s/%d" profile.name sysconf.name threads;
            sysconf;
            threads;
            machine;
            job = Closed profile;
          })
        systems)
    Suite.all

let workload ~seed name =
  let scale = Runner.default_options.scale in
  match name with
  | "stamp32" ->
    { name; seed; scale; oracle = true; points = closed_grid (Config.machine ()) }
  | "mesh256" ->
    {
      name;
      seed;
      scale;
      oracle = true;
      points = closed_grid (Config.machine ~cores:256 ());
    }
  | "replay" ->
    let body =
      match Result.bind (Suite.spec_of_name "vacation") Suite.realise with
      | Ok p -> p
      | Error e -> invalid_arg e
    in
    {
      name;
      seed;
      scale;
      oracle = false;
      points =
        [
          {
            label = "vacation/LockillerTM/16";
            sysconf = Sysconf.lockiller;
            threads = 16;
            machine = Config.machine ();
            job = Open { gen = { Gen.default with cores = 16 }; body };
          };
        ];
    }
  | _ -> invalid_arg ("Perfbench.workload: unknown workload " ^ name)

(* One system per app, in turn (grid points are app-major): every app
   and every system at a third of the cost of a pass. *)
let spot_check wl =
  let n = List.length systems in
  { wl with points = List.filteri (fun i _ -> i mod n = i / n mod n) wl.points }

(* --- Passes ------------------------------------------------------------- *)

type layers = {
  mutable generate_s : float;
  mutable txs : int;
  mutable mesh_build_s : float;
  mutable coherence_build_s : float;
  mutable post_s : float;
  mutable check_s : float;
  mutable oracle_s : float;
  mutable oracle_sections : int;
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable invalidations : int;
  mutable coherence_rejects : int;
  mutable messages : int;
  mutable flits : int;
  mutable starts : int;
  mutable commits : int;
  mutable sections : int;
  mutable lock_sections : int;
  mutable rejects : int;
  mutable parks : int;
  mutable wasted_cycles : int;
  mutable core_cycles : int;
  mutable aborted_cycles : int;
  mutable trace_gen_s : float;
  mutable trace_read_s : float;
  mutable trace_records : int;
  mutable max_backlog : int;
  mutable pending_sum : float;
  mutable pending_samples : int;
  mutable minor_words : float;
}

let new_layers () =
  {
    generate_s = 0.;
    txs = 0;
    mesh_build_s = 0.;
    coherence_build_s = 0.;
    post_s = 0.;
    check_s = 0.;
    oracle_s = 0.;
    oracle_sections = 0;
    l1_hits = 0;
    l1_misses = 0;
    invalidations = 0;
    coherence_rejects = 0;
    messages = 0;
    flits = 0;
    starts = 0;
    commits = 0;
    sections = 0;
    lock_sections = 0;
    rejects = 0;
    parks = 0;
    wasted_cycles = 0;
    core_cycles = 0;
    aborted_cycles = 0;
    trace_gen_s = 0.;
    trace_read_s = 0.;
    trace_records = 0;
    max_backlog = 0;
    pending_sum = 0.;
    pending_samples = 0;
    minor_words = 0.;
  }

type pass = {
  attempted : int;
  failed : int;
  digests : (string * string) list;
  run_wall_s : float list;
  run_cpu_s : float list;
  cycles : int;
  setup_s : float;
  run_s : float;
  events : int;
  heap_mb : float;
  layers : layers option;
}

let timed f =
  let t = now () in
  let x = f () in
  (x, now () -. t)

(* Rebuild the run's fabric and coherence layers outside the run, the
   way [Config.build] does for the benchmark's mesh machines, to time
   each layer's construction. *)
let time_builds l (m : Config.t) =
  let net, mesh_s =
    timed (fun () ->
        Network.create ~link_latency:m.link_latency
          ~router_latency:m.router_latency ~contention:m.noc_contention
          (Topology.create ~rows:m.rows ~cols:m.cols))
  in
  let sim = Ksim.create () in
  let (_ : Protocol.t), coh_s =
    timed (fun () -> Protocol.create ~sim ~network:net m.protocol)
  in
  l.mesh_build_s <- l.mesh_build_s +. mesh_s;
  l.coherence_build_s <- l.coherence_build_s +. coh_s

(* Watch a traced run from its [on_runtime] callback to the kernel's
   last quiescence: sample the resident event count every 64th event,
   and count the minor words allocated. [Perf]'s own sample reads
   [Gc.quick_stat], whose minor-words figure advances only at minor
   collections, so it moves in whole minor-heap chunks from pass to
   pass; [Gc.minor_words] is exact. Neither hook allocates. *)
let watch l rt =
  let sim = Protocol.sim (Runtime.protocol rt) in
  let n = ref 0 and sum = ref 0 and samples = ref 0 in
  Ksim.set_observer sim
    (Some
       (fun () ->
         incr n;
         if !n land 63 = 0 then begin
           sum := !sum + Ksim.pending sim;
           incr samples
         end));
  let words = [| Gc.minor_words (); 0. |] in
  Ksim.on_quiescent sim (fun () -> words.(1) <- Gc.minor_words ());
  fun () ->
    l.pending_sum <- l.pending_sum +. float_of_int !sum;
    l.pending_samples <- l.pending_samples + !samples;
    l.minor_words <- l.minor_words +. (words.(1) -. words.(0))

let counter stats name =
  match List.assoc_opt name (Stats.counters stats) with
  | Some v -> v
  | None -> 0

(* The layers' counters of a finished run. *)
let read_counters l (p : point) rt (r : Runner.result) =
  let proto = Runtime.protocol rt in
  let ps = Protocol.stats proto in
  l.l1_hits <- l.l1_hits + counter ps "l1_hits";
  l.l1_misses <- l.l1_misses + counter ps "l1_misses";
  l.invalidations <- l.invalidations + counter ps "invalidations";
  l.coherence_rejects <-
    l.coherence_rejects + counter ps "owner_rejects"
    + counter ps "sharer_rejects"
    + counter ps "signature_rejects";
  let net = Protocol.network proto in
  l.messages <- l.messages + Network.messages_sent net;
  l.flits <- l.flits + Network.flits_sent net;
  for c = 0 to p.machine.cores - 1 do
    let cs = Runtime.core_stats rt c in
    l.starts <- l.starts + cs.starts;
    l.commits <- l.commits + cs.commits + cs.stl_commits + cs.sw_commits
  done;
  l.sections <-
    l.sections + r.htm_commits + r.stl_commits + r.lock_commits
    + r.sw_commits;
  l.lock_sections <- l.lock_sections + r.lock_commits;
  l.rejects <- l.rejects + r.rejects;
  l.parks <- l.parks + r.parks;
  l.wasted_cycles <- l.wasted_cycles + r.wasted_cycles;
  List.iter
    (fun (cat, n) ->
      l.core_cycles <- l.core_cycles + n;
      if cat = Accounting.Aborted then
        l.aborted_cycles <- l.aborted_cycles + n)
    r.breakdown

let check_stream = function Ok x -> x | Error e -> failwith e

let trace_path ~scratch wl = Filename.concat scratch (wl.name ^ ".lktrace")

(* Generate the point's trace and encode it to [path]; returns the
   record count. *)
let write_trace ~path ~seed gen =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let w = Stream.writer_to_channel Stream.Binary oc in
      check_stream
        (Gen.generate gen ~seed ~emit:(fun r -> check_stream (Stream.write w r))))

let with_reader path f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> f (check_stream (Stream.reader_of_channel ~name:path ic)))

(* One simulation. Returns the result and the host time from the entry
   call to the [on_runtime] callback and to the return. *)
let simulate ~scratch ~layers wl (p : point) =
  let ready = ref nan and handle = ref None and flush = ref ignore in
  let options =
    {
      Runner.default_options with
      seed = wl.seed;
      scale = wl.scale;
      machine = p.machine;
      oracle = wl.oracle;
      on_runtime =
        (fun rt ->
          ready := now ();
          handle := Some rt;
          Option.iter (fun l -> flush := watch l rt) layers);
    }
  in
  let t0 = now () in
  let result =
    match p.job with
    | Closed profile ->
      Runner.run ~options ~sysconf:p.sysconf ~workload:profile
        ~threads:p.threads ()
    | Open { gen; body } ->
      let path = trace_path ~scratch wl in
      let records, gen_s =
        timed (fun () -> write_trace ~path ~seed:wl.seed gen)
      in
      Option.iter
        (fun l ->
          l.trace_gen_s <- l.trace_gen_s +. gen_s;
          l.trace_records <- l.trace_records + records)
        layers;
      with_reader path (fun reader ->
          let open_loop =
            {
              Lockiller.Sim.Workload_source.trace_name = wl.name;
              next = (fun () -> Stream.read reader);
              body;
            }
          in
          Runner.replay ~options ~sysconf:p.sysconf ~open_loop
            ~threads:p.threads ())
  in
  let t1 = now () in
  !flush ();
  (result, !ready -. t0, t1 -. !ready, Option.get !handle)

(* After a traced run: re-invoke its checks on the finished machine,
   read the layers' counters, and time one read pass over a replayed
   trace. *)
let inspect ~scratch l wl (p : point) rt (r : Runner.result) =
  let proto = Runtime.protocol rt in
  let (), check_s = timed (fun () -> Protocol.check_invariants proto) in
  l.check_s <- l.check_s +. check_s;
  (match Runtime.oracle rt with
  | None -> ()
  | Some o ->
    let v, oracle_s = timed (fun () -> Oracle.verify o) in
    if Result.is_error v then failwith "serializability violated";
    l.oracle_s <- l.oracle_s +. oracle_s;
    l.oracle_sections <- l.oracle_sections + Oracle.size o);
  read_counters l p rt r;
  match r.open_loop with
  | None -> ()
  | Some o ->
    l.max_backlog <- max l.max_backlog o.max_backlog;
    let records, s =
      timed (fun () ->
          with_reader (trace_path ~scratch wl) (fun reader ->
              check_stream
                (Stream.fold reader ~init:0 ~f:(fun n _ -> n + 1))))
    in
    if records <> o.arrivals then failwith "trace read pass disagrees";
    l.trace_read_s <- l.trace_read_s +. s

let digest_of r = Digest.to_hex (Digest.string (Runner.result_to_json r))

(* Layer calls a closed-loop run makes internally, timed from outside. *)
let time_generate l wl (p : point) profile =
  let (), s =
    timed (fun () ->
        let prog =
          Workload.generate profile ~threads:p.threads ~seed:wl.seed
            ~scale:wl.scale
        in
        l.txs <- l.txs + Program.transactions prog;
        ignore
          (Workload.expected_hot_increments profile ~threads:p.threads
             ~seed:wl.seed ~scale:wl.scale))
  in
  l.generate_s <- l.generate_s +. s

let run_pass ?(reference = []) ?(on_failure = fun _ _ -> ()) ~scratch ~traced
    wl =
  let layers = if traced then Some (new_layers ()) else None in
  let attempted = ref 0 and failed = ref 0 and digests = ref [] in
  let walls = ref [] and cpus = ref [] in
  let cycles = ref 0 and setup = ref 0. in
  let p0 = Perf.totals () in
  List.iter
    (fun (p : point) ->
      incr attempted;
      Option.iter
        (fun l ->
          (match p.job with
          | Closed profile -> time_generate l wl p profile
          | Open _ -> ());
          time_builds l p.machine)
        layers;
      let sim0 = Perf.totals () in
      let w = now () and c = Sys.time () in
      let outcome =
        match simulate ~scratch ~layers wl p with
        | x -> Ok x
        | exception e -> Error e
      in
      walls := (now () -. w) :: !walls;
      cpus := (Sys.time () -. c) :: !cpus;
      match outcome with
      | Error e ->
        incr failed;
        digests := (p.label, "failed") :: !digests;
        on_failure p.label (Printexc.to_string e)
      | Ok (r, setup_s, after_s, rt) ->
        let d = digest_of r in
        digests := (p.label, d) :: !digests;
        (match List.assoc_opt p.label reference with
        | Some want when want <> d ->
          incr failed;
          on_failure p.label
            (Printf.sprintf "digest %s differs from reference %s" d want)
        | _ -> ());
        cycles := !cycles + r.cycles;
        setup := !setup +. setup_s;
        Option.iter
          (fun l ->
            let sim1 = Perf.totals () in
            l.post_s <-
              l.post_s
              +. (after_s
                 -. (sim1.total_wall_seconds -. sim0.total_wall_seconds));
            match inspect ~scratch l wl p rt r with
            | () -> ()
            | exception e ->
              incr failed;
              on_failure p.label ("re-invoked check: " ^ Printexc.to_string e))
          layers)
    wl.points;
  let p1 = Perf.totals () in
  {
    attempted = !attempted;
    failed = !failed;
    digests = List.rev !digests;
    run_wall_s = List.rev !walls;
    run_cpu_s = List.rev !cpus;
    cycles = !cycles;
    setup_s = !setup;
    run_s = p1.total_wall_seconds -. p0.total_wall_seconds;
    events = p1.total_events - p0.total_events;
    heap_mb =
      float_of_int
        ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
      /. 1048576.;
    layers;
  }

let sum = List.fold_left ( +. ) 0.

let grid_digest p =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map (fun (l, d) -> l ^ " " ^ d) p.digests)))

(* --- Bare-kernel probe -------------------------------------------------- *)

(* [resident] self-rescheduling events, delays averaging [mean_delay],
   until [events] have fired: the kernel's own cost per event. *)
let kernel_probe ~events ~resident ~mean_delay =
  let resident = max 1 (min resident events) in
  let span = max 1 ((2 * mean_delay) - 1) in
  let sim = Ksim.create () in
  let left = ref (events - resident) and state = ref 0x2545F491 in
  let rec fire () =
    if !left > 0 then begin
      decr left;
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      Ksim.schedule sim ~delay:(1 + ((!state lsr 8) mod span)) fire
    end
  in
  for i = 1 to resident do
    Ksim.schedule sim ~delay:(i mod span) fire
  done;
  let (), s = timed (fun () -> Ksim.run sim) in
  s *. 1e9 /. float_of_int (max 1 (Ksim.events sim))

(* Size the probe to the pass: its event count, its mean resident event
   count, and the delay that lets that many chains cover its simulated
   cycles in that many events. *)
let kernel_ns_per_event p =
  let l = Option.get p.layers in
  let resident = l.pending_sum /. float_of_int (max 1 l.pending_samples) in
  kernel_probe ~events:p.events
    ~resident:(int_of_float (Float.round resident))
    ~mean_delay:
      (int_of_float
         (Float.round
            (resident *. float_of_int p.cycles
            /. float_of_int (max 1 p.events))))

(* --- Reports ------------------------------------------------------------ *)

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b

(* The time metrics add up, over the grid, each run's fastest time
   across passes. On a shared host a slow stretch only ever adds time,
   and runs are short enough that one of a run's passes usually misses
   it, so the sum of minima is the figure least moved by other tenants.
   Set-up time is a median over passes. *)
let fastest f = function
  | [] -> nan
  | p :: ps -> sum (List.fold_left (fun m q -> List.map2 Float.min m (f q)) (f p) ps)

let end_to_end passes =
  let wall = fastest (fun p -> p.run_wall_s) passes in
  [
    ("wall_s", wall, "s");
    ("cpu_s", fastest (fun p -> p.run_cpu_s) passes, "s");
    ("sim_cycles_per_s", ratio (float_of_int (List.hd passes).cycles) wall, "cycles/s");
    ("setup_s", median (List.map (fun p -> p.setup_s) passes), "s");
    ("peak_heap_mb", (List.hd passes).heap_mb, "MB");
  ]

let layer_metrics p =
  let l = Option.get p.layers in
  let kernel_ns = kernel_ns_per_event p in
  let f = float_of_int in
  let events = f p.events in
  [
    ("stamp.generate_s", l.generate_s, "s");
    ("stamp.txs", f l.txs, "count");
    ("mesh.build_s", l.mesh_build_s, "s");
    ("coherence.build_s", l.coherence_build_s, "s");
    ("engine.run_s", p.run_s, "s");
    ("engine.events", events, "count");
    ("engine.events_per_s", ratio events p.run_s, "1/s");
    ("engine.minor_words_per_event", ratio l.minor_words events, "words");
    ( "engine.resident_events",
      ratio l.pending_sum (f l.pending_samples),
      "count" );
    ("engine.kernel_ns_per_event", kernel_ns, "ns");
    ("engine.kernel_share", ratio (events *. kernel_ns *. 1e-9) p.run_s, "ratio");
    ("runner.post_s", l.post_s, "s");
    ("coherence.check_s", l.check_s, "s");
    ("htm.oracle_s", l.oracle_s, "s");
    ("htm.oracle_sections", f l.oracle_sections, "count");
    ("coherence.l1_hit_ratio", ratio (f l.l1_hits) (f (l.l1_hits + l.l1_misses)), "ratio");
    ("coherence.invalidations", f l.invalidations, "count");
    ("coherence.rejects", f l.coherence_rejects, "count");
    ("mesh.messages", f l.messages, "count");
    ("mesh.flits_per_message", ratio (f l.flits) (f l.messages), "flits");
    ("htm.commit_rate", ratio (f l.commits) (f l.starts), "ratio");
    ("htm.wasted_share", ratio (f l.wasted_cycles) (f l.core_cycles), "ratio");
    ("lockiller.rejects", f l.rejects, "count");
    ("lockiller.parks", f l.parks, "count");
    ("lockiller.fallback_share", ratio (f l.lock_sections) (f l.sections), "ratio");
    ("cpu.aborted_share", ratio (f l.aborted_cycles) (f l.core_cycles), "ratio");
    ("trace.gen_s", l.trace_gen_s, "s");
    ("trace.read_s", l.trace_read_s, "s");
    ("trace.records", f l.trace_records, "count");
    ("runner.max_backlog", f l.max_backlog, "count");
  ]

let per_layer ~traced ~untraced =
  let per_pass = List.map layer_metrics traced in
  let wall = fastest (fun p -> p.run_wall_s) in
  List.mapi
    (fun i (name, _, unit) ->
      ( name,
        median (List.map (fun ms -> let _, v, _ = List.nth ms i in v) per_pass),
        unit ))
    (List.hd per_pass)
  @ [ ("bench.trace_overhead_s", wall traced -. wall untraced, "s") ]

let read_reference file wl =
  if not (Sys.file_exists file) then []
  else
    In_channel.with_open_text file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ w; label; d ] when w = wl -> Some (label, d)
           | _ -> None)
