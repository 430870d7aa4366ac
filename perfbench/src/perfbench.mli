(** The repository benchmark: host cost of running the simulator.

    A workload is a fixed grid of simulation runs driven through the
    library's public entry points ({!Lockiller.Sim.Runner.run} and
    {!Lockiller.Sim.Runner.replay}). One {e pass} runs the whole grid
    once. An untraced pass measures the end-to-end figures; a traced
    pass additionally times calls into each layer's public functions
    and, through the [on_runtime] handle, re-invokes each run's checks
    and reads its counters after the run. Nothing inside the library is
    instrumented. See [perfbench/README.md]. *)

module Sysconf = Lockiller.Mechanisms.Sysconf
module Config = Lockiller.Sim.Config
module Workload = Lockiller.Stamp.Workload

(** {1 Workloads} *)

type job =
  | Closed of Workload.profile  (** A generated STAMP program. *)
  | Open of { gen : Lockiller.Trace.Gen.profile; body : Workload.profile }
      (** A generated arrival trace, encoded to a file and replayed. *)

type point = {
  label : string;  (** Unique within the workload, e.g. [genome/CGL/32]. *)
  sysconf : Sysconf.t;
  threads : int;
  machine : Config.t;
  job : job;
}

type workload = {
  name : string;
  seed : int;  (** Passed to {!Lockiller.Sim.Runner} and to the trace generator. *)
  scale : float;  (** [Runner.options.scale] of the closed-loop runs. *)
  oracle : bool;
  points : point list;
}

val names : string list
(** ["stamp32"; "mesh256"; "replay"]. *)

val default_seed : int
(** The seed the committed reference digests were made with. *)

val workload : seed:int -> string -> workload
(** The named workload's grid, at the sizes users run by default:
    [Runner.default_options.scale] for the closed-loop runs and the
    default {!Lockiller.Trace.Gen} horizon for the replayed trace.
    Raises [Invalid_argument] on an unknown name. *)

val spot_check : workload -> workload
(** The workload cut to one point per app, taking the systems in turn,
    so that every app and every system of the grid is kept; a
    single-point grid is kept whole. *)

(** {1 Passes} *)

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
  mutable commits : int;  (** HTM + STL + software commits. *)
  mutable sections : int;  (** Every completed critical section. *)
  mutable lock_sections : int;
  mutable rejects : int;
  mutable parks : int;
  mutable wasted_cycles : int;
  mutable core_cycles : int;  (** Breakdown total over participating cores. *)
  mutable aborted_cycles : int;
  mutable trace_gen_s : float;
  mutable trace_read_s : float;
  mutable trace_records : int;
  mutable max_backlog : int;
  mutable pending_sum : float;
  mutable pending_samples : int;
  mutable minor_words : float;  (** Allocated while the runs' kernels ran. *)
}
(** Per-layer sums over a traced pass. *)

type pass = {
  attempted : int;
  failed : int;
  digests : (string * string) list;
      (** [(label, md5 of the result JSON)] in grid order; the digest
          of a failed run is ["failed"]. *)
  run_wall_s : float list;
      (** Host wall seconds of each run, from the [Runner] call to its
          return, in grid order. The layer calls and re-invoked checks
          of a traced pass fall between runs, so they are left out. *)
  run_cpu_s : float list;  (** Process CPU seconds of the same stretches. *)
  cycles : int;  (** Sum of [result.cycles]. *)
  setup_s : float;  (** Sum over runs of call-to-[on_runtime] time. *)
  run_s : float;  (** [Sim.run] wall, from {!Lockiller.Sim.Perf.totals}. *)
  events : int;  (** Fired by [Sim.run], from {!Lockiller.Sim.Perf.totals}. *)
  heap_mb : float;
      (** [Gc] [top_heap_words] of the process at the end of the pass, in
          MB. Process-wide, so only the first pass is a property of the
          grid alone. *)
  layers : layers option;  (** [Some] on traced passes. *)
}

val run_pass :
  ?reference:(string * string) list ->
  ?on_failure:(string -> string -> unit) ->
  scratch:string ->
  traced:bool ->
  workload ->
  pass
(** Run the grid once. A run fails when {!Lockiller.Sim.Runner} raises
    or, when [reference] names its label, when its digest differs from
    the reference; [on_failure label reason] reports each. Replay
    traces are written under the directory [scratch], which must
    exist. *)

val grid_digest : pass -> string
(** One md5 over the pass's per-run digests. *)

(** {1 Reports} *)

val end_to_end : pass list -> (string * float * string) list
(** [(name, value, unit)] of the end-to-end metrics over the untraced
    passes, given in the order they ran: [wall_s] and [cpu_s] add up,
    over the grid, each run's fastest time across the passes;
    [sim_cycles_per_s] is the grid's cycles over that [wall_s]; then
    the median [setup_s], and
    the first pass's [heap_mb] as [peak_heap_mb]: with a fixed seed the
    first pass allocates the same way every time, so the figure
    repeats exactly. *)

val per_layer : traced:pass list -> untraced:pass list -> (string * float * string) list
(** [(name, value, unit)] of the per-layer metrics: medians over the
    traced passes, each with its own bare-kernel probe, plus
    the tracing overhead: traced minus untraced [wall_s], each taken as
    in {!end_to_end}. *)

val read_reference : string -> string -> (string * string) list
(** [read_reference file workload]: the [(label, digest)] lines of
    [workload] in a reference file of [workload label digest] lines. *)
