(** Statistics primitives shared by all simulator components.

    Counters are plain named integers, bundled into a [group] so a
    component can expose everything it counted under one namespace and
    reports can render it uniformly. HDR histograms stand alone: their
    owner hands them out directly. *)

type counter

type hdr
(** A log-linear ("HDR-style") histogram: exact unit buckets below 32,
    then 32 linear sub-buckets per power-of-two octave, so any
    percentile query is within ~3% of the true sample at any
    magnitude. Recording is allocation-free. *)

type group

val group : string -> group
(** [group name] creates an empty counter namespace. *)

val counter : group -> string -> counter
(** Create-or-get the counter [name] inside the group. *)

val incr : counter -> unit
(** Add one to the counter. *)

val add : counter -> int -> unit
(** Add an arbitrary (possibly negative) amount to the counter. *)

val value : counter -> int
(** Current counter value (0 at creation). *)

val counters : group -> (string * int) list
(** All counters of the group with their values, sorted by name. *)

val reset : group -> unit
(** Zero every counter in the group (the namespace survives). *)

val pp : Format.formatter -> group -> unit
(** Render the whole group, one counter per line. *)

val hdr : unit -> hdr
(** A fresh, empty log-linear histogram. *)

val record : hdr -> int -> unit
(** Record one sample (negative values clamp to 0). Allocation-free. *)

val hdr_count : hdr -> int
(** Number of samples recorded so far. *)

val hdr_sum : hdr -> int
(** Sum of all samples (0 when empty). *)

val hdr_min : hdr -> int option
(** Smallest sample, or [None] when empty. *)

val hdr_max : hdr -> int option
(** Largest sample, or [None] when empty. *)

val hdr_mean : hdr -> float
(** Mean of the samples; 0 when empty. *)

val percentile : hdr -> float -> int
(** [percentile d p] is the value at rank [ceil (p/100 * count)] —
    e.g. [percentile d 50.] the median, [percentile d 99.] the p99 —
    reported as its bucket's upper bound clamped to the observed
    min/max, so [percentile d 0.] and [percentile d 100.] are exact.
    0 when empty. *)
