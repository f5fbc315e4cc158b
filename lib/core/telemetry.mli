(** The one telemetry surface.

    Before this module, the process's observability counters were
    scattered over five ad-hoc interfaces — two cache-stats getters on
    {!Pipeline}, {!Ethainter_runtime.Intern.stats},
    {!Ethainter_datalog.Datalog.stats} and
    {!Scheduler.retries_performed} — and every consumer (the daemon's
    [stats] request, the CLIs' [--stats] lines, bench) stitched its own
    subset together. {!capture} takes one coherent snapshot of all of
    them; {!to_pairs} flattens it to the stable key/value form the
    serving protocol speaks; {!pp} renders the human [--stats] lines.

    Subsystems that live {e above} lib/core (the streaming index, a
    daemon) contribute counters by registering a {b source}: a named
    thunk returning key/value pairs, sampled at {!capture} time into
    [snapshot.extras]. This inverts the dependency — the index depends
    on core, never the reverse — while still landing its analysis /
    quarantine / journal counters in the same snapshot everything else
    reads.

    Every numeric in the snapshot is {b cumulative} (monotonic since
    process start, modulo explicit cache clears). Consumers that want a
    per-window count capture twice and {!diff} — the pattern that
    replaced [Scheduler.reset_retries], whose process-wide reset raced
    between concurrent observers. *)

type snapshot = {
  cache_fe : Cache.stats;  (** front-end (artifact) cache *)
  cache_be : Cache.stats;  (** back-end (result) cache *)
  intern_interned : int;
  intern_local_hits : int;
  intern_shared_hits : int;
  intern_inserts : int;
  datalog_plans_built : int;
  datalog_plan_reuses : int;
  scheduler_retries : int;
      (** transient-failure retries ({!Scheduler.retries_performed}),
          monotonic — diff two snapshots for a window *)
  scheduler_quarantine_trips : int;
      (** circuit-breaker open transitions ({!Scheduler.Quarantine}),
          monotonic *)
  scheduler_quarantine_rejections : int;
      (** analyses refused by an open breaker, monotonic *)
  scheduler_quarantine_open : int;
      (** breakers open right now — a gauge: {!diff} keeps the later
          value *)
  extras : (string * (string * float) list) list;
      (** registered sources, sampled at {!capture}; sorted by source
          name, pair keys as the source returned them *)
}

val capture : unit -> snapshot
(** Sample every subsystem now. Each counter is internally coherent
    (its own mutex/Atomic); the snapshot as a whole is not a global
    atomic cut — fine for monotonic counters. A registered source that
    raises contributes no pairs (never fails the capture). *)

val register_source : string -> (unit -> (string * float) list) -> unit
(** [register_source name f] makes {!capture} include [(name, f ())]
    in [extras]. Re-registering a name replaces the previous thunk
    (sources survive their subsystem being rebuilt); thread-safe. The
    thunk runs on whatever thread calls {!capture} — it must be safe
    to call concurrently and should only read counters. *)

val unregister_source : string -> unit

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] subtracts every cumulative counter
    (gauge-like fields — cache [size]/[capacity] — keep [later]'s
    value; extras pairs are subtracted key-wise where present in both,
    kept from [later] otherwise). This is how a test asserts "this
    window performed exactly K back-end misses and zero front-end
    recomputations". *)

val to_pairs : snapshot -> (string * float) list
(** The stable flat key/value form: [cache_fe_*] / [cache_be_*]
    (hits, disk_hits, misses, rejected, evictions, io_errors, size),
    [intern_*], [datalog_plans_built], [datalog_plan_reuses],
    [scheduler_retries], then each source's pairs verbatim. The
    daemon's [stats] response and bench JSON are built from this. *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable multi-line rendering (the CLIs' [--stats] output):
    one labeled line per subsystem, then one per source. *)

(** {1 Codec}

    A versioned, self-validating text serialization (same digest
    discipline as the {!Pipeline} result codec), so snapshots can
    cross a process boundary — bench emitting a snapshot a harness
    diffs later. [decode] is total: corrupt, truncated or
    wrong-version input is [None]. *)

val encode : snapshot -> string
val decode : string -> snapshot option
