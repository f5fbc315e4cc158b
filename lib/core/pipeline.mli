(** End-to-end analysis pipeline: bytecode → decompile → facts →
    fixpoint → reports. The per-contract unit of work the paper runs
    over the whole blockchain (§6: combined 120 s cutoff for
    decompilation plus the information-flow analysis).

    {!run} on a {!request} is the {e single} entry point every caller
    (scheduler, experiments, CLIs, bench) goes through; it is where the
    content-addressed {!Cache} keys are derived, so memoization is
    transparent and uniform. A result is a function of the bytecode and
    the config alone: no chain state enters the analysis, so a verdict
    never goes stale while its code is unchanged.

    The pipeline is {b phase-split} where config dependence begins:

    - the {b front end} — decompile → {!Facts.compute} — depends only
      on the bytecode, and its artifact is cached under
      [(keccak bytecode, "frontend", analysis_version)];
    - the {b back end} — fixpoint + detectors — depends on the
      {!Config}, and its result is cached under
      [(keccak bytecode, Config.fingerprint, analysis_version)].

    An ablation sweep that analyzes one corpus under several configs
    (the Fig. 8 experiments) therefore decompiles and extracts facts
    for each contract exactly once, rerunning only the fixpoint per
    config. *)

(** Coarse classification of a per-contract failure, for corpus
    reports that must distinguish budget exhaustion from hostile
    bytecode from machine trouble:
    - [Timeout] — the {!Deadline} (or a phase-boundary check) cut the
      analysis; always paired with [timed_out = true];
    - [Decode] — the input was not valid hex;
    - [Decompile] — the decompiler rejected the bytecode;
    - [Analysis] — fact extraction / fixpoint / detectors failed
      deterministically on this contract;
    - [Io] — a transient environment failure (disk, injected fault);
      the {!Scheduler} retries these once;
    - [Fatal] — a resource or logic failure ([Out_of_memory],
      [Stack_overflow], unexpected exceptions). *)
type error_kind = Timeout | Decode | Decompile | Analysis | Io | Fatal

val error_kind_id : error_kind -> string
(** Stable lower-case token (["timeout"], ["io"], ...) used by the
    codec and the CLIs. *)

val error_kind_of_id : string -> error_kind option

type result = {
  reports : Vulns.report list;
  tac_loc : int;          (** 3-address statements (the paper's corpus unit) *)
  blocks : int;
  analysis_rounds : int;  (** fixpoint rounds taken *)
  elapsed_s : float;
  timed_out : bool;
  error : string option;  (** per-contract failure, if any *)
  error_kind : error_kind option;
      (** classification of the failure; [Some Timeout] iff
          [timed_out] *)
}

val empty_result : result

(** {1 Analysis requests} *)

type input =
  | Runtime of string  (** raw runtime bytecode *)
  | Hex of string
      (** hex-encoded runtime bytecode (the format of blockchain
          dumps); [0x] prefix and whitespace tolerated. Malformed hex
          (odd digit count, bad characters) is a clean per-contract
          failure — {!run} returns a result with [error] set, it never
          raises. *)

type request = {
  code : input;
  cfg : Config.t;
  timeout_s : float;
}

val request : ?cfg:Config.t -> ?timeout_s:float -> input -> request
(** Smart constructor; [cfg] defaults to {!Config.default}, [timeout_s]
    to the paper's 120 s cutoff. *)

val resolve_input : input -> (string, string) Stdlib.result
(** Runtime bytecode of an input, or a decode-error message. *)

val run : request -> result
(** Analyze one contract. On expiry of [timeout_s] the result carries
    [timed_out = true], no reports, the {e real} elapsed time, and the
    stats of every phase that completed (e.g. [tac_loc]/[blocks] when
    decompilation finished before the cutoff). Expected
    decompile/analysis exceptions from malformed bytecode are
    contained and recorded in [error]; asynchronous/fatal exceptions
    ([Out_of_memory], [Stack_overflow], [Assert_failure], ...)
    propagate — the {!Scheduler} isolates those per contract.

    When caching is enabled (the default), both phases are memoized in
    the process-wide phase-split {!Cache} (see the module preamble for
    the key scheme). Budget accounting covers the {e sum} of phases: a
    back-end entry records front-end + back-end cost in [elapsed_s]
    and is only served to a request whose [timeout_s] exceeds it; a
    front-end artifact likewise only stands in for the front end when
    its recorded cost fits the budget (an entry refused on those
    grounds is counted as [rejected], not as a hit). Timed-out results
    are never cached — so caching is observationally transparent. *)

val flagged_kinds : result -> Vulns.kind list
(** Distinct vulnerability kinds present in the reports, sorted. *)

val flags : result -> Vulns.kind -> bool
(** Is any report of this kind present? *)

(** {1 The analysis phases}

    Exposed for the phase-split tests and the bench harness; ordinary
    callers go through {!run}, which composes them (and caches each). *)

type frontend = {
  fe_facts : (Facts.t, error_kind * string) Stdlib.result;
      (** [Error (kind, msg)] = deterministic decompile/facts failure
          for this bytecode (cached like any other artifact) *)
  fe_tac_loc : int;
  fe_blocks : int;
  fe_elapsed_s : float;
      (** front-end cost, charged against the budget of every request
          that reuses the artifact *)
}
(** The config-independent front-end artifact: TAC program stats plus
    the fact database ({!Facts.t}, which carries the program). *)

val compute_frontend :
  timeout_s:float -> string -> (frontend, result) Stdlib.result
(** Decompile and extract facts under a {!Deadline} of [timeout_s]:
    the cutoff is enforced {e inside} the decompiler worklist, not
    just at phase boundaries. [Error r] is a mid-phase timeout; [r] is
    the final (never cached) timed-out result with real elapsed time
    and completed phase stats. *)

val backend : cfg:Config.t -> ?timeout_s:float -> frontend -> result
(** Fixpoint + detectors on an artifact. Never mutates the artifact —
    it may be shared by concurrent scheduler domains. The result's
    [elapsed_s] is [fe_elapsed_s] {e plus} the back-end run time.
    [timeout_s] is the request's whole-pipeline budget: the phase runs
    under a {!Deadline} of what the front end left of it, so a
    pathological fixpoint returns a [timed_out] result (with the
    front-end stats intact) instead of running unbounded. Omitting it
    runs unbounded (the bench harness measuring raw phase cost). *)

(** {1 The process-wide phase-split cache}

    Two cache instances per process — front-end artifacts and back-end
    results — shared by every scheduler domain and, when the disk tier
    is enabled, sharing one directory ([*.fe] / [*.cache] entries).
    Configured from the environment at first use —
    [ETHAINTER_CACHE_DIR] (disk tier), [ETHAINTER_CACHE_CAPACITY]
    (memory-tier LRU bound per instance), [ETHAINTER_NO_CACHE] (start
    disabled) — and overridable programmatically (the CLIs'
    [--no-cache] / [--cache-dir]). *)

val analysis_version : string
(** Stamped into every cache key (both phases); bump on any change to
    decompilation, fact generation, the fixpoint or the detectors, so
    stale disk entries from older builds become misses. *)

val cache_enabled : unit -> bool
val set_cache_enabled : bool -> unit
val set_cache_dir : string option -> unit
(** Enable ([Some dir]) or disable ([None]) the disk tier; resets the
    in-memory tiers. *)

val cache_stats : unit -> Cache.stats
(** Back-end (result) cache counters. *)

val frontend_cache_stats : unit -> Cache.stats
(** Front-end (artifact) cache counters — in a multi-config sweep the
    miss count here is the number of decompilation+facts passes
    actually performed. *)

val cache_clear : unit -> unit
(** Drop all in-memory entries of both tiers and reset counters (disk
    entries are kept). *)

val disk_cache_degraded : unit -> bool
(** True iff either cache instance's disk tier has been switched off
    after repeated I/O failures ({!Cache.disk_degraded}) — the daemon
    reports this as [Degraded] on its health endpoint. False when no
    disk tier is configured or the caches have not been created yet. *)

val prewarm : unit -> unit
(** Force both cache instances to be created now (reading the
    environment knobs, sweeping stale disk-tier temp files) rather
    than lazily under the first request — the daemon calls this before
    accepting traffic so request one pays analysis cost only. *)

val pp_cache_stats : Format.formatter -> unit -> unit
(** Two labeled lines, front-end then back-end stats (the CLIs' stats
    output). *)

(** {1 Codecs}

    The disk tier's versioned serializations; both are total —
    [decode_*] returns [None] on any corrupt, truncated or
    wrong-version payload (exposed for the cache tests and the bench
    differential check).

    Both codecs are {b self-validating}: a keccak digest over the
    payload is checked before anything is parsed, so a corrupted disk
    entry (bit rot, injected faults) decodes to [None] — a miss —
    rather than to a plausible-but-wrong value. The result codec is a
    self-describing text format (digest line, then an
    ["ethainter.result.v4"] header). The front-end codec wraps a
    [Marshal] payload in a header carrying the codec version, the
    compiler version (Marshal's format is build-dependent) and the
    digest; the payload is only unmarshalled after the header fully
    validates. *)

val encode_result : result -> string
val decode_result : string -> result option

val encode_frontend : frontend -> string
val decode_frontend : string -> frontend option
