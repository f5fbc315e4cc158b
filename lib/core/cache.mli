(** Content-addressed analysis-result cache.

    The paper runs Ethainter over the whole blockchain (§6), where the
    same runtime bytecode recurs constantly — deployed duplicates on
    mainnet, and the t1/f6/f8 experiment sweeps analyzing overlapping
    corpora. The per-contract analysis is pure given the bytecode and
    the {!Config}, so its result can be memoized under a
    content-derived key (see {!key}).

    Two tiers:
    - an {b in-memory tier}: LRU-bounded hash map, safe for concurrent
      use from {!Scheduler} worker domains (one mutex; lookups and
      insertions are O(1) and never held across a computation);
    - an optional {b on-disk tier}: one file per key under a directory
      ([ETHAINTER_CACHE_DIR] by convention), written with an
      atomic-rename protocol so concurrent writers and crashes never
      leave a torn entry visible. Corrupt, truncated or stale entries
      (the caller's [decode] returns [None] or raises) are deleted and
      treated as misses. Disk hits are promoted into the memory tier.

    The cache is generic in the value type; the caller supplies the
    codec, which must be self-validating (a version header, checked in
    [decode]) since disk entries outlive processes.

    Several cache instances with {e heterogeneous} value types may
    share one directory: each instance names its disk entries
    [<key>.<ext>] with a per-instance [ext] (default ["cache"]), so
    e.g. {!Pipeline}'s front-end artifacts ([*.fe]) and back-end
    results ([*.cache]) coexist under one [ETHAINTER_CACHE_DIR]. *)

type 'v t

type stats = {
  hits : int;        (** memory-tier hits *)
  disk_hits : int;   (** memory misses answered by the disk tier *)
  misses : int;      (** full misses (no entry; value had to be computed) *)
  rejected : int;    (** entries found but refused by the caller's
                         {!find_valid} predicate — the value was
                         recomputed, so these are {e not} hits *)
  evictions : int;   (** LRU evictions from the memory tier, plus
                         disk-tier entries evicted by the size bound *)
  disk_writes : int; (** entries persisted to the disk tier *)
  io_errors : int;   (** disk-tier read/write failures (the entry was
                         skipped, never the request); past a small
                         bound the tier degrades to memory-only for
                         the rest of the process *)
  size : int;        (** current memory-tier entry count *)
  capacity : int;    (** memory-tier LRU bound *)
}

val create :
  ?capacity:int ->
  ?dir:string ->
  ?ext:string ->
  ?max_bytes:int ->
  encode:('v -> string) ->
  decode:(string -> 'v option) ->
  unit -> 'v t
(** [capacity] bounds the memory tier (default 8192 entries; at least
    1). [dir] enables the disk tier; it is created on first write if
    missing (concurrent creators may race — both win), and a directory
    that cannot be created or read simply degrades to memory-only.
    [ext] is the disk-entry filename extension (default ["cache"];
    alphanumeric) — give distinct extensions to instances sharing a
    directory. [max_bytes] bounds the disk tier (default: the
    [ETHAINTER_CACHE_MAX_BYTES] environment variable, else unbounded):
    when the bytes written cross the bound, oldest-mtime entries are
    evicted down to it (entries of {e every} extension — instances
    sharing a directory share the bound); enforcement is amortized
    over bytes written, not paid per write. Stale [*.tmp] files left
    by crashed writers (older than ~10 minutes) are swept from [dir]
    at creation. [decode] may raise — any exception is a miss.
    @raise Invalid_argument if [ext] is empty or not alphanumeric. *)

val key : version:string -> fingerprint:string -> string -> string
(** [key ~version ~fingerprint bytecode] is the content address
    [hex (keccak (version ‖ fingerprint ‖ keccak bytecode))]: 64 hex
    characters, filename-safe, stable across runs and processes.
    [version] is the analysis version (bump to invalidate every prior
    entry); [fingerprint] is {!Config.fingerprint}, so ablation
    configs never share entries. *)

val key_of_hash : version:string -> fingerprint:string -> string -> string
(** [key_of_hash ~version ~fingerprint (Keccak.hash bytecode)] is
    [key ~version ~fingerprint bytecode]: a caller deriving several
    keys for one bytecode hashes the code once. *)

val find : 'v t -> string -> 'v option
(** Memory tier first, then disk. A disk hit is promoted to memory. *)

val find_valid : 'v t -> string -> valid:('v -> bool) -> 'v option
(** {!find} gated by a validity predicate: an entry for which [valid]
    is false is {e not} returned and is counted under
    [stats.rejected] rather than as a hit — the caller is about to
    recompute, and the stats line must say so. A rejected disk entry
    is left on disk (a later, laxer predicate may accept it); a
    rejected memory entry likewise stays resident. {!Pipeline} uses
    this to refuse results whose recorded cost exceeds the request's
    time budget. *)

val add : 'v t -> string -> 'v -> unit
(** Insert into the memory tier (evicting the least-recently-used
    entry beyond capacity) and persist to the disk tier if one is
    configured. Re-adding an existing key refreshes its recency. *)

val find_or_compute :
  'v t -> key:string -> ?cacheable:('v -> bool) -> (unit -> 'v) -> 'v
(** [find_or_compute t ~key f] returns the cached value or computes,
    stores and returns it. The lock is {e not} held during [f] — two
    domains may race to compute the same key (both compute, last
    insert wins; the analysis is deterministic so the values agree).
    An exception in [f] propagates and caches nothing. [cacheable]
    (default: always) gates storing — e.g. timed-out results, which
    depend on wall-clock, are recomputed rather than cached. *)

val disk_degraded : 'v t -> bool
(** True iff a disk tier was configured but has been switched off for
    the rest of the process after repeated I/O failures (see
    [stats.io_errors]). Always false for a memory-only cache. Feeds
    the daemon's health endpoint: a degraded tier means results are
    still served, but nothing new persists. *)

val stats : 'v t -> stats
val reset_stats : 'v t -> unit
val clear : 'v t -> unit
(** Drop every memory-tier entry (disk entries are kept) and reset the
    counters. *)

val hit_rate : stats -> float
(** [(hits + disk_hits) / lookups] where lookups include rejected
    entries, or [0.] before any lookup. *)

val pp_stats : Format.formatter -> stats -> unit
(** One line, e.g.
    ["cache: 120 hits, 3 disk hits, 30 misses, 1 rejected (79.9% hit rate), 0 evictions, size 153/8192"]. *)
