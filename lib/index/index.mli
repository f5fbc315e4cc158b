(** Streaming analysis index: per-contract verdicts that follow the
    chain.

    The paper's evaluation is a one-shot sweep over a blockchain
    snapshot (§6); a deployment-tracking service instead maintains a
    continuously-updated index driven by the block stream. An
    {!t} attaches to a {!Ethainter_chain.Testnet} through one
    cursor-holding subscription ({!Ethainter_chain.Testnet.subscribe}:
    catch up on the kept blocks past its cursor, then tail) and keeps
    one analysis verdict per live contract current. While it is
    attached the chain keeps no block history: each block is dropped
    once delivered.

    {2 Dirty-set computation}

    On each block the index decides what to (re-)analyze:

    - {b deployments} ([b_deployed] — direct or via factory
      CREATE/CREATE2) enter the index and are queued for analysis;
    - {b storage writes} ([b_storage_writes]) are matched against each
      indexed verdict's recorded storage footprint
      ({!Ethainter_core.Pipeline.deps} — the slots its guard slices
      read). A matching write (an admin-key rotation hitting
      [dep_slots], a mapping update hitting a [dep_roots] structure, or
      any write when [dep_unknown]) {b invalidates} the verdict: the
      contract is re-queued and its cached back-end result is dropped
      ({!Ethainter_core.Pipeline.invalidate_backend}) so the re-run is
      a genuine fixpoint re-execution — while the config-independent
      front end still hits its cache and is {e never} recomputed;
    - {b self-destructs} ([b_selfdestructed]) mark the entry
      {!Destroyed}; in-flight results for it are discarded.

    Untouched contracts keep their verdicts; nothing else runs.

    {2 Soundness assumptions (over-approximation)}

    The dirty set errs only towards re-analysis, under these explicit
    assumptions: (1) a verdict depends on chain state only through the
    storage slots in its recorded footprint — true because the
    analysis reads nothing else of the world; (2) hash-derived
    (mapping/array member) slots never collide with the small constant
    slots, so a write at slot ≥ 2{^64} is attributed to {e every} data
    structure the contract's guards read ([dep_roots] — preimages are
    not invertible, so root-precise attribution is impossible), and a
    write below 2{^64} only to its exact [dep_slots] match; (3) failed
    or timed-out verdicts carry the conservative footprint (any write
    re-queues them); (4) block effect lists themselves over-approximate
    (inner-revert writes are kept). Since the analysis is pure in the
    bytecode, re-analysis never changes a verdict's {e content} — what
    it refreshes is the verdict's provenance: after {!drain}, every
    verdict provably reflects a post-write re-execution, which is what
    the incremental==batch differential checks.

    {2 Durability}

    An index opened with {!recover} journals every block observation
    and verdict transition through {!Journal} (write-ahead log +
    periodic compacted checkpoints) and {!close} writes a final clean
    checkpoint, so the accumulated verdicts survive the process: a
    crashed or killed daemon restarts with {!recover}, replays
    checkpoint + journal, re-subscribes from the persisted cursor and
    re-analyzes {e only} contracts that were dirty at (or dirtied
    since) the crash — clean contracts' verdicts are served from the
    checkpoint with zero recomputation. Journal I/O failure after open
    degrades the index to non-durable operation (counted under
    [index_journal_errors]) instead of failing ingestion.

    {2 Quarantine}

    Analysis jobs consult {!Ethainter_core.Scheduler.Quarantine}: a
    contract whose analyses keep timing out or crashing (3
    consecutive) parks as {!Quarantined} — subsequent dirtying costs
    nothing until the breaker's exponential backoff expires and a
    probe re-analysis is queued. Quarantine is per-process and
    deliberately not durable: a restarted daemon gives the contract a
    fresh probe. *)

module U = Ethainter_word.Uint256
module P = Ethainter_core.Pipeline
module S = Ethainter_core.Scheduler

type verdict = {
  v_addr : U.t;
  v_code : string;          (** runtime bytecode analyzed *)
  v_deployed_block : int;   (** block that brought the contract in *)
  v_indexed_block : int;    (** chain head when this verdict landed *)
  v_result : P.result;
}

type status =
  | Unknown                      (** never seen on this chain *)
  | Pending of int               (** queued at this block; no verdict yet
                                     (or the previous one was invalidated) *)
  | Indexed of verdict
  | Destroyed                    (** self-destructed; last verdict dropped *)
  | Quarantined of int
      (** the poison-pill breaker is open for this bytecode after this
          many consecutive failed analyses; a probe re-analysis runs
          when the backoff expires *)

type t

val create :
  ?pool:S.Pool.t ->
  ?cfg:Ethainter_core.Config.t ->
  ?timeout_s:float ->
  Ethainter_chain.Testnet.t -> t
(** Attach an index to a chain: subscribe from cursor 0, catching up
    on every already-sealed block, then tail.
    Analysis jobs run on [pool] when given — sharing the daemon's
    worker domains, deadline and fault machinery via
    {!S.analyze_request} — with {b inline fallback}: a submission
    refused by admission control runs synchronously rather than being
    lost. Without a pool, jobs run inline on the sealing thread.
    [cfg] defaults to {!Ethainter_core.Config.default}, [timeout_s] to
    the paper's 120 s cutoff.

    Creation registers the index as the {!Ethainter_core.Telemetry}
    source ["index"] (replacing any previous index's registration).

    The chain must not seal blocks concurrently with [create].

    A [create]d index is {b ephemeral} — nothing is journaled; use
    {!recover} for a durable one.
    @raise Invalid_argument when the chain no longer keeps its early
    blocks (a subscriber has received and released them). *)

val recover :
  ?pool:S.Pool.t ->
  ?cfg:Ethainter_core.Config.t ->
  ?timeout_s:float ->
  ?checkpoint_every:int ->
  journal_dir:string ->
  Ethainter_chain.Testnet.t -> t
(** Open (or create) the durable index rooted at [journal_dir]:
    reconstruct state from the newest valid checkpoint plus journal
    replay ({!Journal.recover} — torn tails tolerated, corrupt newest
    checkpoint falls back a generation), requeue every entry that was
    dirty at the crash, then subscribe from the persisted cursor —
    catching up on the blocks the chain kept past it — and tail:
    exactly {!create}'s attachment semantics from a warm start. A
    cursor at or past the chain head needs no kept block. An empty or
    missing directory starts fresh. All subsequent observations are
    journaled; every [checkpoint_every] blocks (default 256) the
    journal is compacted into a fsync'd checkpoint.

    The chain handed in must be (a replay of) the same chain the
    journal was written against — deployments are matched by address
    and bytecode, so a diverging chain surfaces as re-analysis, never
    as a wrong verdict served.
    @raise Invalid_argument when the chain no longer keeps a block
    past the persisted cursor. *)

val close : t -> unit
(** Graceful shutdown: {!detach}, {!drain} (in-flight verdicts land),
    then write a final clean checkpoint and close the journal. After
    [close], {!recover} on the same directory restores this exact
    index with zero journal replay and zero re-analysis. Idempotent;
    a no-op beyond detach+drain for a {!create}d index. *)

val lookup : t -> U.t -> status
(** Current status of an address. Thread-safe. *)

val drain : t -> unit
(** Block until no analysis job is queued or running — after this,
    every entry is [Indexed] or [Destroyed] and reflects every block
    sealed before the call. (With an external pool under concurrent
    load, quiescence means {e this index's} jobs have completed.) *)

val contents : t -> (U.t * string * P.result) list
(** All [Indexed] entries — (address, bytecode, verdict) sorted by
    address. {!drain} first for a complete view; the incremental==batch
    differential compares this against a cold sweep of
    {!Ethainter_chain.Testnet.live_contracts}. *)

val last_block : t -> int
(** Highest block number processed. *)

val stats : t -> (string * float) list
(** The index's telemetry pairs (also sampled into
    [Telemetry.snapshot.extras] under source ["index"]):
    [index_contracts] (live indexed), [index_pending],
    [index_destroyed] (cumulative), [index_blocks] (processed),
    [index_deployed] (cumulative entries), [index_invalidations]
    (verdicts re-queued by matching writes, cumulative),
    [index_analyses] (jobs completed), [index_reanalyses] (completed
    jobs beyond a contract's first), [index_dirty_last_block]
    (deploys + invalidations queued by the newest block),
    [index_inflight], [index_lag_blocks_total]/[index_lag_verdicts]
    (summed deployment→first-verdict lag in blocks, and its count —
    divide for mean lag).

    PR 9 additions: [index_quarantined] (entries parked right now),
    [index_quarantine_drops] (jobs short-circuited by an open
    breaker), [index_quarantine_probes] (backoff-expired retries
    queued), [index_recovered_verdicts] (verdicts restored from
    checkpoint+journal, not recomputed), [index_replayed_events]
    (journal records applied during recovery),
    [index_journal_errors]; durable indexes add the
    {!Journal.stats} pairs ([journal_appends],
    [journal_checkpoints], [journal_generation],
    [journal_wal_bytes]). *)

val detach : t -> unit
(** Stop consuming blocks: release the chain subscription (the chain
    keeps no reference to the index afterwards, and keeps blocks again
    until a subscriber returns), unregister the telemetry source and
    drop no data. Idempotent. In-flight jobs still complete; {!drain}
    remains valid. *)
