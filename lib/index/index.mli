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

    {2 What a block costs}

    A verdict is a function of the bytecode alone
    ({!Ethainter_core.Pipeline.run} takes no chain state), so the
    index analyzes each deployed contract once and keeps its verdict
    while the contract lives. On each block it does work only for:

    - {b deployments} ([b_deployed] — direct or via factory
      CREATE/CREATE2): the contract enters the index and is queued for
      analysis;
    - {b self-destructs} ([b_selfdestructed]): the entry becomes
      {!Destroyed}; an in-flight result for it is discarded;
    - {b breaker probes}: a {!Quarantined} entry due for a retry (see
      below) is queued again.

    Storage writes cost nothing: a block carries none. Re-confirming a
    flagged verdict against the chain state it guards (say, with Kill
    on a fork after an owner rotation) would make verdicts
    state-aware; that is deferred.

    {2 Durability}

    An index opened with {!recover} journals every block observation
    and verdict transition through {!Journal} (write-ahead log +
    periodic compacted checkpoints) and {!close} writes a final clean
    checkpoint, so the accumulated verdicts survive the process: a
    crashed or killed daemon restarts with {!recover}, replays
    checkpoint + journal, re-subscribes from the persisted cursor and
    analyzes {e only} contracts that had no verdict at the crash (or
    were deployed since) — every recorded verdict is served from the
    journal with zero recomputation. Journal I/O failure after open
    degrades the index to non-durable operation (counted under
    [index_journal_errors]) instead of failing ingestion.

    {2 Quarantine}

    Analysis jobs consult {!Ethainter_core.Scheduler.Quarantine}. An
    analysis that times out or crashes parks its entry as
    {!Quarantined}, and the per-block probe scan is its only retry
    path: while the breaker holds fewer than
    {!Ethainter_core.Scheduler.Quarantine.threshold} consecutive
    failures, the next sealed block queues a probe; once the breaker
    is open, the next block after its exponential backoff does, and
    a redeployment of the same bytecode parks without running.
    Quarantine is per-process and deliberately not durable: a
    restarted daemon gives the contract a fresh probe. *)

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
  | Pending of int               (** queued at this block (its deployment,
                                     or a quarantine probe); no verdict
                                     yet *)
  | Indexed of verdict
  | Destroyed                    (** self-destructed; last verdict dropped *)
  | Quarantined of int
      (** the last analysis timed out or crashed, or the poison-pill
          breaker refused it; the breaker holds this many consecutive
          failed analyses of the bytecode. A probe re-analysis is
          queued on the next sealed block while the breaker is closed,
          or on the first block after its backoff once open *)

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
    checkpoint falls back a generation), requeue every entry that had
    no verdict at the crash, then subscribe from the persisted cursor —
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
    past the persisted cursor.
    @raise Failure when [journal_dir] holds a journal of another
    format version ({!Journal.recover}); no file is touched. *)

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
    [index_deployed] (cumulative entries),
    [index_analyses] (jobs completed), [index_reanalyses] (completed
    jobs beyond a contract's first: quarantine probes),
    [index_inflight], [index_lag_blocks_total]/[index_lag_verdicts]
    (summed deployment→first-verdict lag in blocks, and its count —
    divide for mean lag).

    PR 9 additions: [index_quarantined] (entries parked right now),
    [index_quarantine_drops] (jobs short-circuited by an open
    breaker), [index_quarantine_probes] (retries of parked entries
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
