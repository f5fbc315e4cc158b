(** Write-ahead journal for the streaming index.

    Everything the index has learned from the chain — block
    observations and the verdicts analysis produced for them — lives in
    process memory; this module makes that state survive the process.
    It is a classic WAL + checkpoint design:

    - every block observation and every verdict transition is appended
      to the current {b journal file} as one length-prefixed,
      checksummed record (the same framing discipline as the serving
      stack's [Frame] codec: magic, version, kind, big-endian length,
      FNV-64 digest over header+payload — any single-bit flip is
      detected with certainty);
    - periodically (and always on {!close}) the index's whole state is
      compacted into a {b checkpoint}: one framed record holding the
      chain cursor and every entry (bytecode, state, verdict payload
      via the self-validating {!Ethainter_core.Pipeline.encode_result}
      codec). Checkpoints are written to a temp file, [fsync]ed, then
      atomically renamed, and the directory is fsynced — a checkpoint
      either exists completely or not at all. Writing checkpoint [g+1]
      rotates the journal: subsequent records go to journal [g+1], and
      generation [g-1]'s files are pruned (generation [g] is kept as
      the fallback for a corrupt newest checkpoint).

    {b Recovery} ({!recover}) loads the newest checkpoint that
    validates (falling back to the previous generation — and replaying
    both generations' journals — when the newest is corrupt), then
    replays journal records in order, stopping at the first record
    that fails to frame-decode: a torn tail (the writer died
    mid-[write(2)]) is indistinguishable from end-of-log and is simply
    absent. The journal file is truncated back to the last valid
    record before appending resumes, so a torn tail can never be
    misparsed later.

    {b Crash-safety guarantees.} Journal appends are {e not} fsynced
    (only checkpoints are): against process death — crash, OOM-kill,
    [kill -9] — nothing is lost, because data handed to [write(2)]
    survives the writer. Against power loss, the un-fsynced journal
    tail may be lost; recovery then resumes from an older cursor and
    the index re-derives the difference from the chain (a
    subscription from that cursor) — verdict content is unaffected, only
    re-analysis work is repeated. {b Single writer}: the directory
    must belong to exactly one live index; two concurrent writers
    interleave records and corrupt each other (there is deliberately
    no lock file — supervisors that restart a daemon must wait for the
    old process to die).

    The caller (the index) serializes all calls; a [t] is not
    thread-safe on its own. *)

module U := Ethainter_word.Uint256
module P := Ethainter_core.Pipeline

(** {1 Journaled state} *)

(** One block's effects, exactly what the index consumes from
    {!Ethainter_chain.Testnet.block}. *)
type obs = {
  o_number : int;
  o_deployed : (U.t * string) list;   (** address, runtime bytecode *)
  o_writes : (U.t * U.t) list;        (** address, storage slot *)
  o_destroyed : U.t list;
}

type event =
  | Ev_block of obs
  | Ev_verdict of {
      ev_addr : U.t;
      ev_indexed_block : int;
      ev_runs : int;
      ev_result : P.result;
    }  (** an analysis landed for [ev_addr] while it was pending *)

type entry_state =
  | S_pending                       (** queued or in flight at crash time;
                                        recovery re-queues it *)
  | S_indexed of P.result * int     (** verdict, block it was indexed at *)
  | S_destroyed

type entry = {
  e_addr : U.t;
  e_code : string;
  e_deployed_block : int;
  e_queued_block : int;
  e_runs : int;
  e_state : entry_state;
}

type snapshot = { s_cursor : int; s_entries : entry list }
(** A full index state: the highest block processed and every entry. *)

(** {1 Writing} *)

type t

val append : t -> event -> unit
(** Append one framed record to the current journal file. Buffered by
    the kernel, not fsynced (see the crash-safety note above). Raises
    [Invalid_argument] after {!close}. Carries the [crash] /
    [torn_write] fault-injection sites. *)

val checkpoint : t -> snapshot -> unit
(** Compact [snapshot] into a new checkpoint generation:
    write-fsync-rename the checkpoint, rotate to a fresh journal file,
    fsync the directory, prune generations older than the previous
    one. *)

val close : t -> snapshot -> unit
(** Final {!checkpoint} then close the journal fd. Idempotent; after
    this the directory recovers with zero journal replay. *)

val wal_bytes : t -> int
(** Bytes appended to the current journal file since its rotation. *)

val stats : t -> (string * float) list
(** Telemetry pairs: [journal_appends], [journal_checkpoints],
    [journal_generation], [journal_wal_bytes] (cumulative counters are
    since this [t] was opened). *)

(** {1 Recovery} *)

type recovery = {
  r_snapshot : snapshot option;
      (** newest checkpoint that validated, if any *)
  r_events : event list;
      (** journal records after that checkpoint, in append order *)
  r_checkpoint_fallback : bool;
      (** the newest checkpoint on disk was corrupt and an older
          generation was used (or none) *)
  r_torn_tail : bool;
      (** the journal ended in a torn/corrupt record; the tail was
          discarded and truncated away *)
}

val recover : dir:string -> t * recovery
(** Open (creating if needed) a journal directory and reconstruct the
    durable state: pick the newest checkpoint that validates, replay
    its generation's journal records up to the first framing error,
    truncate the torn tail, and arm the returned [t] to append after
    the last valid record. An empty or missing directory yields
    [{ r_snapshot = None; r_events = []; ... }] — a fresh index.
    Corrupt checkpoint files are deleted; journal files newer than the
    replay cut are deleted (their records are causally after a record
    that was lost, so keeping them would reorder history). *)
