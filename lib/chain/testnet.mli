(** An in-memory Ethereum test network.

    Plays the role of the paper's evaluation substrates: the network
    the analyzed contracts live on, and the "private fork of the
    Ropsten testnet" on which Ethainter-Kill destroys contracts (§6.1).
    Transactions execute through the real EVM interpreter, untraced;
    each returns a receipt with its outcome, event logs and effects,
    and the network keeps none of them.

    The network also seals {b blocks} carrying the digested
    chain-observable effects — deployments, storage writes,
    self-destructs — that a streaming analysis index needs to compute
    its dirty set, and pushes each to its observers in registration
    order. By default every transaction seals its own block;
    {!in_block} batches several into one.

    {2 History}

    A plain observer ({!on_block}) sees blocks from its registration on
    and pins nothing. A subscriber ({!subscribe}) holds a cursor — the
    last block it has processed — and first catches up on the kept
    blocks past it. A sealed block is kept while no subscriber is
    attached (so a consumer attached later can still catch up from
    genesis) and dropped once every subscriber has received it; with a
    subscriber attached the network therefore keeps no history at all,
    whatever its length. There is no retention window and no other
    knob. *)

module U = Ethainter_word.Uint256
module State = Ethainter_evm.State
module Interp = Ethainter_evm.Interp

type receipt = {
  tx_hash : U.t;
  from : U.t;
  to_ : U.t option;        (** [None] for contract creation *)
  created : U.t option;    (** new contract address, on successful create *)
  outcome : Interp.outcome;
  logs : Interp.log_entry list;    (** events (empty if rolled back) *)
  effects : Interp.effect list;
      (** chain-observable effects (storage writes, creations,
          self-destructs), chronological; empty if rolled back. Inner
          reverts are not trimmed, so an [E_selfdestruct] does not
          prove destruction: {!is_alive} does. *)
  gas_used : int;
  block : int;
}

type block = {
  b_number : int;
  b_deployed : (U.t * string) list;
      (** contracts deployed in this block and still live at its seal
          (address × runtime bytecode) — direct deployments and
          factory CREATE/CREATE2 children alike *)
  b_storage_writes : (U.t * U.t) list;
      (** (contract, slot) pairs written in this block, deduplicated,
          in first-write order; over-approximate (writes inside inner
          calls that later reverted are still listed — sound for
          invalidation) *)
  b_selfdestructed : U.t list; (** contracts destroyed by this block *)
}

type t

val create : ?name:string -> ?engine:Interp.engine -> unit -> t
(** [engine] selects the interpreter executor for every transaction on
    this network (default {!Interp.Decoded}); forks inherit it. The
    [Bytewise] reference engine exists for differential testing and
    benchmarking — results are identical either way. *)

val fork : ?name:string -> t -> t
(** Independent deep copy of world state, and of the kept history.
    Observers and subscribers are {e not} inherited. *)

val state : t -> State.t
val block_number : t -> int

val in_block : t -> (unit -> 'a) -> 'a
(** [in_block t f] batches all transactions performed by [f] into a
    single block, sealed (and observers notified) when [f] returns —
    also on exception. Not reentrant. *)

val advance_to_block : t -> int -> unit
(** Seal empty blocks until {!block_number} reaches the argument (a
    no-op when already there or past). A recovering daemon uses this
    to bring a freshly-constructed chain up to its journal's persisted
    cursor, so the block numbers recorded in restored verdicts line up
    with the chain it re-attaches to.
    @raise Invalid_argument inside {!in_block}. *)

val on_block : t -> (block -> unit) -> unit
(** Register a block observer, called synchronously on the sealing
    thread after each block, in registration order (one list shared
    with subscribers). It pins no history. Observers must not raise
    and must not transact on [t] reentrantly. *)

type subscription

val subscribe : t -> cursor:int -> (block -> unit) -> subscription
(** [subscribe t ~cursor f] calls [f] on every kept block numbered
    above [cursor], oldest first, then registers [f] like an
    {!on_block} observer; from then on blocks are dropped as soon as
    they are sealed and delivered. A cursor at or past the head is
    fine (nothing to catch up on).
    @raise Invalid_argument when a block past [cursor] is no longer
    kept — some subscriber already received and released it. *)

val unsubscribe : t -> subscription -> unit
(** Remove the subscriber: the network holds no reference to it
    afterwards. Blocks sealed while no subscriber is attached are kept
    again. Idempotent. *)

val live_contracts : t -> (U.t * string) list
(** Every live contract (deployed, not self-destructed) with its
    runtime bytecode, sorted by address — the corpus a cold batch
    sweep of the current chain state analyzes. *)

val fund_account : t -> U.t -> U.t -> unit
(** Credit an externally-owned account. *)

val account_of_seed : string -> U.t
(** Deterministic 160-bit account address derived from a seed string
    (stands in for a real key pair). *)

val deploy : t -> from:U.t -> ?value:U.t -> string -> receipt
(** Execute deployment bytecode (constructor returning the runtime). *)

val deploy_runtime : t -> from:U.t -> ?value:U.t -> string -> receipt
(** Wrap runtime bytecode in a standard deployer and deploy it. *)

val transact :
  t -> from:U.t -> to_:U.t -> ?value:U.t -> ?gas:int -> string -> receipt
(** Send a transaction with raw calldata. *)

val call_fn :
  t -> from:U.t -> to_:U.t -> ?value:U.t -> string -> U.t list -> receipt
(** Call by Solidity-style signature with word-sized arguments, e.g.
    [call_fn net ~from ~to_ "transfer(address,uint256)" [dst; amount]]. *)

val is_alive : t -> U.t -> bool
(** Deployed and not self-destructed. *)

val succeeded : receipt -> bool
val return_word : receipt -> U.t option
(** First 32 bytes of return data, if any. *)
