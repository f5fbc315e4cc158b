(** World state for the EVM: accounts with balance, nonce, code and
    storage.

    Every write goes through this interface, which is what makes the
    undo journal complete: while a {!snapshot} mark is open, each write
    records the value it overwrote; {!restore} undoes the writes made
    since a mark, {!commit} keeps them. Marks nest and are closed in
    LIFO order; closing the outermost one empties the journal. *)

module U = Ethainter_word.Uint256

type address = U.t
type t

val create : unit -> t

val copy : t -> t
(** Independent deep copy of the whole world (empty journal, no open
    mark). The testnet forks a chain with it; nothing on the
    transaction path copies the world. *)

(** {2 Reads} *)

val exists : t -> address -> bool
val balance : t -> address -> U.t
val nonce : t -> address -> int

val code : t -> address -> string
(** Runtime code; [""] for destroyed or code-less accounts. *)

val program : t -> address -> Program.t
(** The decoded program for {!code} (the empty program for destroyed or
    code-less accounts), memoized on the account and process-wide by
    code hash ({!Program.of_code}). *)

val sload : t -> address -> U.t -> U.t
val is_destroyed : t -> address -> bool

val fold_contracts : t -> (address -> string -> 'a -> 'a) -> 'a -> 'a
(** Fold over every live contract account (not destroyed, non-empty
    code) with its code. Order unspecified. *)

(** {2 Writes} (journaled under an open mark) *)

val set_balance : t -> address -> U.t -> unit
val set_code : t -> address -> string -> unit
val bump_nonce : t -> address -> unit

val sstore : t -> address -> U.t -> U.t -> unit
(** Writing zero deletes the slot. *)

val transfer :
  t -> src:address -> dst:address -> value:U.t -> (unit, string) result
(** Move [value] wei; [Error], with no balance moved, when [src] holds
    less than [value]. *)

val selfdestruct : t -> victim:address -> beneficiary:address -> unit
(** Credit [victim]'s balance to [beneficiary] and mark it destroyed. *)

(** {2 Journal} *)

type mark

val snapshot : t -> mark
(** Open a mark: writes from here on can be undone by {!restore}. *)

val restore : t -> mark -> unit
(** Undo every write made since the mark, and close it — along with
    any mark opened after it and left open (an exception unwinding
    through nested calls). *)

val commit : t -> mark -> unit
(** Keep the writes made since the mark and close it; they stay
    undoable by an enclosing mark. *)

val journal_length : t -> int
(** Records currently held; [0] whenever no mark is open. *)

(** {2 Inspection} *)

val dump : t -> string
(** Canonical rendering of the whole world (every account, including
    empty ones, with its balance, nonce, code, storage and destroyed
    flag; no caches). Two states hold the same world iff their dumps
    are equal. *)

val contract_address : creator:address -> nonce:int -> address
(** Address of the contract [creator] deploys at [nonce]:
    keccak(creator ++ nonce), masked to 160 bits. *)
