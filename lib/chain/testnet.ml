(* An in-memory Ethereum test network: untraced transactions, sealed
   block digests pushed to observers in registration order, and a
   history kept only until every subscriber has it. See testnet.mli
   for the contract. *)

module U = Ethainter_word.Uint256
module State = Ethainter_evm.State
module Interp = Ethainter_evm.Interp

type receipt = {
  from : U.t;
  to_ : U.t option; (** None for contract creation *)
  created : U.t option;
  outcome : Interp.outcome;
  logs : Interp.log_entry list; (** events emitted by this transaction *)
  effects : Interp.effect list;
      (** chain-observable effects (storage writes, creations,
          self-destructs), chronological; empty if rolled back *)
  gas_used : int;
  block : int;
}

type block = {
  b_number : int;
  b_deployed : (U.t * string) list;
      (** contracts deployed in this block and still live at its seal
          (address × runtime bytecode) — direct deployments and
          factory CREATE/CREATE2 children alike *)
  b_selfdestructed : U.t list; (** contracts destroyed by this block *)
}

(* One observer list, in registration order, holds plain [on_block]
   callbacks and subscriptions ([o_cursor]); only the latter let the
   chain drop the blocks they have received. *)
type observer = { o_deliver : block -> unit; o_cursor : bool }
type subscription = observer

type t = {
  state : State.t;
  engine : Interp.engine; (* executor for every tx on this net *)
  mutable block_number : int;
  kept : block Queue.t; (* blocks (dropped_upto, block_number], oldest first *)
  mutable dropped_upto : int;
  mutable open_block : bool;   (* inside in_block: txs share one block *)
  mutable pending : Interp.effect list list; (* per tx, newest first *)
  mutable observers : observer list; (* registration order *)
  name : string;
}

let create ?(name = "ropsten-fork") ?(engine = Interp.Decoded) () =
  { state = State.create (); engine; block_number = 0; kept = Queue.create ();
    dropped_upto = 0; open_block = false; pending = []; observers = [];
    name }

(** Fork the network: independent deep copy of world state, and the
    kept history up to the fork point. Observers are {e not} inherited
    — a fork is a new chain tail and consumers must opt in again. *)
let fork ?(name = "fork") (t : t) =
  { state = State.copy t.state; engine = t.engine;
    block_number = t.block_number; kept = Queue.copy t.kept;
    dropped_upto = t.dropped_upto; open_block = false; pending = [];
    observers = []; name }

let state t = t.state
let block_number t = t.block_number

(* ---------------- blocks ---------------- *)

(* Digest the pending effects into a sealed block and notify observers
   (in registration order, on the sealing thread). Effect lists
   over-approximate (inner reverts are not trimmed), so
   liveness-sensitive views — what was deployed, what is destroyed —
   are re-checked against the state at seal time. Storage writes stay
   on the receipts and are not digested: no block consumer reads them. *)
let seal (t : t) : unit =
  let pending = List.rev t.pending in
  t.pending <- [];
  let seen_dep : (U.t, unit) Hashtbl.t = Hashtbl.create 8 in
  let seen_sd : (U.t, unit) Hashtbl.t = Hashtbl.create 4 in
  let deployed = ref [] and destroyed = ref [] in
  List.iter
    (List.iter (fun (e : Interp.effect) ->
         match e with
         | Interp.E_create a ->
             if not (Hashtbl.mem seen_dep a) then begin
               Hashtbl.replace seen_dep a ();
               let code = State.code t.state a in
               if String.length code > 0 && not (State.is_destroyed t.state a)
               then deployed := (a, code) :: !deployed
             end
         | Interp.E_sstore _ -> ()
         | Interp.E_selfdestruct a ->
             if not (Hashtbl.mem seen_sd a) then begin
               Hashtbl.replace seen_sd a ();
               if State.is_destroyed t.state a then destroyed := a :: !destroyed
             end))
    pending;
  let b =
    { b_number = t.block_number;
      b_deployed = List.rev !deployed;
      b_selfdestructed = List.rev !destroyed }
  in
  List.iter (fun o -> o.o_deliver b) t.observers;
  (* every subscriber has it now; keep it only for a future one *)
  if List.exists (fun o -> o.o_cursor) t.observers then
    t.dropped_upto <- b.b_number
  else Queue.push b t.kept

(* Open a block if none is open; every transaction helper funnels
   through here. *)
let begin_tx (t : t) : unit =
  if not t.open_block then t.block_number <- t.block_number + 1

let record (t : t) (r : receipt) : unit =
  t.pending <- r.effects :: t.pending;
  if not t.open_block then seal t

(** Batch several transactions into one block: [f]'s transactions all
    carry the same block number, and the block is sealed (observers
    notified) once [f] returns — also on exception. Not reentrant. *)
let in_block (t : t) (f : unit -> 'a) : 'a =
  if t.open_block then invalid_arg "Testnet.in_block: block already open";
  t.block_number <- t.block_number + 1;
  t.open_block <- true;
  Fun.protect
    ~finally:(fun () ->
      t.open_block <- false;
      seal t)
    f

(** Seal empty blocks until the head reaches [n] — how a daemon
    recovering onto a freshly-constructed chain brings the chain up to
    its journal's persisted cursor before replaying traffic (block
    numbers, which verdict provenance records, must line up). A no-op
    when the head is already at or past [n]. *)
let advance_to_block (t : t) (n : int) : unit =
  if t.open_block then
    invalid_arg "Testnet.advance_to_block: block already open";
  while t.block_number < n do
    in_block t (fun () -> ())
  done

let add_observer (t : t) (o : observer) = t.observers <- t.observers @ [ o ]

let on_block (t : t) (f : block -> unit) : unit =
  add_observer t { o_deliver = f; o_cursor = false }

(* Blocks (dropped_upto, head] are kept: everything sealed since the
   last subscriber left. *)
let subscribe (t : t) ~(cursor : int) (f : block -> unit) : subscription =
  if cursor < t.dropped_upto then
    invalid_arg
      (Printf.sprintf
         "Testnet.subscribe: blocks %d..%d are no longer kept (cursor %d)"
         (cursor + 1) t.dropped_upto cursor);
  (* kept blocks exist only while no other subscriber does: once this
     one has them, every subscriber has *)
  Queue.iter
    (fun b ->
      if b.b_number > cursor then f b;
      t.dropped_upto <- b.b_number)
    t.kept;
  Queue.clear t.kept;
  let o = { o_deliver = f; o_cursor = true } in
  add_observer t o;
  o

let unsubscribe (t : t) (o : subscription) : unit =
  t.observers <- List.filter (fun o' -> o' != o) t.observers

(** Every live contract (deployed, not self-destructed) with its
    runtime bytecode, sorted by address — the corpus a cold batch
    sweep of the current chain state analyzes. *)
let live_contracts (t : t) : (U.t * string) list =
  State.fold_contracts t.state (fun a code acc -> (a, code) :: acc) []
  |> List.sort (fun (a, _) (b, _) -> U.compare a b)

(* ---------------- accounts and transactions ---------------- *)

(** Create an externally-owned account with the given balance. *)
let fund_account (t : t) (addr : U.t) (balance : U.t) =
  State.set_balance t.state addr balance

(** A deterministic "key pair": account addresses derived from a seed
    string, standing in for real ECDSA keys. *)
let account_of_seed (seed : string) : U.t =
  U.logand
    (Ethainter_crypto.Keccak.hash_word ("account:" ^ seed))
    (U.sub (U.shift_left U.one 160) U.one)

(** Deploy a contract from raw *deployment* bytecode (constructor code
    that returns the runtime). Returns the receipt; [created] holds the
    new contract's address on success. *)
let deploy (t : t) ~(from : U.t) ?(value = U.zero) (initcode : string) :
    receipt =
  begin_tx t;
  let nonce = State.nonce t.state from in
  let addr = State.contract_address ~creator:from ~nonce in
  State.bump_nonce t.state from;
  let mark = State.snapshot t.state in
  let cr =
    try
      ignore (State.transfer t.state ~src:from ~dst:addr ~value);
      State.set_code t.state addr initcode;
      Interp.call_full ~engine:t.engine t.state ~caller:from ~target:addr
        ~value:U.zero ~calldata:""
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      State.restore t.state mark;
      Printexc.raise_with_backtrace e bt
  in
  let outcome, created, effects =
    match cr.Interp.outcome with
    | Interp.Returned runtime ->
        State.set_code t.state addr runtime;
        State.commit t.state mark;
        (* the deploy path creates by transaction, not by a CREATE
           opcode — synthesize the effect so block consumers see one
           uniform deployment stream *)
        ( Interp.Returned runtime, Some addr,
          Interp.E_create addr :: cr.Interp.tx_effects )
    | (Interp.Reverted _ | Interp.Failed _) as o ->
        State.restore t.state mark;
        (o, None, [])
  in
  let r =
    { from; to_ = None; created; outcome;
      logs = cr.Interp.tx_logs; effects; gas_used = cr.Interp.gas_used;
      block = t.block_number }
  in
  record t r;
  r

(** Deploy runtime bytecode directly (wraps it in a deployer). *)
let deploy_runtime (t : t) ~(from : U.t) ?(value = U.zero) (runtime : string)
    : receipt =
  deploy t ~from ~value (Ethainter_evm.Bytecode.deployer runtime)

(** Send a transaction to a contract. *)
let transact (t : t) ~(from : U.t) ~(to_ : U.t) ?(value = U.zero)
    ?(gas = 10_000_000) (calldata : string) : receipt =
  begin_tx t;
  State.bump_nonce t.state from;
  let cr =
    Interp.call_full ~engine:t.engine ~gas
      ~block_number:(U.of_int t.block_number)
      t.state ~caller:from ~target:to_ ~value ~calldata
  in
  let r =
    { from; to_ = Some to_; created = None;
      outcome = cr.Interp.outcome; logs = cr.Interp.tx_logs;
      effects = cr.Interp.tx_effects;
      gas_used = cr.Interp.gas_used; block = t.block_number }
  in
  record t r;
  r

(** Call a contract function by Solidity-style signature with 32-byte
    word arguments, e.g. [call_fn net ~from ~to_ "kill()" []]. *)
let call_fn (t : t) ~(from : U.t) ~(to_ : U.t) ?(value = U.zero)
    (signature : string) (args : U.t list) : receipt =
  let selector = Ethainter_crypto.Keccak.selector signature in
  let calldata =
    selector ^ String.concat "" (List.map U.to_bytes args)
  in
  transact t ~from ~to_ ~value calldata

let is_alive (t : t) (addr : U.t) : bool =
  (not (State.is_destroyed t.state addr))
  && String.length (State.code t.state addr) > 0

let succeeded (r : receipt) =
  match r.outcome with Interp.Returned _ -> true | _ -> false

let return_word (r : receipt) : U.t option =
  match r.outcome with
  | Interp.Returned s when String.length s >= 32 ->
      Some (U.of_bytes (String.sub s 0 32))
  | _ -> None
