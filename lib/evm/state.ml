(** World state for the EVM: accounts with balance, nonce, code and
    storage. This plays the role of the Ethereum state trie in the
    paper's evaluation networks (mainnet snapshot, Ropsten fork).

    Revert semantics come from an undo journal: while a {!snapshot}
    mark is open, every write pushes a record of the value it
    overwrote, {!restore} pops records back down to the mark, and
    {!commit} keeps the writes. A call therefore costs what it writes,
    not what the world holds. {!copy} is the one whole-world copy; the
    testnet uses it to fork the chain (the paper's "private fork of
    the Ropsten testnet"). *)

module U = Ethainter_word.Uint256

(* Word-keyed hash tables over [U.equal]/[U.hash] — the multi-limb
   mixing hash, not polymorphic hashing — so storage-slot and address
   lookups stay O(1) even over adversarial key families (sequential
   slots, keys differing only in high limbs). *)
module WT = Hashtbl.Make (struct
  type t = U.t

  let equal = U.equal
  let hash = U.hash
end)

type address = U.t

type account = {
  mutable balance : U.t;
  mutable nonce : int;
  mutable code : string;
  storage : U.t WT.t;
  mutable destroyed : bool;
  mutable prog : Program.t option;
      (* memoized decoded program for [code]; cleared on set_code so a
         call into this account skips even the keccak lookup into the
         process-wide program cache *)
}

(* One journal record: the value a write overwrote. The decoded-program
   memo rides along with the code it was decoded from, so the frequent
   revert path re-decodes and re-hashes nothing. Stored words are never
   mutated in place (the interpreter copies out of its scratch slots),
   so keeping the old word by reference is enough. *)
type undo =
  | Balance of account * U.t
  | Nonce of account * int
  | Code of account * string * Program.t option
  | Slot of account * U.t * U.t option (* key, previous value if any *)
  | Destroyed of account * bool
  | Created of address

type t = {
  accounts : account WT.t;
  mutable log : undo list; (* newest first; empty while no mark is open *)
  mutable log_len : int;
  mutable depth : int; (* open marks *)
}

let create () = { accounts = WT.create 64; log = []; log_len = 0; depth = 0 }

(* Writes are journaled only under an open mark: set-up writes outside
   any call (funding, test fixtures) have nothing to roll back to. *)
let[@inline] journal t u =
  if t.depth > 0 then begin
    t.log <- u :: t.log;
    t.log_len <- t.log_len + 1
  end

let account t addr =
  match WT.find_opt t.accounts addr with
  | Some a -> a
  | None ->
      let a =
        { balance = U.zero; nonce = 0; code = ""; storage = WT.create 8;
          destroyed = false; prog = None }
      in
      WT.replace t.accounts addr a;
      journal t (Created addr);
      a

let account_opt t addr = WT.find_opt t.accounts addr
let exists t addr = WT.mem t.accounts addr

let balance t addr =
  match account_opt t addr with Some a -> a.balance | None -> U.zero

let code t addr =
  match account_opt t addr with
  | Some a when not a.destroyed -> a.code
  | _ -> ""

let nonce t addr =
  match account_opt t addr with Some a -> a.nonce | None -> 0

let put_balance t a v =
  journal t (Balance (a, a.balance));
  a.balance <- v

let set_balance t addr v = put_balance t (account t addr) v

let set_code t addr c =
  let a = account t addr in
  journal t (Code (a, a.code, a.prog));
  a.code <- c;
  a.prog <- None

(** The decoded program for [addr]'s current code (the empty program
    for destroyed or code-less accounts, mirroring {!code}), memoized
    on the account record: {!copy} shares the memo and the undo journal
    restores it with the code, so forks and rolled-back states never
    re-decode. *)
let program t addr : Program.t =
  match WT.find_opt t.accounts addr with
  | Some a when not a.destroyed ->
      if String.length a.code = 0 then Program.empty
      else (
        match a.prog with
        | Some p -> p
        | None ->
            let p = Program.of_code a.code in
            a.prog <- Some p;
            p)
  | _ -> Program.empty

let bump_nonce t addr =
  let a = account t addr in
  journal t (Nonce (a, a.nonce));
  a.nonce <- a.nonce + 1

let sload t addr key =
  match account_opt t addr with
  | None -> U.zero
  | Some a -> (
      match WT.find_opt a.storage key with
      | Some v -> v
      | None -> U.zero)

let sstore t addr key v =
  let a = account t addr in
  if t.depth > 0 then journal t (Slot (a, key, WT.find_opt a.storage key));
  if U.is_zero v then WT.remove a.storage key
  else WT.replace a.storage key v

let is_destroyed t addr =
  match account_opt t addr with Some a -> a.destroyed | None -> false

let fold_contracts (t : t) (f : address -> string -> 'a -> 'a) (init : 'a) : 'a
    =
  WT.fold
    (fun addr a acc ->
      if (not a.destroyed) && String.length a.code > 0 then f addr a.code acc
      else acc)
    t.accounts init

let transfer t ~src ~dst ~value =
  let sa = account t src in
  if U.lt sa.balance value then Error "insufficient balance"
  else begin
    put_balance t sa (U.sub sa.balance value);
    let da = account t dst in
    put_balance t da (U.add da.balance value);
    Ok ()
  end

let selfdestruct t ~victim ~beneficiary =
  let va = account t victim in
  let ba = account t beneficiary in
  if not (U.equal victim beneficiary) then
    put_balance t ba (U.add ba.balance va.balance);
  put_balance t va U.zero;
  journal t (Destroyed (va, va.destroyed));
  va.destroyed <- true

(* ---------------- journal marks ---------------- *)

(* A mark packs the journal length at the snapshot with the number of
   marks open before it. Closing a mark resets the open count from the
   mark itself, so a mark left open by an exception is closed by the
   next enclosing restore or commit. *)
type mark = int

let depth_bits = 16
let depth_mask = (1 lsl depth_bits) - 1

let snapshot (t : t) : mark =
  let m = (t.log_len lsl depth_bits) lor t.depth in
  t.depth <- t.depth + 1;
  m

let undo t = function
  | Balance (a, v) -> a.balance <- v
  | Nonce (a, n) -> a.nonce <- n
  | Code (a, c, p) ->
      a.code <- c;
      a.prog <- p
  | Slot (a, k, None) -> WT.remove a.storage k
  | Slot (a, k, Some v) -> WT.replace a.storage k v
  | Destroyed (a, d) -> a.destroyed <- d
  | Created addr -> WT.remove t.accounts addr

(* Close [m] and every mark opened after it; once the outermost mark
   is closed every write is final and the journal is dropped. *)
let commit (t : t) (m : mark) : unit =
  t.depth <- m land depth_mask;
  if t.depth = 0 then begin
    t.log <- [];
    t.log_len <- 0
  end

let restore (t : t) (m : mark) : unit =
  let len = m lsr depth_bits in
  while t.log_len > len do
    match t.log with
    | u :: rest ->
        undo t u;
        t.log <- rest;
        t.log_len <- t.log_len - 1
    | [] -> assert false
  done;
  commit t m
let journal_length t = t.log_len

let copy (t : t) : t =
  let accounts = WT.create (max 64 (WT.length t.accounts)) in
  WT.iter
    (fun addr a ->
      WT.replace accounts addr { a with storage = WT.copy a.storage })
    t.accounts;
  { accounts; log = []; log_len = 0; depth = 0 }

let dump (t : t) : string =
  WT.fold
    (fun addr a acc ->
      let slots =
        WT.fold (fun k v l -> (U.to_hex k ^ "=" ^ U.to_hex v) :: l) a.storage []
        |> List.sort compare |> String.concat ","
      in
      Printf.sprintf "%s|%s|%d|%S|%s|%b" (U.to_hex addr) (U.to_hex a.balance)
        a.nonce a.code slots a.destroyed
      :: acc)
    t.accounts []
  |> List.sort compare |> String.concat ";"

(** Derive a contract address from creator + nonce. Real Ethereum uses
    RLP(creator, nonce); we use keccak(creator ++ nonce) which has the
    same collision-resistance and determinism properties. *)
let contract_address ~(creator : address) ~(nonce : int) : address =
  let payload = U.to_bytes creator ^ U.to_bytes (U.of_int nonce) in
  let h = Ethainter_crypto.Keccak.hash payload in
  (* addresses are 160-bit: mask the top 12 bytes *)
  U.logand (U.of_bytes h)
    (U.sub (U.shift_left U.one 160) U.one)
