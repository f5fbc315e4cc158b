(* Testnet simulator tests: deployment, transactions, receipts,
   forking, and function-call helpers. *)

module U = Ethainter_word.Uint256
module T = Ethainter_chain.Testnet
module State = Ethainter_evm.State
module B = Ethainter_evm.Bytecode
module Op = Ethainter_evm.Opcode

let funded_net () =
  let net = T.create () in
  let a = T.account_of_seed "alice" in
  let b = T.account_of_seed "bob" in
  T.fund_account net a (U.of_string "1000000000000000000");
  T.fund_account net b (U.of_string "1000000000000000000");
  (net, a, b)

(* runtime returning the constant 5 *)
let runtime_five =
  B.assemble
    [ B.Push (U.of_int 5); B.Push U.zero; B.Op Op.MSTORE;
      B.Push (U.of_int 32); B.Push U.zero; B.Op Op.RETURN ]

let test_accounts_deterministic () =
  Alcotest.(check bool) "same seed same account" true
    (U.equal (T.account_of_seed "x") (T.account_of_seed "x"));
  Alcotest.(check bool) "different seeds differ" false
    (U.equal (T.account_of_seed "x") (T.account_of_seed "y"));
  (* address range: 160 bits *)
  Alcotest.(check bool) "address fits 160 bits" true
    (U.lt (T.account_of_seed "x") (U.shift_left U.one 160))

let test_deploy_and_call () =
  let net, a, _ = funded_net () in
  let r = T.deploy_runtime net ~from:a runtime_five in
  (match r.T.created with
  | Some addr ->
      Alcotest.(check bool) "alive" true (T.is_alive net addr);
      let rc = T.transact net ~from:a ~to_:addr "" in
      (match T.return_word rc with
      | Some v -> Alcotest.(check string) "returns 5" "0x5" (U.to_hex v)
      | None -> Alcotest.fail "no return word")
  | None -> Alcotest.fail "deploy failed")

let test_distinct_addresses () =
  let net, a, _ = funded_net () in
  let r1 = T.deploy_runtime net ~from:a runtime_five in
  let r2 = T.deploy_runtime net ~from:a runtime_five in
  match (r1.T.created, r2.T.created) with
  | Some a1, Some a2 ->
      Alcotest.(check bool) "nonce separates addresses" false (U.equal a1 a2)
  | _ -> Alcotest.fail "deploys failed"

let test_value_transfer_on_tx () =
  let net, a, b = funded_net () in
  let before = State.balance (T.state net) b in
  let _ = T.transact net ~from:a ~to_:b ~value:(U.of_int 12345) "" in
  let after = State.balance (T.state net) b in
  Alcotest.(check string) "received" "0x3039" (U.to_hex (U.sub after before))

let test_fork_isolation () =
  let net, a, _ = funded_net () in
  let r = T.deploy_runtime net ~from:a runtime_five in
  let addr = match r.T.created with Some x -> x | None -> assert false in
  let fork = T.fork net in
  (* destroy on the fork only *)
  State.selfdestruct (T.state fork) ~victim:addr ~beneficiary:a;
  Alcotest.(check bool) "fork destroyed" false (T.is_alive fork addr);
  Alcotest.(check bool) "original untouched" true (T.is_alive net addr)

let test_call_fn_selector () =
  (* compile a MiniSol contract; call by signature *)
  let src = {|
contract Adder {
  uint256 acc;
  function add(uint256 x) public returns (uint256) {
    acc = acc + x;
    return acc;
  }
}|} in
  let net, a, _ = funded_net () in
  let r = T.deploy net ~from:a (Ethainter_minisol.Codegen.compile_source src) in
  let addr = match r.T.created with Some x -> x | None -> assert false in
  let r1 = T.call_fn net ~from:a ~to_:addr "add(uint256)" [ U.of_int 5 ] in
  let r2 = T.call_fn net ~from:a ~to_:addr "add(uint256)" [ U.of_int 7 ] in
  (match (T.return_word r1, T.return_word r2) with
  | Some v1, Some v2 ->
      Alcotest.(check string) "first" "0x5" (U.to_hex v1);
      Alcotest.(check string) "accumulated" "0xc" (U.to_hex v2)
  | _ -> Alcotest.fail "calls failed");
  (* wrong selector reverts *)
  let bad = T.call_fn net ~from:a ~to_:addr "nosuch()" [] in
  Alcotest.(check bool) "unknown selector reverts" false (T.succeeded bad)

let test_receipts_recorded () =
  let net, a, b = funded_net () in
  let _ = T.transact net ~from:a ~to_:b "" in
  let _ = T.transact net ~from:b ~to_:a "" in
  Alcotest.(check bool) "block number advanced" true (T.block_number net >= 2)

let test_event_logs () =
  (* events emitted via LOG1 appear on the receipt; reverted txs drop
     their logs *)
  let src = {|
contract Events {
  uint256 n;
  function fire(uint256 x) public {
    require(x < 100);
    n = n + 1;
    log_event(42, x);
  }
}|} in
  let net, a, _ = funded_net () in
  let r = T.deploy net ~from:a (Ethainter_minisol.Codegen.compile_source src) in
  let addr = match r.T.created with Some x -> x | None -> assert false in
  let rc = T.call_fn net ~from:a ~to_:addr "fire(uint256)" [ U.of_int 7 ] in
  (match rc.T.logs with
  | [ log ] ->
      Alcotest.(check string) "topic" "0x2a"
        (U.to_hex (List.hd log.Ethainter_evm.Interp.topics));
      Alcotest.(check string) "data word" "0x7"
        (U.to_hex (U.of_bytes log.Ethainter_evm.Interp.data))
  | logs ->
      Alcotest.fail (Printf.sprintf "expected 1 log, got %d" (List.length logs)));
  (* a reverting call emits nothing *)
  let bad = T.call_fn net ~from:a ~to_:addr "fire(uint256)" [ U.of_int 500 ] in
  Alcotest.(check bool) "reverted" false (T.succeeded bad);
  Alcotest.(check int) "no logs on revert" 0 (List.length bad.T.logs)

let test_gas_accounting () =
  let net, a, _ = funded_net () in
  let r = T.deploy_runtime net ~from:a runtime_five in
  let addr = match r.T.created with Some x -> x | None -> assert false in
  let rc = T.transact net ~from:a ~to_:addr "" in
  Alcotest.(check bool) "gas used positive" true (rc.T.gas_used > 0);
  Alcotest.(check bool) "gas used bounded" true (rc.T.gas_used < 100_000)

let test_failed_deploy_rolls_back () =
  let net, a, _ = funded_net () in
  (* deployment code that reverts *)
  let initcode =
    B.assemble [ B.Push U.zero; B.Push U.zero; B.Op Op.REVERT ]
  in
  let r = T.deploy net ~from:a initcode in
  Alcotest.(check bool) "no contract created" true (r.T.created = None)

(* ---------- block observation (streaming-index feed) ---------- *)

let blocky_src = {|
contract Blocky {
  address owner;
  uint256 n;
  constructor() { owner = msg.sender; }
  function bump() public { n = n + 1; }
  function kill() public {
    require(msg.sender == owner);
    selfdestruct(owner);
  }
}|}

let deploy_blocky net from =
  let r =
    T.deploy net ~from (Ethainter_minisol.Codegen.compile_source blocky_src)
  in
  match r.T.created with Some a -> a | None -> assert false

let test_blocks_carry_effects () =
  let net, a, _ = funded_net () in
  let addr = deploy_blocky net a in
  ignore (T.call_fn net ~from:a ~to_:addr "bump()" []);
  ignore (T.call_fn net ~from:a ~to_:addr "kill()" []);
  (* nothing subscribed yet, so every block is kept: a subscriber from
     genesis catches up on all of them *)
  let seen = ref [] in
  let sub = T.subscribe net ~cursor:0 (fun b -> seen := b :: !seen) in
  T.unsubscribe net sub;
  let blocks = List.rev !seen in
  Alcotest.(check bool) "one block per transaction" true
    (List.length blocks >= 3);
  (* ascending, consecutive numbering *)
  List.iteri
    (fun i (b : T.block) ->
      Alcotest.(check int) "block number ascending" (i + 1) b.T.b_number)
    blocks;
  let deploy_b = List.nth blocks (List.length blocks - 3) in
  let bump_b = List.nth blocks (List.length blocks - 2) in
  let kill_b = List.nth blocks (List.length blocks - 1) in
  (match deploy_b.T.b_deployed with
  | [ (da, code) ] ->
      Alcotest.(check bool) "deployed address" true (U.equal da addr);
      Alcotest.(check bool) "deployed runtime nonempty" true
        (String.length code > 0)
  | l -> Alcotest.failf "expected 1 deployment, got %d" (List.length l));
  Alcotest.(check bool) "bump writes slot 1" true
    (List.exists
       (fun (c, s) -> U.equal c addr && U.equal s U.one)
       bump_b.T.b_storage_writes);
  Alcotest.(check bool) "kill block lists the selfdestruct" true
    (List.exists (U.equal addr) kill_b.T.b_selfdestructed);
  Alcotest.(check bool) "dead contracts leave live_contracts" true
    (not (List.exists (fun (c, _) -> U.equal c addr) (T.live_contracts net)))

let test_on_block_matches_pull () =
  let net, a, _ = funded_net () in
  let seen = ref [] in
  let mark = T.block_number net in
  T.on_block net (fun b -> seen := b :: !seen);
  let addr = deploy_blocky net a in
  ignore (T.call_fn net ~from:a ~to_:addr "bump()" []);
  (* the pull side: a late subscriber's catch-up from the same mark *)
  let pulled = ref [] in
  let sub = T.subscribe net ~cursor:mark (fun b -> pulled := b :: !pulled) in
  T.unsubscribe net sub;
  Alcotest.(check bool) "push stream equals pull stream" true
    (!seen <> [] && !seen = !pulled)

let test_in_block_batches () =
  let net, a, _ = funded_net () in
  let addr = deploy_blocky net a in
  let before = T.block_number net in
  let sealed = ref [] in
  T.on_block net (fun b -> sealed := b :: !sealed);
  let r1, r2 =
    T.in_block net (fun () ->
        let r1 = T.call_fn net ~from:a ~to_:addr "bump()" [] in
        (r1, T.call_fn net ~from:a ~to_:addr "bump()" []))
  in
  Alcotest.(check int) "one block for the batch" (before + 1)
    (T.block_number net);
  match !sealed with
  | [ b ] ->
      Alcotest.(check (list int)) "both transactions in the block"
        [ b.T.b_number; b.T.b_number ] [ r1.T.block; r2.T.block ];
      (* the two writes to the same slot are deduplicated *)
      Alcotest.(check int) "writes deduplicated" 1
        (List.length
           (List.filter (fun (c, _) -> U.equal c addr) b.T.b_storage_writes))
  | l -> Alcotest.failf "expected 1 sealed block, got %d" (List.length l)

let refused f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_history_retention () =
  let net, a, _ = funded_net () in
  let addr = deploy_blocky net a in
  let bump () = ignore (T.call_fn net ~from:a ~to_:addr "bump()" []) in
  (* a plain observer pins nothing, but with no subscriber every block
     is kept for a future one *)
  T.on_block net (fun _ -> ());
  bump ();
  let got = ref [] in
  let s1 = T.subscribe net ~cursor:0 (fun b -> got := b.T.b_number :: !got) in
  Alcotest.(check (list int)) "caught up from genesis" [ 1; 2 ] (List.rev !got);
  bump ();
  Alcotest.(check (list int)) "then tails" [ 1; 2; 3 ] (List.rev !got);
  (* the subscriber has every block: none is kept *)
  Alcotest.(check bool) "released blocks refused" true
    (refused (fun () -> T.subscribe net ~cursor:0 (fun _ -> ())));
  let s2 = T.subscribe net ~cursor:(T.block_number net) (fun _ -> ()) in
  T.unsubscribe net s1;
  T.unsubscribe net s2;
  T.unsubscribe net s2;
  (* no subscriber left: blocks are kept again from here on *)
  let head = T.block_number net in
  bump ();
  bump ();
  Alcotest.(check bool) "blocks before the gap refused" true
    (refused (fun () -> T.subscribe net ~cursor:(head - 1) (fun _ -> ())));
  let late = ref [] in
  let s3 =
    T.subscribe net ~cursor:head (fun b -> late := b.T.b_number :: !late)
  in
  Alcotest.(check (list int)) "kept since the last subscriber left"
    [ head + 1; head + 2 ] (List.rev !late);
  T.unsubscribe net s3

let () =
  Alcotest.run "chain"
    [ ( "testnet",
        [ Alcotest.test_case "deterministic accounts" `Quick
            test_accounts_deterministic;
          Alcotest.test_case "deploy and call" `Quick test_deploy_and_call;
          Alcotest.test_case "distinct addresses" `Quick
            test_distinct_addresses;
          Alcotest.test_case "value transfer" `Quick test_value_transfer_on_tx;
          Alcotest.test_case "fork isolation" `Quick test_fork_isolation;
          Alcotest.test_case "call by signature" `Quick test_call_fn_selector;
          Alcotest.test_case "receipts" `Quick test_receipts_recorded;
          Alcotest.test_case "event logs" `Quick test_event_logs;
          Alcotest.test_case "gas accounting" `Quick test_gas_accounting;
          Alcotest.test_case "failed deploy" `Quick
            test_failed_deploy_rolls_back ] );
      ( "blocks",
        [ Alcotest.test_case "blocks carry effects" `Quick
            test_blocks_carry_effects;
          Alcotest.test_case "push equals pull" `Quick
            test_on_block_matches_pull;
          Alcotest.test_case "in_block batches" `Quick test_in_block_batches;
          Alcotest.test_case "history kept only for subscribers" `Quick
            test_history_retention ] )
    ]
