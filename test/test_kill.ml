(* Ethainter-Kill tests: selector harvesting, the escalation sweep,
   post-state-verified destruction (a SELFDESTRUCT undone by an inner
   revert does not count), and the no-public-entry giveup path. *)

module U = Ethainter_word.Uint256
module T = Ethainter_chain.Testnet
module K = Ethainter_kill.Kill
module P = Ethainter_core.Pipeline

let setup src =
  let net = T.create () in
  let deployer = T.account_of_seed "deployer" in
  let attacker = T.account_of_seed "attacker" in
  T.fund_account net deployer (U.of_string "1000000000000000000");
  T.fund_account net attacker (U.of_string "1000000000000000000");
  let r = T.deploy net ~from:deployer ~value:(U.of_int 1000)
      (Ethainter_minisol.Codegen.compile_source src) in
  let victim = match r.T.created with Some a -> a | None -> assert false in
  let runtime = Ethainter_evm.State.code (T.state net) victim in
  let reports = (P.run (P.request (P.Runtime runtime))).P.reports in
  (net, attacker, victim, reports)

let test_harvest_selectors () =
  let src = {|
contract C {
  uint256 a;
  function first() public { a = 1; }
  function second(uint256 x) public { a = x; }
  function hidden() private { a = 3; }
}|} in
  let runtime = Ethainter_minisol.Codegen.compile_source_runtime src in
  let p = Ethainter_tac.Decomp.decompile runtime in
  let sels = K.harvest_selectors p in
  let expect name =
    U.of_bytes (Ethainter_crypto.Keccak.selector name)
  in
  Alcotest.(check bool) "first() found" true
    (List.exists (U.equal (expect "first()")) sels);
  Alcotest.(check bool) "second(uint256) found" true
    (List.exists (U.equal (expect "second(uint256)")) sels);
  Alcotest.(check bool) "private not in dispatcher" false
    (List.exists (U.equal (expect "hidden()")) sels)

let test_kill_simple () =
  let net, attacker, victim, reports = setup {|
contract C {
  address b;
  constructor() { b = msg.sender; }
  function kill() public { selfdestruct(b); }
}|} in
  let a = K.attack net ~attacker ~victim reports in
  Alcotest.(check bool) "destroyed" true (a.K.a_outcome = K.Destroyed);
  Alcotest.(check bool) "gone from state" false (T.is_alive net victim)

let test_kill_composite_victim () =
  let net, attacker, victim, reports = setup {|
contract Victim {
  mapping(address => bool) admins;
  mapping(address => bool) users;
  address owner;
  modifier onlyAdmins { require(admins[msg.sender]); _; }
  modifier onlyUsers { require(users[msg.sender]); _; }
  constructor() { owner = msg.sender; }
  function registerSelf() public { users[msg.sender] = true; }
  function referUser(address user) public onlyUsers { users[user] = true; }
  function referAdmin(address adm) public onlyUsers { admins[adm] = true; }
  function changeOwner(address o) public onlyAdmins { owner = o; }
  function kill() public onlyAdmins { selfdestruct(owner); }
}|} in
  let before = Ethainter_evm.State.balance (T.state net) attacker in
  let a = K.attack net ~attacker ~victim reports in
  Alcotest.(check bool) "composite kill succeeds" true
    (a.K.a_outcome = K.Destroyed);
  (* the balance flowed to the attacker (owner was changed to them) *)
  let after = Ethainter_evm.State.balance (T.state net) attacker in
  Alcotest.(check bool) "funds captured" true (U.gt after before)

let test_kill_fails_on_safe () =
  let net, attacker, victim, _reports = setup {|
contract C {
  address owner;
  constructor() { owner = msg.sender; }
  function kill() public { require(msg.sender == owner); selfdestruct(owner); }
}|} in
  (* force an attempt even though Ethainter produced no reports *)
  let fake_report =
    Ethainter_core.Vulns.
      { r_kind = AccessibleSelfdestruct; r_pc = 0; r_block = 0;
        r_orphan = false; r_composite = false; r_note = "" }
  in
  let a = K.attack net ~attacker ~victim [ fake_report ] in
  Alcotest.(check bool) "not exploited" true (a.K.a_outcome = K.NotExploited);
  Alcotest.(check bool) "still alive" true (T.is_alive net victim)

let test_kill_no_public_entry () =
  let net, attacker, victim, reports = setup {|
contract C {
  address owner;
  uint256 n;
  constructor() { owner = msg.sender; }
  function bump() public { n = n + 1; }
  function escape() private { selfdestruct(owner); }
}|} in
  Alcotest.(check bool) "analysis flagged the orphan" true (reports <> []);
  let a = K.attack net ~attacker ~victim reports in
  Alcotest.(check bool) "kill gives up: no public entry" true
    (a.K.a_outcome = K.NoPublicEntry);
  Alcotest.(check int) "no transactions wasted" 0 a.K.a_txs_sent

let test_kill_nothing_to_do () =
  let net, attacker, victim, _ = setup {|
contract C { function m(address d) public { delegatecall(d); } }|} in
  (* delegatecall reports are not supported by Kill (as in the paper) *)
  let reports =
    (P.run (P.request (P.Runtime (Ethainter_evm.State.code (T.state net) victim)))).P.reports
  in
  let a = K.attack net ~attacker ~victim reports in
  Alcotest.(check bool) "unsupported kind" true (a.K.a_outcome = K.NothingToDo)

(* A SELFDESTRUCT inside an inner call that later reverts destroys
   nothing. The victim's poke() calls a helper; the helper calls back
   into the victim's kill path (open to the helper only), then reverts,
   and poke() ignores the failure and returns. The receipt's effects
   (like the instruction trace) show the SELFDESTRUCT in the victim's
   context, yet the victim is alive with its balance: Kill must judge
   from the post-state. *)
let test_kill_inner_revert_is_not_destruction () =
  let module B = Ethainter_evm.Bytecode in
  let module Op = Ethainter_evm.Opcode in
  let module I = Ethainter_evm.Interp in
  List.iter
    (fun engine ->
      let net = T.create ~engine () in
      let deployer = T.account_of_seed "deployer" in
      let attacker = T.account_of_seed "attacker" in
      T.fund_account net deployer (U.of_string "1000000000000000000");
      T.fund_account net attacker (U.of_string "1000000000000000000");
      let deployed r =
        match r.T.created with Some a -> a | None -> assert false
      in
      let victim =
        deployed
          (T.deploy net ~from:deployer ~value:(U.of_int 500)
             (Ethainter_minisol.Codegen.compile_source {|
contract Victim {
  address owner;
  address helper;
  constructor() { owner = msg.sender; }
  function setHelper(address h) public {
    require(msg.sender == owner);
    helper = h;
  }
  function poke() public { call_value(helper, 0); }
  function kill() public { require(msg.sender == helper); selfdestruct(owner); }
}|}))
      in
      let kill_sel =
        U.shift_left
          (U.of_bytes (Ethainter_crypto.Keccak.selector "kill()"))
          224
      in
      let helper =
        deployed
          (T.deploy_runtime net ~from:deployer
             (B.assemble
                [ B.Push kill_sel; B.Push U.zero; B.Op Op.MSTORE;
                  (* CALL victim.kill() with 4 bytes of calldata *)
                  B.Push U.zero; B.Push U.zero; B.Push (U.of_int 4);
                  B.Push U.zero; B.Push U.zero; B.Push victim; B.Op Op.GAS;
                  B.Op Op.CALL; B.Op Op.POP;
                  B.Push U.zero; B.Push U.zero; B.Op Op.REVERT ]))
      in
      Alcotest.(check bool) "helper installed" true
        (T.succeeded
           (T.call_fn net ~from:deployer ~to_:victim "setHelper(address)"
              [ helper ]));
      let probe = T.fork net in
      let r = T.call_fn probe ~from:attacker ~to_:victim "poke()" [] in
      Alcotest.(check bool) "poke() returns" true (T.succeeded r);
      Alcotest.(check bool) "effects show the victim's SELFDESTRUCT" true
        (List.mem (I.E_selfdestruct victim) r.T.effects);
      Alcotest.(check bool) "yet the victim is alive" true
        (T.is_alive probe victim);
      let fake_report =
        Ethainter_core.Vulns.
          { r_kind = AccessibleSelfdestruct; r_pc = 0; r_block = 0;
            r_orphan = false; r_composite = false; r_note = "" }
      in
      let a = K.attack net ~attacker ~victim [ fake_report ] in
      Alcotest.(check bool) "not reported destroyed" true
        (a.K.a_outcome = K.NotExploited);
      Alcotest.(check bool) "victim alive" true (T.is_alive net victim);
      Alcotest.(check string) "balance kept" (U.to_hex (U.of_int 500))
        (U.to_hex (Ethainter_evm.State.balance (T.state net) victim)))
    [ Ethainter_evm.Interp.Decoded; Ethainter_evm.Interp.Bytewise ]

let test_campaign_stats () =
  let net = T.create () in
  let deployer = T.account_of_seed "deployer" in
  let attacker = T.account_of_seed "attacker" in
  T.fund_account net deployer (U.of_string "1000000000000000000");
  T.fund_account net attacker (U.of_string "1000000000000000000");
  let deploy src =
    let r = T.deploy net ~from:deployer
        (Ethainter_minisol.Codegen.compile_source src) in
    match r.T.created with Some a -> a | None -> assert false
  in
  let killable = deploy {|
contract A { address b; constructor() { b = msg.sender; }
  function kill() public { selfdestruct(b); } }|} in
  let safe = deploy {|
contract B { address o; constructor() { o = msg.sender; }
  function kill() public { require(msg.sender == o); selfdestruct(o); } }|} in
  let reports_of addr =
    (P.run (P.request (P.Runtime (Ethainter_evm.State.code (T.state net) addr)))).P.reports
  in
  let fake =
    Ethainter_core.Vulns.
      { r_kind = AccessibleSelfdestruct; r_pc = 0; r_block = 0;
        r_orphan = false; r_composite = false; r_note = "" }
  in
  let stats, attempts =
    K.campaign net ~attacker
      [ (killable, reports_of killable); (safe, [ fake ]) ]
  in
  Alcotest.(check int) "flagged" 2 stats.K.flagged;
  Alcotest.(check int) "destroyed" 1 stats.K.destroyed;
  Alcotest.(check int) "not exploited" 1 stats.K.not_exploited;
  Alcotest.(check int) "attempts recorded" 2 (List.length attempts)

let () =
  Alcotest.run "kill"
    [ ( "kill",
        [ Alcotest.test_case "selector harvest" `Quick test_harvest_selectors;
          Alcotest.test_case "simple kill" `Quick test_kill_simple;
          Alcotest.test_case "composite kill (§2)" `Quick
            test_kill_composite_victim;
          Alcotest.test_case "safe survives" `Quick test_kill_fails_on_safe;
          Alcotest.test_case "no public entry" `Quick
            test_kill_no_public_entry;
          Alcotest.test_case "unsupported kinds" `Quick
            test_kill_nothing_to_do;
          Alcotest.test_case "inner revert is not destruction" `Quick
            test_kill_inner_revert_is_not_destruction;
          Alcotest.test_case "campaign stats" `Quick test_campaign_stats ] ) ]
