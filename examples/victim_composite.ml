(* The paper's Section 2 scenario, end to end:

   1. deploy the Victim contract on a private testnet;
   2. Ethainter statically detects the composite vulnerability;
   3. Ethainter-Kill exploits it automatically — the four-step
      escalation (register as user, refer self as admin, take
      ownership, kill) — and confirms the destruction from the
      post-state (the victim is no longer alive).

   Run with: dune exec examples/victim_composite.exe *)

module U = Ethainter_word.Uint256
module T = Ethainter_chain.Testnet

let victim_src = {|
contract Victim {
  mapping(address => bool) admins;
  mapping(address => bool) users;
  address owner;

  modifier onlyAdmins { require(admins[msg.sender]); _; }
  modifier onlyUsers { require(users[msg.sender]); _; }

  constructor() { owner = msg.sender; }

  function registerSelf() public { users[msg.sender] = true; }
  function referUser(address user) public onlyUsers { users[user] = true; }
  // BUG: should be onlyAdmins — the paper's copy-paste mistake.
  function referAdmin(address adm) public onlyUsers { admins[adm] = true; }
  function changeOwner(address o) public onlyAdmins { owner = o; }
  function kill() public onlyAdmins { selfdestruct(owner); }
}|}

let () =
  (* --- static detection --- *)
  let runtime = Ethainter_minisol.Codegen.compile_source_runtime victim_src in
  let result = Ethainter_core.Pipeline.(run (request (Runtime runtime))) in
  print_endline "Ethainter reports:";
  List.iter
    (fun r ->
      Printf.printf "  %s\n" (Ethainter_core.Vulns.report_to_string r))
    result.Ethainter_core.Pipeline.reports;

  (* --- deployment on a private fork --- *)
  let net = T.create () in
  let deployer = T.account_of_seed "deployer" in
  let attacker = T.account_of_seed "attacker" in
  T.fund_account net deployer (U.of_string "1000000000000000000");
  T.fund_account net attacker (U.of_string "1000000000000000000");
  let initcode = Ethainter_minisol.Codegen.compile_source victim_src in
  let r = T.deploy net ~from:deployer ~value:(U.of_int 777) initcode in
  let victim =
    match r.T.created with Some a -> a | None -> failwith "deploy failed"
  in
  Printf.printf "\nVictim deployed at %s (balance %s wei)\n" (U.to_hex victim)
    (U.to_decimal (Ethainter_evm.State.balance (T.state net) victim));

  (* a direct kill attempt by the attacker fails: the guard holds *)
  let direct = T.call_fn net ~from:attacker ~to_:victim "kill()" [] in
  Printf.printf "direct kill(): %s\n"
    (if T.succeeded direct then "succeeded (?!)" else "reverted, as expected");

  (* --- automatic exploitation --- *)
  let attempt =
    Ethainter_kill.Kill.attack net ~attacker ~victim
      result.Ethainter_core.Pipeline.reports
  in
  Printf.printf "Ethainter-Kill: %s after %d transactions\n"
    (Ethainter_kill.Kill.outcome_to_string attempt.Ethainter_kill.Kill.a_outcome)
    attempt.Ethainter_kill.Kill.a_txs_sent;
  Printf.printf "victim alive: %b; attacker balance now %s wei\n"
    (T.is_alive net victim)
    (U.to_decimal (Ethainter_evm.State.balance (T.state net) attacker))
