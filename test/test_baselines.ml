(* Tests for the three baseline tools: the Securify pattern analyzer,
   the Securify2 source-level analyzer, and the teEther symbolic
   executor — including a dynamic check that teEther's synthesized
   exploits actually work on the chain. *)

module U = Ethainter_word.Uint256
module T = Ethainter_chain.Testnet
module Sec = Ethainter_baselines.Securify
module Sec2 = Ethainter_baselines.Securify2
module Te = Ethainter_baselines.Teether
module Sx = Ethainter_baselines.Symex

let compile_rt = Ethainter_minisol.Codegen.compile_source_runtime

let token_src = {|
contract Token {
  mapping(address => uint256) balances;
  function transfer(address to, uint256 v) public {
    require(balances[msg.sender] >= v);
    balances[to] = balances[to] + v;
    balances[msg.sender] = balances[msg.sender] - v;
  }
  function deposit() public payable {
    balances[msg.sender] = balances[msg.sender] + msg.value;
  }
}|}

let owner_guarded_src = {|
contract C {
  address owner;
  uint256 v;
  constructor() { owner = msg.sender; }
  function set(uint256 x) public { require(msg.sender == owner); v = x; }
}|}

(* ---------- Securify ---------- *)

let test_securify_flags_token () =
  (* the §6.2 example: mapping writes are pointer arithmetic to
     Securify, hence "unrestricted write" false positives *)
  let r = Sec.analyze (compile_rt token_src) in
  Alcotest.(check bool) "token flagged" true r.Sec.flagged;
  Alcotest.(check bool) "unrestricted writes reported" true
    (Sec.count_pattern r "unrestricted-write" > 0)

let test_securify_eq_guard_compliant () =
  (* a direct msg.sender == owner guard IS modeled by Securify *)
  let r = Sec.analyze (compile_rt owner_guarded_src) in
  Alcotest.(check int) "owner-guarded write compliant" 0
    (Sec.count_pattern r "unrestricted-write")

let test_securify_vs_ethainter_on_token () =
  (* Ethainter's data-structure modeling keeps the token clean *)
  let eth = Ethainter_core.Pipeline.(run (request (Runtime (compile_rt token_src)))) in
  Alcotest.(check int) "ethainter clean on token" 0
    (List.length eth.Ethainter_core.Pipeline.reports)

let test_securify_missing_input_validation () =
  let src = {|
contract C {
  uint256 stored;
  function put(uint256 x) public { stored = x; }
}|} in
  let r = Sec.analyze (compile_rt src) in
  Alcotest.(check bool) "unvalidated input to sstore" true
    (Sec.count_pattern r "missing-input-validation" > 0)

(* ---------- Securify2 ---------- *)

let info ?(src = Some "") ?(version = (5, 8)) ?(assembly = false) source =
  { Sec2.src = (match src with Some _ -> Some source | None -> None);
    solidity_version = version; uses_assembly = assembly }

let test_securify2_selfdestruct () =
  let open_kill = {|
contract C {
  address b;
  constructor() { b = msg.sender; }
  function kill() public { selfdestruct(b); }
}|} in
  (match Sec2.analyze (info open_kill) with
  | Sec2.Findings fs ->
      Alcotest.(check bool) "unguarded kill flagged" true
        (List.exists (fun f -> f.Sec2.pattern = "UnrestrictedSelfdestruct") fs)
  | _ -> Alcotest.fail "expected findings");
  match Sec2.analyze (info owner_guarded_src) with
  | Sec2.Findings fs ->
      Alcotest.(check bool) "guarded contract has no selfdestruct finding"
        false
        (List.exists (fun f -> f.Sec2.pattern = "UnrestrictedSelfdestruct") fs)
  | _ -> Alcotest.fail "expected findings"

let test_securify2_no_composite () =
  (* Securify2 sees the sender guard on kill() and stays silent on the
     Victim — it cannot reason about guard tainting *)
  let victim = {|
contract Victim {
  mapping(address => bool) admins;
  mapping(address => bool) users;
  address owner;
  modifier onlyAdmins { require(admins[msg.sender]); _; }
  modifier onlyUsers { require(users[msg.sender]); _; }
  constructor() { owner = msg.sender; }
  function registerSelf() public { users[msg.sender] = true; }
  function referAdmin(address adm) public onlyUsers { admins[adm] = true; }
  function changeOwner(address o) public onlyAdmins { owner = o; }
  function kill() public onlyAdmins { selfdestruct(owner); }
}|} in
  match Sec2.analyze (info victim) with
  | Sec2.Findings fs ->
      Alcotest.(check bool) "composite invisible to Securify2" false
        (List.exists (fun f -> f.Sec2.pattern = "UnrestrictedSelfdestruct") fs)
  | _ -> Alcotest.fail "expected findings"

let test_securify2_applicability () =
  (match Sec2.analyze { (info "contract C { }") with Sec2.src = None } with
  | Sec2.NotApplicable _ -> ()
  | _ -> Alcotest.fail "no source must be out of scope");
  (match Sec2.analyze (info ~version:(4, 24) "contract C { }") with
  | Sec2.NotApplicable _ -> ()
  | _ -> Alcotest.fail "old solidity must be out of scope");
  match Sec2.analyze (info "contract C {") with
  | Sec2.NotApplicable _ -> ()
  | _ -> Alcotest.fail "unparsable source must fail fact extraction"

let test_securify2_assembly_blindspot () =
  let delegate = {|
contract C { function m(address d) public { delegatecall(d); } }|} in
  (match Sec2.analyze (info ~assembly:true delegate) with
  | Sec2.Findings fs ->
      Alcotest.(check bool) "delegatecall in assembly invisible" false
        (List.exists (fun f -> f.Sec2.pattern = "UnrestrictedDelegateCall") fs)
  | _ -> Alcotest.fail "expected findings");
  match Sec2.analyze (info ~assembly:false delegate) with
  | Sec2.Findings fs ->
      Alcotest.(check bool) "plain-source delegatecall visible" true
        (List.exists (fun f -> f.Sec2.pattern = "UnrestrictedDelegateCall") fs)
  | _ -> Alcotest.fail "expected findings"

let test_securify2_timeout () =
  (* a loop-heavy contract blows the work budget *)
  let loops =
    let body = String.concat "" (List.init 20 (fun i ->
        Printf.sprintf
          "  function f%d(uint256 n) public returns (uint256) { uint256 s = 0; uint256 i = 0; while (i < n) { if (s %% 2 == 0) { s = s + i; } else { s = s + 2 * i; } i = i + 1; } return s; }\n"
          i))
    in
    "contract Busy {\n" ^ body ^ "}"
  in
  match Sec2.analyze (info loops) with
  | Sec2.Timeout -> ()
  | _ -> Alcotest.fail "expected timeout"

(* ---------- Symex / teEther ---------- *)

let test_symex_reaches_selfdestruct () =
  let open_kill = {|
contract C {
  address b;
  constructor() { b = msg.sender; }
  function kill() public { selfdestruct(b); }
}|} in
  let paths, _ = Sx.explore (compile_rt open_kill) in
  Alcotest.(check bool) "found a selfdestruct path" true (paths <> [])

let test_teether_exploit_works_on_chain () =
  (* the acid test: replay the synthesized calldata on the testnet and
     watch the contract die *)
  let open_kill = {|
contract C {
  address b;
  constructor() { b = msg.sender; }
  function kill() public { selfdestruct(b); }
}|} in
  match Te.analyze (compile_rt open_kill) with
  | Te.Exploits (e :: _) ->
      let net = T.create () in
      let deployer = T.account_of_seed "d" in
      T.fund_account net deployer (U.of_string "1000000000000000000");
      T.fund_account net e.Te.e_caller (U.of_string "1000000000000000000");
      let r =
        T.deploy net ~from:deployer
          (Ethainter_minisol.Codegen.compile_source open_kill)
      in
      let addr = match r.T.created with Some a -> a | None -> assert false in
      let rc =
        T.transact net ~from:e.Te.e_caller ~to_:addr e.Te.e_calldata
      in
      Alcotest.(check bool) "exploit transaction succeeded" true
        (T.succeeded rc);
      Alcotest.(check bool) "contract destroyed" false (T.is_alive net addr)
  | _ -> Alcotest.fail "teEther should synthesize an exploit"

let test_teether_respects_guards () =
  (* fresh-deploy storage has owner == 0; no admissible caller passes *)
  match Te.analyze (compile_rt owner_guarded_src) with
  | Te.Exploits _ -> Alcotest.fail "guarded contract must not be exploited"
  | _ -> ()

let test_teether_misses_composite () =
  (* single-transaction symbolic execution cannot see the §2 chain *)
  let victim = {|
contract Victim {
  mapping(address => bool) admins;
  address owner;
  modifier onlyAdmins { require(admins[msg.sender]); _; }
  constructor() { owner = msg.sender; }
  function registerAdmin(address a) public { admins[a] = true; }
  function kill() public onlyAdmins { selfdestruct(owner); }
}|} in
  (* NB: even this 2-transaction attack (registerAdmin then kill) is
     invisible to a single-tx symbolic tool *)
  match Te.analyze (compile_rt victim) with
  | Te.Exploits _ -> Alcotest.fail "multi-tx exploit should be missed"
  | _ -> ()

let test_teether_budget () =
  (* pathological loop: resources run out rather than hanging *)
  let loopy = {|
contract C {
  address b;
  function spin(uint256 n) public {
    uint256 i = 0;
    while (i < n) { i = i + 1; }
    selfdestruct(b);
  }
}|} in
  match Te.analyze ~max_steps:2000 ~max_paths:8 (compile_rt loopy) with
  | Te.ResourceExhausted -> ()
  | Te.Exploits _ -> () (* acceptable: found before budget ran out *)
  | Te.NoExploit -> Alcotest.fail "loop should exhaust budget or find exploit"

let test_symex_solver_soundness () =
  (* find_model never returns a model violating its constraints *)
  let paths, _ =
    Sx.explore
      (compile_rt {|
contract C {
  function pick(uint256 x) public {
    require(x == 77);
    selfdestruct(msg.sender);
  }
}|})
  in
  Alcotest.(check bool) "path found" true (paths <> []);
  List.iter
    (fun (p : Sx.path) ->
      match
        Sx.find_model p.Sx.constraints ~initial_storage:(fun _ -> U.zero)
      with
      | Some m ->
          Alcotest.(check bool) "model satisfies constraints" true
            (Sx.check_model m p.Sx.constraints)
      | None -> ())
    paths

(* differential property: on straight-line arithmetic over calldata,
   the symbolic executor's path expression evaluates to exactly what
   the concrete interpreter computes *)
let prop_symex_matches_interp =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"symex expression = concrete execution"
       ~count:40
       QCheck.(pair (int_bound 100000) (int_bound 100000))
       (fun (a, b) ->
         (* contract: selfdestruct(calldata0 * a + b) — symbolically
            explore, then evaluate the beneficiary under a model and
            compare with concrete execution *)
         let module B = Ethainter_evm.Bytecode in
         let module Op = Ethainter_evm.Opcode in
         let code =
           B.assemble
             [ B.Push (U.of_int b); B.Push (U.of_int a); B.Push U.zero;
               B.Op Op.CALLDATALOAD; B.Op Op.MUL; B.Op Op.ADD;
               B.Op Op.SELFDESTRUCT ]
         in
         let paths, _ = Sx.explore code in
         match paths with
         | [ p ] -> (
             let x = U.of_int 777 in
             let model =
               { Sx.caller = U.of_int 1; callvalue = U.zero;
                 inputs = [ (0, x) ]; initial_storage = (fun _ -> U.zero) }
             in
             match Option.bind p.Sx.beneficiary (Sx.eval model) with
             | Some sym_val ->
                 (* concrete run *)
                 let state = Ethainter_evm.State.create () in
                 let contract = U.of_int 0xC0DE in
                 Ethainter_evm.State.set_code state contract code;
                 Ethainter_evm.State.set_balance state contract (U.of_int 5);
                 ignore
                   (Ethainter_evm.Interp.call_full state ~caller:(U.of_int 1)
                      ~target:contract ~value:U.zero
                      ~calldata:(U.to_bytes x));
                 let expected = U.add (U.mul x (U.of_int a)) (U.of_int b) in
                 (* the destroyed balance went to the computed address *)
                 Ethainter_evm.State.is_destroyed state contract
                 && U.equal sym_val expected
                 && U.equal
                      (Ethainter_evm.State.balance state
                         (U.logand expected
                            (U.sub (U.shift_left U.one 160) U.one)))
                      (U.of_int 5)
             | None -> false)
         | _ -> false))

let () =
  Alcotest.run "baselines"
    [ ( "securify",
        [ Alcotest.test_case "flags the token" `Quick test_securify_flags_token;
          Alcotest.test_case "eq-guard compliant" `Quick
            test_securify_eq_guard_compliant;
          Alcotest.test_case "ethainter clean on token" `Quick
            test_securify_vs_ethainter_on_token;
          Alcotest.test_case "missing input validation" `Quick
            test_securify_missing_input_validation ] );
      ( "securify2",
        [ Alcotest.test_case "selfdestruct pattern" `Quick
            test_securify2_selfdestruct;
          Alcotest.test_case "blind to composite" `Quick
            test_securify2_no_composite;
          Alcotest.test_case "applicability" `Quick
            test_securify2_applicability;
          Alcotest.test_case "assembly blind spot" `Quick
            test_securify2_assembly_blindspot;
          Alcotest.test_case "timeout" `Quick test_securify2_timeout ] );
      ( "teether",
        [ Alcotest.test_case "symex reaches selfdestruct" `Quick
            test_symex_reaches_selfdestruct;
          Alcotest.test_case "exploit works on chain" `Quick
            test_teether_exploit_works_on_chain;
          Alcotest.test_case "respects guards" `Quick
            test_teether_respects_guards;
          Alcotest.test_case "misses composite" `Quick
            test_teether_misses_composite;
          Alcotest.test_case "budget" `Quick test_teether_budget;
          Alcotest.test_case "solver soundness" `Quick
            test_symex_solver_soundness ] );
      ("differential", [ prop_symex_matches_interp ]) ]
