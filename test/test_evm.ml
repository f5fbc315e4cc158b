(* EVM interpreter tests: opcode semantics, control flow, memory,
   storage, calls, reverts, tracing, and a differential property
   checking compiled arithmetic against Uint256. *)

module U = Ethainter_word.Uint256
module Op = Ethainter_evm.Opcode
module B = Ethainter_evm.Bytecode
module State = Ethainter_evm.State
module I = Ethainter_evm.Interp

let caller = U.of_int 0xCA11E4
let contract = U.of_int 0xC0DE

(* A traced top-level call: the outcome and the executed instructions. *)
let call ?gas state ~caller ~target ~value ~calldata =
  let r =
    I.call_full ~trace:true ?gas state ~caller ~target ~value ~calldata
  in
  (r.I.outcome, r.I.tx_trace)

(* Run [asm] as the code of [contract] with the given calldata; return
   the outcome and the trace. *)
let run ?(calldata = "") ?(value = U.zero) ?(state = State.create ()) asm =
  State.set_code state contract (B.assemble asm);
  State.set_balance state caller (U.of_string "1000000000000000000");
  call state ~caller ~target:contract ~value ~calldata

(* A program returning one word. *)
let returning_word body =
  body
  @ [ B.Push U.zero; B.Op Op.MSTORE; B.Push (U.of_int 32); B.Push U.zero;
      B.Op Op.RETURN ]

let word_result ?calldata ?state asm =
  match run ?calldata ?state (returning_word asm) with
  | I.Returned s, _ when String.length s = 32 -> U.of_bytes s
  | I.Returned _, _ -> Alcotest.fail "short return"
  | I.Reverted _, _ -> Alcotest.fail "reverted"
  | I.Failed m, _ -> Alcotest.fail ("failed: " ^ m)

let check_u msg a b = Alcotest.(check string) msg (U.to_hex a) (U.to_hex b)

let test_arith () =
  (* EVM ops pop left operand from the top: push right first *)
  check_u "add"
    (word_result [ B.Push (U.of_int 10); B.Push (U.of_int 20); B.Op Op.ADD ])
    (U.of_int 30)

let test_arith_more () =
  check_u "sub 20-10"
    (word_result [ B.Push (U.of_int 10); B.Push (U.of_int 20); B.Op Op.SUB ])
    (U.of_int 10);
  check_u "div 20/10"
    (word_result [ B.Push (U.of_int 10); B.Push (U.of_int 20); B.Op Op.DIV ])
    (U.of_int 2);
  check_u "exp 2^8"
    (word_result [ B.Push (U.of_int 8); B.Push (U.of_int 2); B.Op Op.EXP ])
    (U.of_int 256);
  check_u "lt 1<2"
    (word_result [ B.Push (U.of_int 2); B.Push (U.of_int 1); B.Op Op.LT ])
    U.one;
  check_u "iszero 0"
    (word_result [ B.Push U.zero; B.Op Op.ISZERO ])
    U.one

let test_stack_ops () =
  check_u "dup1"
    (word_result [ B.Push (U.of_int 7); B.Op (Op.DUP 1); B.Op Op.ADD ])
    (U.of_int 14);
  check_u "swap1"
    (word_result
       [ B.Push (U.of_int 3); B.Push (U.of_int 10); B.Op (Op.SWAP 1);
         B.Op Op.SUB ])
    (* after swap: top=3(second push swapped)... stack [3;10] -> SUB = 3-10 *)
    (U.neg (U.of_int 7));
  check_u "pop"
    (word_result [ B.Push (U.of_int 1); B.Push (U.of_int 99); B.Op Op.POP ])
    U.one

let test_memory () =
  check_u "mstore/mload"
    (word_result
       [ B.Push (U.of_int 0xabcd); B.Push (U.of_int 64); B.Op Op.MSTORE;
         B.Push (U.of_int 64); B.Op Op.MLOAD ])
    (U.of_int 0xabcd);
  check_u "mstore8 writes one byte"
    (word_result
       [ B.Push (U.of_int 0xff); B.Push (U.of_int 31); B.Op Op.MSTORE8;
         B.Push U.zero; B.Op Op.MLOAD ])
    (U.of_int 0xff)

let test_storage () =
  let state = State.create () in
  let outcome, _ =
    run ~state
      [ B.Push (U.of_int 42); B.Push (U.of_int 7); B.Op Op.SSTORE;
        B.Op Op.STOP ]
  in
  (match outcome with I.Returned _ -> () | _ -> Alcotest.fail "should stop");
  check_u "sstore persisted" (State.sload state contract (U.of_int 7))
    (U.of_int 42);
  (* now read it back through SLOAD *)
  State.set_code state contract
    (B.assemble
       (returning_word [ B.Push (U.of_int 7); B.Op Op.SLOAD ]));
  let o, _ = call state ~caller ~target:contract ~value:U.zero ~calldata:"" in
  (match o with
  | I.Returned s -> check_u "sload" (U.of_bytes s) (U.of_int 42)
  | _ -> Alcotest.fail "sload failed")

let test_calldata () =
  let calldata = U.to_bytes (U.of_int 0xbeef) in
  check_u "calldataload 0"
    (word_result ~calldata [ B.Push U.zero; B.Op Op.CALLDATALOAD ])
    (U.of_int 0xbeef);
  check_u "calldatasize"
    (word_result ~calldata [ B.Op Op.CALLDATASIZE ])
    (U.of_int 32);
  (* loads past the end read zero *)
  check_u "calldataload OOB"
    (word_result ~calldata [ B.Push (U.of_int 100); B.Op Op.CALLDATALOAD ])
    U.zero

let test_env_ops () =
  check_u "caller" (word_result [ B.Op Op.CALLER ]) caller;
  check_u "address" (word_result [ B.Op Op.ADDRESS ]) contract;
  check_u "callvalue zero" (word_result [ B.Op Op.CALLVALUE ]) U.zero

let test_jumps () =
  (* jump over a block that would return 1; return 2 instead *)
  let asm =
    [ B.PushLabel "skip"; B.Op Op.JUMP;
      (* dead code *)
      B.Push U.one; B.Push U.zero; B.Op Op.MSTORE; B.Push (U.of_int 32);
      B.Push U.zero; B.Op Op.RETURN;
      B.Label "skip" ]
    @ returning_word [ B.Push (U.of_int 2) ]
  in
  (match run asm with
  | I.Returned s, _ -> check_u "jumped" (U.of_bytes s) (U.of_int 2)
  | _ -> Alcotest.fail "jump failed");
  (* jumping to a non-JUMPDEST fails *)
  (match run [ B.Push (U.of_int 1); B.Op Op.JUMP ] with
  | I.Failed _, _ -> ()
  | _ -> Alcotest.fail "expected failure on bad jump target")

let test_jumpi () =
  let prog cond =
    [ B.Push (U.of_int cond); B.PushLabel "yes"; B.Op Op.JUMPI ]
    @ returning_word [ B.Push (U.of_int 111) ]
    @ [ B.Label "yes" ]
    @ returning_word [ B.Push (U.of_int 222) ]
  in
  (match run (prog 1) with
  | I.Returned s, _ -> check_u "taken" (U.of_bytes s) (U.of_int 222)
  | _ -> Alcotest.fail "jumpi taken failed");
  match run (prog 0) with
  | I.Returned s, _ -> check_u "not taken" (U.of_bytes s) (U.of_int 111)
  | _ -> Alcotest.fail "jumpi fallthrough failed"

let test_sha3_opcode () =
  (* SHA3 over 0 bytes = keccak("") *)
  check_u "sha3 of empty"
    (word_result [ B.Push U.zero; B.Push U.zero; B.Op Op.SHA3 ])
    (Ethainter_crypto.Keccak.hash_word "")

let test_revert_rolls_back () =
  let state = State.create () in
  let outcome, _ =
    run ~state
      [ B.Push (U.of_int 42); B.Push U.zero; B.Op Op.SSTORE; B.Push U.zero;
        B.Push U.zero; B.Op Op.REVERT ]
  in
  (match outcome with
  | I.Reverted _ -> ()
  | _ -> Alcotest.fail "expected revert");
  check_u "storage rolled back" (State.sload state contract U.zero) U.zero

let test_selfdestruct () =
  let state = State.create () in
  State.set_balance state contract (U.of_int 500);
  let beneficiary = U.of_int 0xBEEF in
  let outcome, trace =
    run ~state [ B.Push beneficiary; B.Op Op.SELFDESTRUCT ]
  in
  (match outcome with I.Returned _ -> () | _ -> Alcotest.fail "sd failed");
  Alcotest.(check bool) "trace has selfdestruct" true
    (List.exists
       (fun (t : I.trace_entry) ->
         t.I.t_op = Op.SELFDESTRUCT && U.equal t.I.t_addr contract)
       trace);
  check_u "balance moved" (State.balance state beneficiary) (U.of_int 500);
  Alcotest.(check bool) "destroyed" true (State.is_destroyed state contract)

let test_call_and_value () =
  (* contract A calls contract B, transferring 100 wei; B just stops *)
  let state = State.create () in
  let b_addr = U.of_int 0xB0B in
  State.set_code state b_addr (B.assemble [ B.Op Op.STOP ]);
  let asm =
    [ B.Push U.zero; B.Push U.zero; B.Push U.zero; B.Push U.zero;
      B.Push (U.of_int 100); B.Push b_addr; B.Op Op.GAS; B.Op Op.CALL ]
  in
  State.set_balance state contract (U.of_int 1000);
  (match run ~state (returning_word asm) with
  | I.Returned s, _ -> check_u "call succeeded" (U.of_bytes s) U.one
  | _ -> Alcotest.fail "call failed");
  check_u "B received value" (State.balance state b_addr) (U.of_int 100)

let test_staticcall_blocks_writes () =
  (* B tries to SSTORE; when called via STATICCALL it must fail *)
  let state = State.create () in
  let b_addr = U.of_int 0xB0B in
  State.set_code state b_addr
    (B.assemble [ B.Push U.one; B.Push U.zero; B.Op Op.SSTORE; B.Op Op.STOP ]);
  let asm =
    [ B.Push U.zero; B.Push U.zero; B.Push U.zero; B.Push U.zero;
      B.Push b_addr; B.Op Op.GAS; B.Op Op.STATICCALL ]
  in
  match run ~state (returning_word asm) with
  | I.Returned s, _ ->
      check_u "staticcall to writer returns 0 (failure)" (U.of_bytes s) U.zero
  | _ -> Alcotest.fail "staticcall test failed"

let test_delegatecall_storage_context () =
  (* B writes 7 to slot 0; A delegatecalls B: the write lands in A *)
  let state = State.create () in
  let b_addr = U.of_int 0xB0B in
  State.set_code state b_addr
    (B.assemble [ B.Push (U.of_int 7); B.Push U.zero; B.Op Op.SSTORE; B.Op Op.STOP ]);
  let asm =
    [ B.Push U.zero; B.Push U.zero; B.Push U.zero; B.Push U.zero;
      B.Push b_addr; B.Op Op.GAS; B.Op Op.DELEGATECALL; B.Op Op.POP;
      B.Op Op.STOP ]
  in
  (match run ~state asm with
  | I.Returned _, _ -> ()
  | _ -> Alcotest.fail "delegatecall failed");
  check_u "write in caller's storage" (State.sload state contract U.zero)
    (U.of_int 7);
  check_u "callee storage untouched" (State.sload state b_addr U.zero) U.zero

let test_deployer () =
  (* wrap a runtime, execute deployment code, get the runtime back *)
  let runtime = B.assemble (returning_word [ B.Push (U.of_int 99) ]) in
  let state = State.create () in
  State.set_code state contract (B.deployer runtime);
  let o, _ = call state ~caller ~target:contract ~value:U.zero ~calldata:"" in
  match o with
  | I.Returned code ->
      Alcotest.(check string) "deployer returns runtime"
        (Ethainter_word.Hex.encode runtime)
        (Ethainter_word.Hex.encode code)
  | _ -> Alcotest.fail "deployment failed"

let test_addmod_mulmod_opcodes () =
  check_u "addmod opcode"
    (word_result
       [ B.Push (U.of_int 8); B.Push (U.of_int 10); B.Push (U.of_int 10);
         B.Op Op.ADDMOD ])
    (U.of_int 4);
  check_u "mulmod opcode"
    (word_result
       [ B.Push (U.of_int 8); B.Push (U.of_int 10); B.Push (U.of_int 10);
         B.Op Op.MULMOD ])
    (U.of_int 4)

let test_signextend_opcode () =
  check_u "signextend 0 0xff"
    (word_result
       [ B.Push (U.of_int 0xff); B.Push U.zero; B.Op Op.SIGNEXTEND ])
    U.max_value

let test_create_deploys_child () =
  (* parent CREATEs a child whose initcode returns a tiny runtime *)
  let child_runtime = B.assemble [ B.Op Op.STOP ] in
  let initcode = B.deployer child_runtime in
  let state = State.create () in
  State.set_balance state contract (U.of_int 100);
  (* store initcode into memory via MSTOREs, then CREATE(0, 0, len) *)
  let pad = ((String.length initcode + 31) / 32 * 32) - String.length initcode in
  let padded = initcode ^ String.make pad '\000' in
  let stores =
    List.concat
      (List.init
         (String.length padded / 32)
         (fun i ->
           [ B.Push (U.of_bytes (String.sub padded (i * 32) 32));
             B.Push (U.of_int (i * 32)); B.Op Op.MSTORE ]))
  in
  let asm =
    stores
    @ [ B.Push (U.of_int (String.length initcode)); B.Push U.zero;
        B.Push U.zero; B.Op Op.CREATE ]
  in
  (match run ~state (returning_word asm) with
  | I.Returned s, _ ->
      let child = U.of_bytes s in
      Alcotest.(check bool) "child address nonzero" false (U.is_zero child);
      Alcotest.(check string) "child code installed"
        (Ethainter_word.Hex.encode child_runtime)
        (Ethainter_word.Hex.encode (State.code state child))
  | _ -> Alcotest.fail "create failed")

let test_returndatacopy_oob_fails () =
  (* RETURNDATACOPY past the end of return data must abort the frame *)
  let state = State.create () in
  let asm =
    [ B.Push (U.of_int 32); B.Push U.zero; B.Push U.zero;
      B.Op Op.RETURNDATACOPY; B.Op Op.STOP ]
  in
  match run ~state asm with
  | I.Failed _, _ -> ()
  | _ -> Alcotest.fail "expected returndatacopy OOB failure"

let test_extcodesize () =
  let state = State.create () in
  let other = U.of_int 0xE57 in
  State.set_code state other "\x00\x01\x02";
  check_u "extcodesize of other"
    (word_result ~state [ B.Push other; B.Op Op.EXTCODESIZE ])
    (U.of_int 3);
  check_u "extcodesize of EOA"
    (word_result ~state [ B.Push (U.of_int 0xDEAD); B.Op Op.EXTCODESIZE ])
    U.zero

let test_callcode_storage_context () =
  (* CALLCODE runs callee code in the caller's storage, like
     DELEGATECALL but with its own caller/value *)
  let state = State.create () in
  let b_addr = U.of_int 0xB0B in
  State.set_code state b_addr
    (B.assemble
       [ B.Push (U.of_int 9); B.Push U.zero; B.Op Op.SSTORE; B.Op Op.STOP ]);
  let asm =
    [ B.Push U.zero; B.Push U.zero; B.Push U.zero; B.Push U.zero;
      B.Push U.zero; B.Push b_addr; B.Op Op.GAS; B.Op Op.CALLCODE;
      B.Op Op.POP; B.Op Op.STOP ]
  in
  (match run ~state asm with
  | I.Returned _, _ -> ()
  | _ -> Alcotest.fail "callcode failed");
  check_u "write landed in caller" (State.sload state contract U.zero)
    (U.of_int 9)

let test_out_of_gas () =
  (* an infinite loop must be stopped by gas/step accounting *)
  let asm = [ B.Label "top"; B.PushLabel "top"; B.Op Op.JUMP ] in
  let state = State.create () in
  State.set_code state contract (B.assemble asm);
  let o, _ =
    call ~gas:10_000 state ~caller ~target:contract ~value:U.zero
      ~calldata:""
  in
  match o with
  | I.Failed _ -> ()
  | _ -> Alcotest.fail "expected out-of-gas failure"

let test_disassembler_roundtrip () =
  let asm =
    [ B.Push (U.of_int 0xdead); B.Push U.zero; B.Op Op.MSTORE;
      B.Op Op.CALLER; B.Op Op.POP; B.Op Op.STOP ]
  in
  let code = B.assemble asm in
  let instrs = B.disassemble code in
  Alcotest.(check int) "instruction count" 6 (List.length instrs);
  (* PUSH immediate decoded *)
  match instrs with
  | { B.op = Op.PUSH 2; imm = Some v; _ } :: _ ->
      check_u "push imm" v (U.of_int 0xdead)
  | _ -> Alcotest.fail "bad disassembly"

let test_jumpdests_in_push_data () =
  (* a 0x5b byte inside PUSH data is not a valid jump destination *)
  let code = B.assemble [ B.Push (U.of_int 0x5b); B.Op Op.STOP ] in
  let dests = B.jumpdests code in
  Alcotest.(check int) "no jumpdests" 0 (Hashtbl.length dests)

(* differential property: compiled binop = Uint256 result *)
(* Regression: [Memory.ensure] rounds MSIZE up to a 32-byte boundary;
   the capacity must cover the *rounded* size. The old code grew the
   buffer to the unrounded request, so capacity 1024 + [ensure 2049]
   left size 2080 > capacity 2049 — the next growth's blit of [size]
   bytes then raised Invalid_argument, and MSIZE reported bytes that
   were never allocated. *)
let test_memory_ensure_boundary () =
  let m = I.Memory.create () in
  I.Memory.ensure m 2049;
  Alcotest.(check int) "msize rounds up" 2080 (I.Memory.size m);
  (* this second growth blits [size] bytes out of the old buffer *)
  I.Memory.ensure m 100_000;
  Alcotest.(check int) "second growth" 100_000 (I.Memory.size m);
  I.Memory.store_byte m 99_999 0xab;
  Alcotest.(check string) "tail byte readable" "\xab"
    (I.Memory.load_bytes m 99_999 1)

let test_memory_growth_boundary_evm () =
  (* same boundary end to end: MSTORE8 at 2048 puts the memory exactly
     on the bug's size/capacity mismatch; the MSTORE at 4000 then
     forces the growth blit that used to crash the interpreter *)
  check_u "value survives growth across the boundary"
    (word_result
       [ B.Push (U.of_int 0xEF); B.Push (U.of_int 2048); B.Op Op.MSTORE8;
         B.Push (U.of_int 0xabcd); B.Push (U.of_int 4000); B.Op Op.MSTORE;
         B.Push (U.of_int 2048); B.Op Op.MLOAD ])
    (U.shift_left (U.of_int 0xEF) 248)

let arb_small = QCheck.(map U.of_int (int_bound 1_000_000))
let arb_pair = QCheck.pair arb_small arb_small

let diff_prop name op f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:100 arb_pair (fun (a, b) ->
         let r = word_result [ B.Push b; B.Push a; B.Op op ] in
         U.equal r (f a b)))

let properties =
  [ diff_prop "ADD = Uint256.add" Op.ADD U.add;
    diff_prop "SUB = Uint256.sub" Op.SUB U.sub;
    diff_prop "MUL = Uint256.mul" Op.MUL U.mul;
    diff_prop "DIV = Uint256.div" Op.DIV U.div;
    diff_prop "MOD = Uint256.rem" Op.MOD U.rem;
    diff_prop "AND = Uint256.logand" Op.AND U.logand;
    diff_prop "XOR = Uint256.logxor" Op.XOR U.logxor;
    diff_prop "LT" Op.LT (fun a b -> U.of_bool (U.lt a b));
    diff_prop "GT" Op.GT (fun a b -> U.of_bool (U.gt a b));
  ]

(* ---------------- state journal ---------------- *)

(* Random nested snapshot/commit/restore scripts over every kind of
   state write. Addresses 0-2 exist up front; writes to 3-5 create
   accounts, which a restore must remove again. An [Abandon] opens a
   mark and never closes it, as an exception unwinding through a call
   frame does; the enclosing close must clean it up. *)
type jwrite =
  | J_balance of int * int
  | J_nonce of int
  | J_code of int * int
  | J_slot of int * int * int (* value 0 deletes the slot *)
  | J_transfer of int * int * int
  | J_destruct of int * int

type jstep =
  | J_write of jwrite
  | J_scope of jstep list * bool (* true: commit, false: restore *)
  | J_abandon of jstep list

let j_addr i = U.of_int (0xACC0 + i)
let j_word = [| U.zero; U.one; U.of_int 7; U.shift_left U.one 200 |]
let j_key = [| U.zero; U.one; U.shift_left U.one 70 |]
let j_code = [| ""; "\x60\x00"; "\x60\x01\x60\x02\x01" |]

let j_apply st = function
  | J_balance (a, v) -> State.set_balance st (j_addr a) j_word.(v)
  | J_nonce a -> State.bump_nonce st (j_addr a)
  | J_code (a, c) -> State.set_code st (j_addr a) j_code.(c)
  | J_slot (a, k, v) -> State.sstore st (j_addr a) j_key.(k) j_word.(v)
  | J_transfer (a, b, v) ->
      ignore
        (State.transfer st ~src:(j_addr a) ~dst:(j_addr b) ~value:j_word.(v))
  | J_destruct (a, b) ->
      State.selfdestruct st ~victim:(j_addr a) ~beneficiary:(j_addr b)

let j_gen_write =
  QCheck.Gen.(
    let a = int_bound 5 and v = int_bound 3 in
    oneof
      [ map2 (fun a v -> J_balance (a, v)) a v;
        map (fun a -> J_nonce a) a;
        map2 (fun a c -> J_code (a, c)) a (int_bound 2);
        map3 (fun a k v -> J_slot (a, k, v)) a (int_bound 2) v;
        map3 (fun a b v -> J_transfer (a, b, v)) a a (int_bound 2);
        map2 (fun a b -> J_destruct (a, b)) a a ])

let j_gen_steps =
  QCheck.Gen.(
    sized_size (int_bound 12)
    @@ fix (fun self n ->
           let write = map (fun w -> J_write w) j_gen_write in
           let body = list_size (int_bound 5) (self (n / 2)) in
           if n = 0 then write
           else
             frequency
               [ (4, write);
                 (2, map2 (fun b c -> J_scope (b, c)) body bool);
                 (1, map (fun b -> J_abandon b) body) ]))

let rec j_show = function
  | J_write _ -> "w"
  | J_scope (b, c) ->
      Printf.sprintf "%s(%s)" (if c then "commit" else "restore")
        (String.concat " " (List.map j_show b))
  | J_abandon b ->
      Printf.sprintf "abandon(%s)" (String.concat " " (List.map j_show b))

let j_fixture () =
  let st = State.create () in
  for i = 0 to 2 do
    State.set_balance st (j_addr i) (U.of_int 100);
    State.set_code st (j_addr i) j_code.(i);
    State.sstore st (j_addr i) U.one (U.of_int (i + 1))
  done;
  st

(* Run [steps]; every restore must bring back the world as a copy taken
   at its snapshot shows it. *)
let rec j_run st steps =
  List.for_all
    (function
      | J_write w ->
          j_apply st w;
          true
      | J_abandon body ->
          ignore (State.snapshot st);
          j_run st body
      | J_scope (body, commit) ->
          let before = State.dump (State.copy st) in
          let m = State.snapshot st in
          let ok = j_run st body in
          if commit then (
            State.commit st m;
            ok)
          else (
            State.restore st m;
            ok && State.dump st = before))
    steps

let test_journal_property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"restore = copy at snapshot; empty after outermost"
       ~count:500
       (QCheck.make
          ~print:(fun (s, c) -> j_show (J_scope (s, c)))
          QCheck.Gen.(pair (list_size (int_bound 6) j_gen_steps) bool))
       (fun (steps, commit) ->
         let st = j_fixture () in
         let unlogged = State.journal_length st = 0 in
         let ok = j_run st [ J_scope (steps, commit) ] in
         unlogged && ok && State.journal_length st = 0))

let test_journal_outermost_commit () =
  let st = j_fixture () in
  let m = State.snapshot st in
  State.sstore st (j_addr 0) U.one U.zero;
  State.set_balance st (j_addr 4) (U.of_int 9);
  let inner = State.snapshot st in
  State.bump_nonce st (j_addr 4);
  State.commit st inner;
  Alcotest.(check bool) "inner commit keeps records for the outer mark" true
    (State.journal_length st > 0);
  State.commit st m;
  Alcotest.(check int) "outermost commit empties the journal" 0
    (State.journal_length st);
  Alcotest.(check int) "writes kept" 1 (State.nonce st (j_addr 4));
  check_u "zero write deleted the slot" (State.sload st (j_addr 0) U.one) U.zero

let () =
  Alcotest.run "evm"
    [ ( "interpreter",
        [ Alcotest.test_case "arith add" `Quick test_arith;
          Alcotest.test_case "arith more" `Quick test_arith_more;
          Alcotest.test_case "stack ops" `Quick test_stack_ops;
          Alcotest.test_case "memory" `Quick test_memory;
          Alcotest.test_case "memory ensure boundary" `Quick
            test_memory_ensure_boundary;
          Alcotest.test_case "memory growth boundary (evm)" `Quick
            test_memory_growth_boundary_evm;
          Alcotest.test_case "storage" `Quick test_storage;
          Alcotest.test_case "calldata" `Quick test_calldata;
          Alcotest.test_case "environment" `Quick test_env_ops;
          Alcotest.test_case "jump" `Quick test_jumps;
          Alcotest.test_case "jumpi" `Quick test_jumpi;
          Alcotest.test_case "sha3" `Quick test_sha3_opcode;
          Alcotest.test_case "revert rollback" `Quick test_revert_rolls_back;
          Alcotest.test_case "selfdestruct" `Quick test_selfdestruct;
          Alcotest.test_case "call with value" `Quick test_call_and_value;
          Alcotest.test_case "staticcall blocks writes" `Quick
            test_staticcall_blocks_writes;
          Alcotest.test_case "delegatecall context" `Quick
            test_delegatecall_storage_context;
          Alcotest.test_case "deployer" `Quick test_deployer;
          Alcotest.test_case "addmod/mulmod" `Quick
            test_addmod_mulmod_opcodes;
          Alcotest.test_case "signextend" `Quick test_signextend_opcode;
          Alcotest.test_case "create" `Quick test_create_deploys_child;
          Alcotest.test_case "returndatacopy OOB" `Quick
            test_returndatacopy_oob_fails;
          Alcotest.test_case "extcodesize" `Quick test_extcodesize;
          Alcotest.test_case "callcode context" `Quick
            test_callcode_storage_context;
          Alcotest.test_case "out of gas" `Quick test_out_of_gas ] );
      ( "bytecode",
        [ Alcotest.test_case "disassembler" `Quick test_disassembler_roundtrip;
          Alcotest.test_case "jumpdest in push data" `Quick
            test_jumpdests_in_push_data ] );
      ("differential", properties);
      ( "journal",
        [ test_journal_property;
          Alcotest.test_case "outermost commit" `Quick
            test_journal_outermost_commit ] ) ]
