(* PR 8: pre-decoded basic-block EVM programs.

   - decoder invariants: truncated-PUSH zero-fill, JUMPDEST bytes
     inside PUSH immediates never valid targets, contiguous block
     partition with per-block gas/stack metadata consistent;
   - block-partition differential: Program.t blocks (and the
     decompiler's split_blocks over them) equal the legacy splitter
     rule re-derived from Bytecode.disassemble;
   - engine differential: the Decoded interpreter is trace-, outcome-,
     gas-, log-, effect- and state-identical to the Bytewise reference
     over handcrafted edge cases and the seeded MiniSol corpus,
     including out-of-gas and step-limit sweeps;
   - decode once per account: a multi-state, multi-call replay decodes
     each account's code once, and a copied state decodes nothing
     (telemetry counters, PR 7 style). *)

module U = Ethainter_word.Uint256
module Op = Ethainter_evm.Opcode
module B = Ethainter_evm.Bytecode
module P = Ethainter_evm.Program
module State = Ethainter_evm.State
module I = Ethainter_evm.Interp
module T = Ethainter_chain.Testnet
module Decomp = Ethainter_tac.Decomp
module G = Ethainter_corpus.Generator
module Kill = Ethainter_kill.Kill

let caller = U.of_int 0xCA11E4
let contract = U.of_int 0xC0DE

let rec take n = function
  | [] -> []
  | x :: r -> if n <= 0 then [] else x :: take (n - 1) r

(* ---------------- reference partition (legacy rule) ---------------- *)

(* The splitter rule decomp.ml used before it consumed Program.t,
   re-derived here from the raw disassembly: boundaries at pc 0, every
   JUMPDEST, and the instruction after every terminator. *)
let ref_partition (code : string) : (int * (int * string) list) list =
  let instrs = B.disassemble code in
  let boundaries = Hashtbl.create 16 in
  Hashtbl.replace boundaries 0 ();
  let rec mark = function
    | [] -> ()
    | (i : B.instr) :: rest ->
        (match i.B.op with
        | Op.JUMPDEST -> Hashtbl.replace boundaries i.B.pc ()
        | op when Op.is_block_terminator op -> (
            match rest with
            | next :: _ -> Hashtbl.replace boundaries next.B.pc ()
            | [] -> ())
        | _ -> ());
        mark rest
  in
  mark instrs;
  let blocks = ref [] and cur = ref [] and entry = ref 0 in
  List.iteri
    (fun k (i : B.instr) ->
      if k > 0 && Hashtbl.mem boundaries i.B.pc then begin
        blocks := (!entry, List.rev !cur) :: !blocks;
        entry := i.B.pc;
        cur := []
      end;
      cur := (i.B.pc, Op.name i.B.op) :: !cur)
    instrs;
  if !cur <> [] then blocks := (!entry, List.rev !cur) :: !blocks;
  List.rev !blocks

let prog_partition (p : P.t) : (int * (int * string) list) list =
  Array.to_list p.P.blocks
  |> List.map (fun (b : P.block) ->
         let is_ = P.block_instrs p b in
         ( (List.hd is_).B.pc,
           List.map (fun (i : B.instr) -> (i.B.pc, Op.name i.B.op)) is_ ))

let partition_str part =
  String.concat ";"
    (List.map
       (fun (e, instrs) ->
         Printf.sprintf "%d:[%s]" e
           (String.concat ","
              (List.map (fun (pc, op) -> Printf.sprintf "%d.%s" pc op) instrs)))
       part)

(* a small zoo of codes covering the decoder's edge cases *)
let edge_codes : (string * string) list =
  [ ("empty", "");
    ("single stop", "\x00");
    ("truncated push32", "\x7f\x01\x02");
    ("truncated push2", "\x61\x05");
    ("jumpdest in push data", "\x60\x5b\x5b\x00");
    ("unknown bytes", "\x01\xf9\xfc\x21");
    ("terminator at end", "\x60\x01\x60\x02\x01\x00");
    ( "dispatcher-ish",
      B.assemble
        [ B.Push U.zero; B.Op Op.CALLDATALOAD; B.Push (U.of_int 0xe0);
          B.Op Op.SHR; B.Push (U.of_int 0xabcdef01); B.Op Op.EQ;
          B.PushLabel "f"; B.Op Op.JUMPI; B.Push U.zero; B.Push U.zero;
          B.Op Op.REVERT; B.Label "f"; B.Push U.one; B.Push U.zero;
          B.Op Op.MSTORE; B.Push (U.of_int 32); B.Push U.zero;
          B.Op Op.RETURN ] ) ]

let corpus_codes () =
  G.mainnet ~seed:7 ~size:10 ()
  |> List.concat_map (fun (i : G.instance) ->
         [ (i.G.i_name ^ "/runtime", i.G.i_runtime);
           (i.G.i_name ^ "/deploy", i.G.i_deploy) ])

(* ---------------- decoder invariant tests ---------------- *)

let test_truncated_push_zero_fill () =
  let p = P.of_code "\x7f\x01\x02" in
  Alcotest.(check int) "one instr" 1 (P.instr_count p);
  let i = p.P.instrs.(0) in
  (match i.B.op with
  | Op.PUSH 32 -> ()
  | _ -> Alcotest.fail "expected PUSH32");
  (* bytes past end-of-code read as zero: immediate = 0x0102 << 240 *)
  let expected =
    U.shift_left (U.of_int 0x0102) 240
  in
  (match i.B.imm with
  | Some v -> Alcotest.(check string) "zero filled" (U.to_hex expected) (U.to_hex v)
  | None -> Alcotest.fail "missing immediate")

let test_jumpdest_in_immediate_not_valid () =
  (* 0x60 0x5b: PUSH1 with immediate byte 0x5b; then a real JUMPDEST *)
  let p = P.of_code "\x60\x5b\x5b\x00" in
  Alcotest.(check bool) "immediate byte not a target" false (P.is_jumpdest p 1);
  Alcotest.(check bool) "real JUMPDEST is" true (P.is_jumpdest p 2);
  Alcotest.(check bool) "out of range" false (P.is_jumpdest p 99)

let test_block_metadata_consistent () =
  List.iter
    (fun (name, code) ->
      let p = P.of_code code in
      let m = P.instr_count p in
      let covered = ref 0 in
      Array.iteri
        (fun k (b : P.block) ->
          Alcotest.(check int)
            (name ^ ": blocks contiguous")
            !covered b.P.bb_start;
          covered := !covered + b.P.bb_len;
          Alcotest.(check bool) (name ^ ": non-empty") true (b.P.bb_len > 0);
          (* bb_gas is the sum of base costs; gas_rest.(i) the sum
             strictly after i within the block *)
          let sum = ref 0 in
          for i = b.P.bb_start + b.P.bb_len - 1 downto b.P.bb_start do
            Alcotest.(check int)
              (Printf.sprintf "%s: gas_rest %d" name i)
              !sum p.P.gas_rest.(i);
            sum := !sum + Op.base_gas p.P.instrs.(i).B.op
          done;
          Alcotest.(check int) (name ^ ": bb_gas") !sum b.P.bb_gas;
          (* the block index is dispatchable from its entry pc *)
          Alcotest.(check int)
            (name ^ ": block_at_pc")
            k
            p.P.block_at_pc.(p.P.instrs.(b.P.bb_start).B.pc))
        p.P.blocks;
      Alcotest.(check int) (name ^ ": partition covers") m !covered)
    (edge_codes @ corpus_codes ())

let test_partition_matches_legacy () =
  List.iter
    (fun (name, code) ->
      let p = P.of_code code in
      Alcotest.(check string)
        (name ^ ": same partition")
        (partition_str (ref_partition code))
        (partition_str (prog_partition p)))
    (edge_codes @ corpus_codes ())

let test_split_blocks_over_program () =
  List.iter
    (fun (name, code) ->
      let tbl = Decomp.split_blocks (P.of_code code) in
      let got =
        Hashtbl.fold
          (fun e (bi : Decomp.blockinfo) acc ->
            ( e,
              List.map
                (fun (i : B.instr) -> (i.B.pc, Op.name i.B.op))
                bi.Decomp.instrs )
            :: acc)
          tbl []
        |> List.sort compare
      in
      let expected = List.sort compare (ref_partition code) in
      Alcotest.(check string)
        (name ^ ": split_blocks = legacy")
        (partition_str expected) (partition_str got))
    (edge_codes @ corpus_codes ())

(* ---------------- engine differential ---------------- *)

let outcome_str = function
  | I.Returned s -> "returned:" ^ s
  | I.Reverted s -> "reverted:" ^ s
  | I.Failed m -> "failed:" ^ m

let effect_str = function
  | I.E_sstore { es_addr; es_slot } ->
      "sstore " ^ U.to_hex es_addr ^ " " ^ U.to_hex es_slot
  | I.E_create a -> "create " ^ U.to_hex a
  | I.E_selfdestruct a -> "selfdestruct " ^ U.to_hex a

(* Run the same call under both engines on identically-prepared fresh
   states; every observable must agree bit for bit. *)
let run_both ?gas ?max_steps ~(name : string) ~(setup : State.t -> unit)
    ~(target : U.t) ~(calldata : string) ~(value : U.t) () =
  let go engine =
    let st = State.create () in
    setup st;
    let r =
      I.call_full ~engine ~trace:true ?gas ?max_steps st ~caller ~target ~value
        ~calldata
    in
    let trace =
      List.map
        (fun (t : I.trace_entry) ->
          Printf.sprintf "%d:%s:%d:%s" t.I.t_depth (U.to_hex t.I.t_addr)
            t.I.t_pc (Op.name t.I.t_op))
        r.I.tx_trace
    in
    let logs =
      List.map
        (fun (l : I.log_entry) ->
          Printf.sprintf "%s[%s]%S" (U.to_hex l.I.log_addr)
            (String.concat "," (List.map U.to_hex l.I.topics))
            l.I.data)
        r.I.tx_logs
    in
    ( outcome_str r.I.outcome, r.I.gas_used, trace, logs,
      List.map effect_str r.I.tx_effects, State.dump st )
  in
  let od, gd, td, ld, ed, sd = go I.Decoded in
  let ob, gb, tb, lb, eb, sb = go I.Bytewise in
  Alcotest.(check string) (name ^ ": outcome") ob od;
  Alcotest.(check int) (name ^ ": gas_used") gb gd;
  Alcotest.(check (list string)) (name ^ ": trace") tb td;
  Alcotest.(check (list string)) (name ^ ": logs") lb ld;
  Alcotest.(check (list string)) (name ^ ": effects") eb ed;
  Alcotest.(check string) (name ^ ": final state") sb sd

let fund st = State.set_balance st caller (U.of_string "1000000000000000000")

let with_code code st =
  fund st;
  State.set_code st contract code

let ret_word body =
  body
  @ [ B.Push U.zero; B.Op Op.MSTORE; B.Push (U.of_int 32); B.Push U.zero;
      B.Op Op.RETURN ]

let loop_asm =
  (* count down from 40, then return the counter (0) *)
  [ B.Push (U.of_int 40); B.Label "loop"; B.Op (Op.DUP 1); B.Op Op.ISZERO;
    B.PushLabel "done"; B.Op Op.JUMPI; B.Push U.one; B.Op (Op.SWAP 1);
    B.Op Op.SUB; B.PushLabel "loop"; B.Op Op.JUMP; B.Label "done" ]
  @ ret_word []

let test_differential_handcrafted () =
  let cases =
    [ ("arith", ret_word [ B.Push (U.of_int 10); B.Push (U.of_int 20); B.Op Op.ADD ]);
      ("loop", loop_asm);
      ("bad jump", [ B.Push (U.of_int 3); B.Op Op.JUMP ]);
      ("jump into immediate", [ B.Push (U.of_int 0x5b); B.Push U.one; B.Op Op.JUMP ]);
      ("stack underflow", [ B.Op Op.ADD ]);
      ("invalid opcode", [ B.Raw "\xfe" ]);
      ("truncated push executed", [ B.Raw "\x61\x05" ]);
      ("fall off end", [ B.Push U.one; B.Op Op.POP ]);
      ("gas observable",
       ret_word [ B.Op Op.GAS; B.Op Op.GAS; B.Op Op.SUB ]);
      ("gas absolute", ret_word [ B.Push U.one; B.Op Op.POP; B.Op Op.GAS ]);
      ("msize", ret_word
         [ B.Push (U.of_int 0xff); B.Push (U.of_int 200); B.Op Op.MSTORE;
           B.Op Op.MSIZE ]);
      ("pc opcode", ret_word [ B.Push U.one; B.Op Op.PC; B.Op Op.ADD ]);
      ("storage + log",
       [ B.Push (U.of_int 7); B.Push (U.of_int 3); B.Op Op.SSTORE;
         B.Push (U.of_int 0x11); B.Push (U.of_int 32); B.Push U.zero;
         B.Op (Op.LOG 1); B.Op Op.STOP ]);
      ("selfdestruct", [ B.Push caller; B.Op Op.SELFDESTRUCT ]);
      ("revert with data",
       [ B.Push (U.of_int 0xdead); B.Push U.zero; B.Op Op.MSTORE;
         B.Push (U.of_int 32); B.Push U.zero; B.Op Op.REVERT ]) ]
  in
  List.iter
    (fun (name, asm) ->
      let code = B.assemble asm in
      run_both ~name ~setup:(with_code code) ~target:contract ~calldata:""
        ~value:U.zero ())
    cases

let test_differential_gas_sweep () =
  (* out-of-gas at every possible cut point of a storage-heavy program:
     the block pre-charge must degrade to per-instruction charging with
     identical failure point, trace, and (negative-clamped) gas_used *)
  let code =
    B.assemble
      ([ B.Push (U.of_int 7); B.Push (U.of_int 3); B.Op Op.SSTORE;
         B.Push (U.of_int 3); B.Op Op.SLOAD ]
      @ ret_word [])
  in
  let gases = [ 0; 1; 2; 3; 5; 8; 10; 500; 801; 5006; 5806; 5830; 100_000 ] in
  List.iter
    (fun gas ->
      run_both ~gas
        ~name:(Printf.sprintf "gas=%d" gas)
        ~setup:(with_code code) ~target:contract ~calldata:"" ~value:U.zero ())
    gases

let test_differential_step_limit_sweep () =
  let code = B.assemble loop_asm in
  List.iter
    (fun ms ->
      run_both ~max_steps:ms
        ~name:(Printf.sprintf "max_steps=%d" ms)
        ~setup:(with_code code) ~target:contract ~calldata:"" ~value:U.zero ())
    [ 1; 2; 3; 7; 10; 37; 100; 1000 ]

let test_differential_calls () =
  let callee_addr = U.of_int 0xCA11EE in
  let callee =
    B.assemble
      (ret_word
         [ B.Push U.zero; B.Op Op.CALLDATALOAD; B.Push (U.of_int 2);
           B.Op Op.MUL; B.Op (Op.DUP 1); B.Push (U.of_int 5); B.Op Op.SSTORE ])
  in
  let caller_code =
    B.assemble
      ([ B.Push (U.of_int 21); B.Push U.zero; B.Op Op.MSTORE;
         (* CALL gas target value in_off in_len out_off out_len *)
         B.Push (U.of_int 32); B.Push (U.of_int 64); B.Push (U.of_int 32);
         B.Push U.zero; B.Push U.zero; B.Push callee_addr;
         B.Push (U.of_int 100_000); B.Op Op.CALL; B.Op Op.POP ]
      @ ret_word [ B.Push (U.of_int 64); B.Op Op.MLOAD ])
  in
  run_both ~name:"nested call"
    ~setup:(fun st ->
      fund st;
      State.set_code st contract caller_code;
      State.set_code st callee_addr callee)
    ~target:contract ~calldata:"" ~value:U.zero ()

let test_differential_create () =
  (* initcode: copy 2 runtime bytes (two STOPs) out of itself, return
     them; the creator MSTOREs the initcode and CREATEs from memory *)
  let initcode =
    "\x60\x02\x60\x0c\x60\x00\x39\x60\x02\x60\x00\xf3\x00\x00"
  in
  let creator =
    B.assemble
      ([ B.Push (U.of_bytes (initcode ^ String.make 18 '\000'));
         B.Push U.zero; B.Op Op.MSTORE;
         B.Push (U.of_int (String.length initcode)); B.Push U.zero;
         B.Push U.zero; B.Op Op.CREATE ]
      @ ret_word [])
  in
  run_both ~name:"create child" ~setup:(with_code creator) ~target:contract
    ~calldata:"" ~value:U.zero ()

let test_differential_corpus () =
  let insts = G.mainnet ~seed:13 ~size:10 () in
  List.iter
    (fun (i : G.instance) ->
      (* constructor execution (deploy code) *)
      run_both
        ~name:(i.G.i_name ^ "/deploy")
        ~setup:(with_code i.G.i_deploy) ~target:contract ~calldata:""
        ~value:U.zero ();
      (* runtime entry points harvested from the dispatcher *)
      let sels =
        take 4 (Kill.harvest_selectors (Decomp.decompile i.G.i_runtime))
      in
      let calldatas =
        "" :: "\x01\x02"
        :: List.map (fun s -> Kill.selector_calldata s [ U.of_int 5 ]) sels
      in
      List.iter
        (fun cd ->
          run_both
            ~name:(i.G.i_name ^ "/call")
            ~setup:(with_code i.G.i_runtime) ~target:contract ~calldata:cd
            ~value:U.zero ())
        calldatas)
    insts

let test_testnet_replay_differential () =
  (* identical deterministic workload on two nets that differ only in
     engine: every receipt must agree *)
  let insts = G.mainnet ~seed:21 ~size:6 () in
  let receipt_fp (r : T.receipt) =
    Printf.sprintf "%s>%s created=%s %s gas=%d logs=%d effects=%s"
      (U.to_hex r.T.from)
      (match r.T.to_ with Some a -> U.to_hex a | None -> "-")
      (match r.T.created with Some a -> U.to_hex a | None -> "-")
      (outcome_str r.T.outcome) r.T.gas_used (List.length r.T.logs)
      (String.concat "," (List.map effect_str r.T.effects))
  in
  let run engine =
    let net = T.create ~engine () in
    let from = T.account_of_seed "alice" in
    T.fund_account net from (U.of_string "100000000000000000000000");
    let deploys =
      List.map
        (fun (i : G.instance) ->
          T.deploy net ~from ~value:i.G.i_eth_held i.G.i_deploy)
        insts
    in
    let calls =
      List.concat_map
        (fun (d : T.receipt) ->
          match d.T.created with
          | None -> []
          | Some a ->
              let p = Decomp.decompile (State.code (T.state net) a) in
              List.map
                (fun s ->
                  T.transact net ~from ~to_:a
                    (Kill.selector_calldata s [ U.of_int 5 ]))
                (take 3 (Kill.harvest_selectors p)))
        deploys
    in
    List.map receipt_fp (deploys @ calls)
  in
  Alcotest.(check (list string))
    "replay receipts identical" (run I.Bytewise) (run I.Decoded)

(* ---------------- decode once per account ---------------- *)

let test_decode_once_per_account () =
  (* four codes deployed into three independent states, five calls
     each: one decode per (state, account), so twelve; the calls after
     the first and a copy of a state decode nothing *)
  let codes =
    List.init 4 (fun k ->
        B.assemble
          (ret_word [ B.Push (U.of_int (0xBEEF0000 + k)); B.Op (Op.DUP 1);
                      B.Op Op.ADD ]))
  in
  let call_all st =
    List.iteri
      (fun k _ ->
        let r =
          I.call_full st ~caller ~target:(U.of_int (0x1C0DE00 + k))
            ~value:U.zero ~calldata:""
        in
        match r.I.outcome with
        | I.Returned _ -> ()
        | o -> Alcotest.fail ("call failed: " ^ outcome_str o))
      codes
  in
  let s0 = P.stats () in
  let states =
    List.init 3 (fun _ ->
        let st = State.create () in
        fund st;
        List.iteri
          (fun k code -> State.set_code st (U.of_int (0x1C0DE00 + k)) code)
          codes;
        for _ = 1 to 5 do
          call_all st
        done;
        st)
  in
  let s1 = P.stats () in
  Alcotest.(check int)
    "one decode per account" 12 (s1.P.decodes - s0.P.decodes);
  call_all (State.copy (List.hd states));
  Alcotest.(check int)
    "a copied state keeps the memo" 12 ((P.stats ()).P.decodes - s0.P.decodes)

let test_set_code_invalidates_memo () =
  let st = State.create () in
  let a = U.of_int 0x5eed in
  State.set_code st a (B.assemble (ret_word [ B.Push (U.of_int 1) ]));
  let p1 = State.program st a in
  State.set_code st a (B.assemble (ret_word [ B.Push (U.of_int 2) ]));
  let p2 = State.program st a in
  Alcotest.(check bool) "different programs" false (p1 == p2);
  Alcotest.(check bool)
    "new code decoded" true
    (p2.P.instrs.(0).B.imm = Some (U.of_int 2))

let test_telemetry_source () =
  let snap = Ethainter_core.Telemetry.capture () in
  match List.assoc_opt "evm_program" snap.Ethainter_core.Telemetry.extras with
  | None -> Alcotest.fail "evm_program source not registered"
  | Some pairs ->
      List.iter
        (fun k ->
          Alcotest.(check bool) ("has " ^ k) true (List.mem_assoc k pairs))
        [ "decodes" ]

let () =
  Alcotest.run "evm_program"
    [ ( "decoder",
        [ Alcotest.test_case "truncated PUSH zero-fill" `Quick
            test_truncated_push_zero_fill;
          Alcotest.test_case "JUMPDEST in immediate invalid" `Quick
            test_jumpdest_in_immediate_not_valid;
          Alcotest.test_case "block metadata consistent" `Quick
            test_block_metadata_consistent;
          Alcotest.test_case "partition = legacy rule" `Quick
            test_partition_matches_legacy;
          Alcotest.test_case "split_blocks over Program.t" `Quick
            test_split_blocks_over_program ] );
      ( "differential",
        [ Alcotest.test_case "handcrafted edge cases" `Quick
            test_differential_handcrafted;
          Alcotest.test_case "out-of-gas sweep" `Quick
            test_differential_gas_sweep;
          Alcotest.test_case "step-limit sweep" `Quick
            test_differential_step_limit_sweep;
          Alcotest.test_case "nested calls" `Quick test_differential_calls;
          Alcotest.test_case "create" `Quick test_differential_create;
          Alcotest.test_case "seeded corpus" `Quick test_differential_corpus;
          Alcotest.test_case "testnet replay" `Quick
            test_testnet_replay_differential ] );
      ( "cache",
        [ Alcotest.test_case "one decode per account" `Quick
            test_decode_once_per_account;
          Alcotest.test_case "set_code invalidates memo" `Quick
            test_set_code_invalidates_memo;
          Alcotest.test_case "telemetry source" `Quick test_telemetry_source ]
      ) ]
