(* Decompiler tests: block recovery, jump resolution, phi merging,
   scratch-hash resolution, orphan recovery, and dominators (checked
   against the definition of dominance). *)

module U = Ethainter_word.Uint256
module B = Ethainter_evm.Bytecode
module Op = Ethainter_evm.Opcode
module Tac = Ethainter_tac.Tac
module D = Ethainter_tac.Decomp
module Dom = Ethainter_tac.Dominators

let decompile asm = D.decompile (B.assemble asm)

let block_count p = List.length (Tac.blocks p)

let has_op p op =
  List.exists (fun s -> s.Tac.s_op = Tac.TOp op) (Tac.stmts p)

let test_straightline () =
  let p =
    decompile
      [ B.Push (U.of_int 1); B.Push (U.of_int 2); B.Op Op.ADD; B.Op Op.POP;
        B.Op Op.STOP ]
  in
  Alcotest.(check int) "one block" 1 (block_count p);
  Alcotest.(check bool) "has ADD" true (has_op p Op.ADD);
  (* ADD's result var has no constant (we only fold selected cases
     with both consts — here both are const so it folds) *)
  let add_stmt =
    List.find (fun s -> s.Tac.s_op = Tac.TOp Op.ADD) (Tac.stmts p)
  in
  match add_stmt.Tac.s_res with
  | Some v ->
      Alcotest.(check (option string)) "constant-folded"
        (Some "0x3")
        (Option.map U.to_hex (Tac.const_of p v))
  | None -> Alcotest.fail "ADD has a result"

let test_jump_resolution () =
  let p =
    decompile
      [ B.PushLabel "target"; B.Op Op.JUMP; B.Op Op.STOP; B.Label "target";
        B.Op Op.STOP ]
  in
  let entry = match Tac.block p 0 with Some b -> b | None -> assert false in
  Alcotest.(check int) "one successor" 1 (List.length entry.Tac.b_succs);
  (* the unreachable STOP between JUMP and the label forms its own
     (unvisited or orphan-ineligible) block; entry's successor is the
     JUMPDEST block *)
  let succ = List.hd entry.Tac.b_succs in
  match Tac.block p succ with
  | Some b ->
      Alcotest.(check bool) "successor starts with JUMPDEST" true
        (List.exists (fun s -> s.Tac.s_op = Tac.TOp Op.JUMPDEST
                               || s.Tac.s_block = succ)
           b.Tac.b_stmts
         || b.Tac.b_stmts = [])
  | None -> Alcotest.fail "missing successor block"

let test_jumpi_two_succs () =
  let p =
    decompile
      [ B.Push U.one; B.PushLabel "yes"; B.Op Op.JUMPI; B.Op Op.STOP;
        B.Label "yes"; B.Op Op.STOP ]
  in
  let entry = match Tac.block p 0 with Some b -> b | None -> assert false in
  Alcotest.(check int) "two successors" 2 (List.length entry.Tac.b_succs)

let test_phi_on_join () =
  (* two paths push different constants, join and store *)
  let asm =
    [ B.Push U.one; B.PushLabel "a"; B.Op Op.JUMPI;
      B.Push (U.of_int 10); B.PushLabel "join"; B.Op Op.JUMP;
      B.Label "a"; B.Push (U.of_int 20); B.PushLabel "join"; B.Op Op.JUMP;
      B.Label "join"; B.Push U.zero; B.Op Op.MSTORE; B.Op Op.STOP ]
  in
  let p = decompile asm in
  (* the MSTORE's value operand must be a phi holding both constants *)
  let mstore =
    List.find (fun s -> s.Tac.s_op = Tac.TOp Op.MSTORE) (Tac.stmts p)
  in
  match mstore.Tac.s_args with
  | [ _off; v ] ->
      let consts = Tac.const_set p v |> List.map U.to_hex |> List.sort compare in
      Alcotest.(check (list string)) "phi collects both" [ "0x14"; "0xa" ] consts
  | _ -> Alcotest.fail "mstore args"

let test_function_return_multi_caller () =
  (* a "function" jumped to from two sites, returning via stack: both
     return sites must be CFG successors of the callee's exit *)
  let asm =
    [ (* call 1 *)
      B.PushLabel "ret1"; B.PushLabel "fn"; B.Op Op.JUMP; B.Label "ret1";
      (* call 2 *)
      B.PushLabel "ret2"; B.PushLabel "fn"; B.Op Op.JUMP; B.Label "ret2";
      B.Op Op.STOP;
      (* the function: just returns *)
      B.Label "fn"; B.Op Op.JUMP ]
  in
  let p = decompile asm in
  (* find the fn block: the one ending in JUMP whose target is a phi *)
  let fn_block =
    List.find
      (fun b ->
        match List.rev b.Tac.b_stmts with
        | { Tac.s_op = Tac.TOp Op.JUMPDEST; _ } :: _ -> false
        | { Tac.s_op = Tac.TOp Op.JUMP; s_args = [ t ]; _ } :: _ ->
            List.length (Tac.const_set p t) = 2
        | _ -> false)
      (Tac.blocks p)
  in
  Alcotest.(check int) "both return sites are successors" 2
    (List.length fn_block.Tac.b_succs)

let test_sha3_args_resolved () =
  (* the mapping-lookup idiom: MSTORE key, MSTORE slot, SHA3(0, 64) *)
  let asm =
    [ B.Op Op.CALLER; B.Push U.zero; B.Op Op.MSTORE;
      B.Push (U.of_int 5); B.Push (U.of_int 32); B.Op Op.MSTORE;
      B.Push (U.of_int 64); B.Push U.zero; B.Op Op.SHA3;
      B.Op Op.POP; B.Op Op.STOP ]
  in
  let p = decompile asm in
  let sha3 = List.find (fun s -> s.Tac.s_op = Tac.TOp Op.SHA3) (Tac.stmts p) in
  match sha3.Tac.s_sha3_args with
  | Some [ key; slot ] ->
      (* key is the CALLER result; slot is the constant 5 *)
      (match Tac.def p key with
      | Some { Tac.s_op = Tac.TOp Op.CALLER; _ } -> ()
      | _ -> Alcotest.fail "key should be CALLER");
      Alcotest.(check (option string)) "slot const" (Some "0x5")
        (Option.map U.to_hex (Tac.const_of p slot))
  | _ -> Alcotest.fail "sha3 args unresolved"

let test_orphan_recovery () =
  (* code after STOP with a JUMPDEST: unreachable but decompiled *)
  let asm =
    [ B.Op Op.STOP; B.Label "orphan"; B.Op Op.CALLER; B.Op Op.SELFDESTRUCT ]
  in
  let p = decompile asm in
  Alcotest.(check bool) "selfdestruct statement exists" true
    (has_op p Op.SELFDESTRUCT);
  let sd =
    List.find (fun s -> s.Tac.s_op = Tac.TOp Op.SELFDESTRUCT) (Tac.stmts p)
  in
  Alcotest.(check bool) "marked orphan" true
    (Tac.is_orphan_block p sd.Tac.s_block)

let test_minisol_whole_contract () =
  let runtime =
    Ethainter_minisol.Codegen.compile_source_runtime
      {|contract C {
          mapping(address => uint256) m;
          address owner;
          constructor() { owner = msg.sender; }
          function put(uint256 v) public { m[msg.sender] = v; }
          function kill() public { require(msg.sender == owner); selfdestruct(owner); }
        }|}
  in
  let p = D.decompile runtime in
  (* every JUMP in a reachable block is resolved *)
  List.iter
    (fun b ->
      if not (Tac.is_orphan_block p b.Tac.b_entry) then
        match List.rev b.Tac.b_stmts with
        | { Tac.s_op = Tac.TOp Op.JUMP; _ } :: _ ->
            Alcotest.(check bool)
              (Printf.sprintf "block %d jump resolved" b.Tac.b_entry)
              true
              (b.Tac.b_succs <> [])
        | _ -> ())
    (Tac.blocks p);
  (* all SHA3s (mapping accesses) resolve their hashed arguments *)
  List.iter
    (fun s ->
      if s.Tac.s_op = Tac.TOp Op.SHA3 then
        Alcotest.(check bool) "sha3 resolved" true (s.Tac.s_sha3_args <> None))
    (Tac.stmts p)

let test_dominators_linear () =
  let p =
    decompile
      [ B.Push U.one; B.PushLabel "b"; B.Op Op.JUMPI; B.Label "mid";
        B.Op Op.STOP; B.Label "b"; B.Op Op.STOP ]
  in
  let doms = Dom.compute p in
  (* entry dominates everything *)
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "entry dominates %d" b.Tac.b_entry)
        true
        (Dom.dominates doms 0 b.Tac.b_entry))
    (Tac.blocks p)

let test_dominators_diamond () =
  (* diamond: entry -> {left,right} -> join; neither branch dominates
     the join, entry does *)
  let asm =
    [ B.Push U.one; B.PushLabel "right"; B.Op Op.JUMPI;
      (* left *)
      B.PushLabel "join"; B.Op Op.JUMP;
      B.Label "right"; B.PushLabel "join"; B.Op Op.JUMP;
      B.Label "join"; B.Op Op.STOP ]
  in
  let p = decompile asm in
  let doms = Dom.compute p in
  let join =
    List.find
      (fun b ->
        List.exists (fun s -> s.Tac.s_op = Tac.TOp Op.STOP) b.Tac.b_stmts)
      (Tac.blocks p)
  in
  (* either branch works: neither may dominate the join *)
  let right =
    List.find
      (fun b ->
        b.Tac.b_entry <> 0 && b.Tac.b_entry <> join.Tac.b_entry
        && b.Tac.b_succs = [ join.Tac.b_entry ])
      (Tac.blocks p)
  in
  Alcotest.(check bool) "entry dominates join" true
    (Dom.dominates doms 0 join.Tac.b_entry);
  Alcotest.(check bool) "branch does not dominate join" false
    (Dom.dominates doms right.Tac.b_entry join.Tac.b_entry)

(* Dominance by its definition: [a] dominates [b] iff [a = b], or [b]
   is reachable from the entry and unreachable once [a] is removed. *)
let reachable_avoiding p avoid =
  let seen = Hashtbl.create 16 in
  let rec go e =
    if e <> avoid && not (Hashtbl.mem seen e) then begin
      Hashtbl.replace seen e ();
      match Tac.block p e with
      | Some b -> List.iter go b.Tac.b_succs
      | None -> ()
    end
  in
  go p.Tac.p_entry;
  seen

(* [Dom.dominates] and [Dom.dominated_by] against the definition, over
   every block plus one id that names no block; the first disagreement,
   if any. *)
let dominance_mismatch p =
  let doms = Dom.compute p in
  let ids = List.map (fun b -> b.Tac.b_entry) (Tac.blocks p) in
  let ids = List.sort compare ((List.fold_left max 0 ids + 1) :: ids) in
  let reach = reachable_avoiding p (-1) in
  let reachable = List.filter (Hashtbl.mem reach) ids in
  let check a =
    let without_a = reachable_avoiding p a in
    let dom_a b =
      a = b || (Hashtbl.mem reach b && not (Hashtbl.mem without_a b))
    in
    let expected = List.filter dom_a reachable in
    let got = List.sort compare (Dom.dominated_by doms a) in
    let show l = String.concat ";" (List.map string_of_int l) in
    if got <> expected then
      Some (Printf.sprintf "dominated_by %d: got [%s], expected [%s]" a
              (show got) (show expected))
    else
      List.find_map
        (fun b ->
          if Dom.dominates doms a b = dom_a b then None
          else Some (Printf.sprintf "dominates %d %d: got %b" a b (not (dom_a b))))
        ids
  in
  List.find_map check ids

(* Random labelled programs: every block is a JUMPDEST ending in STOP,
   JUMP to a block, or JUMPI to a block (falling through to the next).
   Blocks nobody jumps or falls into are decompiled as orphans, so the
   CFGs carry unreachable blocks too. *)
let gen_labelled_program =
  QCheck.Gen.(
    int_range 1 12 >>= fun n ->
    list_repeat n
      (pair (frequency [ (1, return 0); (2, return 1); (4, return 2) ])
         (int_bound (n - 1))))

let assemble_labelled blocks =
  let label i = Printf.sprintf "L%d" i in
  List.concat
    (List.mapi
       (fun i (kind, target) ->
         B.Label (label i)
         ::
         (match kind with
         | 0 -> [ B.Op Op.STOP ]
         | 1 -> [ B.PushLabel (label target); B.Op Op.JUMP ]
         | _ -> [ B.Op Op.CALLVALUE; B.PushLabel (label target); B.Op Op.JUMPI ]))
       blocks)
  @ [ B.Label "end"; B.Op Op.STOP ]

let prop_dominance_definition =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"dominance matches its definition" ~count:300
       (QCheck.make
          ~print:(fun bs ->
            String.concat " "
              (List.map (fun (k, t) -> Printf.sprintf "%d->%d" k t) bs))
          gen_labelled_program)
       (fun blocks ->
         match dominance_mismatch (decompile (assemble_labelled blocks)) with
         | None -> true
         | Some msg -> QCheck.Test.fail_report msg))

let test_dominance_templates () =
  List.iter
    (fun (t : Ethainter_corpus.Patterns.template) ->
      let p =
        D.decompile
          (Ethainter_minisol.Codegen.compile_source_runtime
             t.Ethainter_corpus.Patterns.t_source)
      in
      match dominance_mismatch p with
      | None -> ()
      | Some msg -> Alcotest.fail (t.Ethainter_corpus.Patterns.t_name ^ ": " ^ msg))
    Ethainter_corpus.Patterns.all_templates

let test_dominance_edge_cases () =
  (* two orphan blocks, u1 jumping to u2, after the entry's STOP *)
  let p =
    decompile
      [ B.Op Op.STOP; B.Label "u1"; B.PushLabel "u2"; B.Op Op.JUMP;
        B.Label "u2"; B.Op Op.STOP ]
  in
  let doms = Dom.compute p in
  let u1, u2 =
    match
      Hashtbl.fold (fun e () acc -> e :: acc) p.Tac.p_orphans []
      |> List.sort compare
    with
    | [ u1; u2 ] -> (u1, u2)
    | _ -> Alcotest.fail "expected two orphan blocks"
  in
  List.iter
    (fun a ->
      Alcotest.(check bool) (Printf.sprintf "%d dominates itself" a) true
        (Dom.dominates doms a a))
    [ 0; u1; u2 ];
  Alcotest.(check bool) "unreachable a does not dominate unreachable b" false
    (Dom.dominates doms u1 u2);
  Alcotest.(check bool) "entry does not dominate an unreachable block" false
    (Dom.dominates doms 0 u1);
  Alcotest.(check (list int)) "unreachable a dominates nothing" []
    (Dom.dominated_by doms u1);
  Alcotest.(check (list int)) "entry dominates itself only" [ 0 ]
    (Dom.dominated_by doms 0)

let test_loc_counts () =
  let p =
    decompile [ B.Push U.one; B.Op Op.POP; B.Op Op.STOP ]
  in
  (* PUSH -> const stmt; POP -> nothing; STOP -> stmt *)
  Alcotest.(check int) "loc" 2 (Tac.loc p)

(* property: decompiling random straight-line stack programs neither
   crashes nor loses the terminator *)
let prop_random_straightline =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 40)
        (oneof
           [ map (fun n -> B.Push (U.of_int (abs n))) int;
             return (B.Op Op.ADD); return (B.Op Op.MUL);
             return (B.Op (Op.DUP 1)); return (B.Op (Op.SWAP 1));
             return (B.Op Op.POP); return (B.Op Op.CALLER);
             return (B.Op Op.ISZERO) ]))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random straightline decompiles" ~count:100
       (QCheck.make gen)
       (fun items ->
         let asm = items @ [ B.Op Op.STOP ] in
         let p = decompile asm in
         has_op p Op.STOP))

let () =
  Alcotest.run "tac"
    [ ( "decompiler",
        [ Alcotest.test_case "straight line" `Quick test_straightline;
          Alcotest.test_case "jump resolution" `Quick test_jump_resolution;
          Alcotest.test_case "jumpi successors" `Quick test_jumpi_two_succs;
          Alcotest.test_case "phi on join" `Quick test_phi_on_join;
          Alcotest.test_case "multi-caller returns" `Quick
            test_function_return_multi_caller;
          Alcotest.test_case "sha3 args" `Quick test_sha3_args_resolved;
          Alcotest.test_case "orphan recovery" `Quick test_orphan_recovery;
          Alcotest.test_case "whole contract" `Quick
            test_minisol_whole_contract;
          Alcotest.test_case "loc" `Quick test_loc_counts ] );
      ( "dominators",
        [ Alcotest.test_case "linear" `Quick test_dominators_linear;
          Alcotest.test_case "diamond" `Quick test_dominators_diamond;
          Alcotest.test_case "edge cases" `Quick test_dominance_edge_cases;
          Alcotest.test_case "templates" `Quick test_dominance_templates ] );
      ("properties", [ prop_random_straightline; prop_dominance_definition ]) ]
