(** Decompiler: EVM bytecode → {!Tac.program}.

    The EVM exposes no explicit control flow — jump targets are stack
    values — so the decompiler runs an abstract interpretation of the
    operand stack (the approach of Vandal and Gigahorse):

    1. split the code into basic blocks at [JUMPDEST]s and after
       terminators;
    2. interpret each block over a stack of symbolic variables,
       creating a fresh definition per value-producing opcode and
       recording possible constant values (from [PUSH], and through
       [AND]/[ADD]/etc. when all operands are constant);
    3. resolve [JUMP]/[JUMPI] targets from the constant *sets* of the
       target variable — a phi of several return addresses yields edges
       to every possible return site, which resolves the
       multiple-caller pattern without full context sensitivity;
    4. merge entry stacks at block joins into phi variables and iterate
       to a fixpoint.

    Scratch-space hashing is tracked: a [SHA3] whose memory operands
    were filled by [MSTORE]s at constant offsets within the same block
    records the hashed variables ([s_sha3_args]) — this feeds the
    paper's sender-keyed data-structure rules (Fig. 4). *)

module U = Ethainter_word.Uint256
module Op = Ethainter_evm.Opcode
module B = Ethainter_evm.Bytecode
module P = Ethainter_evm.Program
module Deadline = Ethainter_runtime.Deadline
open Tac

(* Maximum size of a constant set before it degrades to "unknown". *)
let max_const_set = 64

(* Limit on fixpoint iterations (defensive; real contracts converge in
   a handful of passes). *)
let max_passes = 60

type blockinfo = {
  entry : int;
  instrs : B.instr list; (* instructions of this block, in order *)
  mutable in_stack : var list; (* canonical entry stack, top first *)
  mutable in_depth_known : int; (* length of the known prefix *)
  mutable visited : bool;
  mutable orphan : bool;
      (* decompiled speculatively: a JUMPDEST block with no discovered
         in-edge (e.g. a never-called private function). Gigahorse
         decompiles these too; Experiment 1's "no public entry point"
         cases are exactly vulnerabilities flagged in orphan code. *)
}

(* The block partition now comes from the shared pre-decoded
   {!Ethainter_evm.Program}: its boundary rule (instruction 0, every
   JUMPDEST, the instruction after every terminator) is exactly the one
   this module used to re-derive per decompilation, so slicing the
   program's block table yields the same partition — and a decompile of
   code the interpreter has already run costs zero decodes. *)
let split_blocks (p : P.t) : (int, blockinfo) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun (b : P.block) ->
      if b.P.bb_len > 0 then begin
        let instrs = P.block_instrs p b in
        let entry = (List.hd instrs).B.pc in
        Hashtbl.replace tbl entry
          { entry; instrs; in_stack = []; in_depth_known = 0;
            visited = false; orphan = false }
      end)
    p.P.blocks;
  tbl

(** Decompile a pre-decoded program into a TAC program. *)
let decompile_program (prog : P.t) : program =
  let binfos = split_blocks prog in
  let consts : (var, U.t list) Hashtbl.t = Hashtbl.create 256 in
  let phi_args : (var, VarSet.t) Hashtbl.t = Hashtbl.create 64 in
  let block_stmts : (int, stmt list) Hashtbl.t = Hashtbl.create 64 in
  let block_succs : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let changed = ref true in
  let const_get v = match Hashtbl.find_opt consts v with Some l -> l | None -> [] in
  let const_add v cs =
    if cs = [] then ()
    else begin
      let old = const_get v in
      let merged =
        List.fold_left
          (fun acc c -> if List.exists (U.equal c) acc then acc else c :: acc)
          old cs
      in
      let merged =
        if List.length merged > max_const_set then [] (* degrade: unknown *)
        else merged
      in
      if List.length merged <> List.length old then begin
        Hashtbl.replace consts v merged;
        changed := true
      end
    end
  in
  (* --- entry stack merging --- *)
  let merge_into (bi : blockinfo) (incoming : var list) =
    if not bi.visited then begin
      bi.visited <- true;
      bi.in_stack <- incoming;
      bi.in_depth_known <- List.length incoming;
      changed := true
    end
    else begin
      let depth = min bi.in_depth_known (List.length incoming) in
      if depth < bi.in_depth_known then begin
        bi.in_stack <-
          (let rec take n = function
             | [] -> []
             | _ when n = 0 -> []
             | x :: r -> x :: take (n - 1) r
           in
           take depth bi.in_stack);
        bi.in_depth_known <- depth;
        changed := true
      end;
      (* unify position-wise *)
      bi.in_stack <-
        List.mapi
          (fun i cur ->
            let inc = List.nth incoming i in
            if cur = inc then cur
            else begin
              let pv = Vphi (bi.entry, i) in
              let args =
                match Hashtbl.find_opt phi_args pv with
                | Some s -> s
                | None -> VarSet.empty
              in
              let args' =
                VarSet.add inc
                  (if cur = pv then args else VarSet.add cur args)
              in
              if
                not
                  (Hashtbl.mem phi_args pv
                  && VarSet.equal args'
                       (Hashtbl.find phi_args pv))
              then begin
                Hashtbl.replace phi_args pv args';
                changed := true
              end;
              (* propagate constant sets through the phi *)
              VarSet.iter (fun a -> const_add pv (const_get a)) args';
              pv
            end)
          bi.in_stack
    end
  in
  (* --- per-block abstract execution --- *)
  let process_block (bi : blockinfo) =
    let stack = ref bi.in_stack in
    let unk_counter = ref 0 in
    let stmts = ref [] in
    (* local scratch-memory model: const offset -> var stored there *)
    let mem : (int, var) Hashtbl.t = Hashtbl.create 8 in
    let succs = ref [] in
    let push v = stack := v :: !stack in
    let pop () =
      match !stack with
      | v :: rest ->
          stack := rest;
          v
      | [] ->
          let v = Vunk (bi.entry, !unk_counter) in
          incr unk_counter;
          v
    in
    let popn n = List.init n (fun _ -> pop ()) in
    let add_stmt ?(sha3 = None) pc op args res =
      stmts :=
        { s_pc = pc; s_block = bi.entry; s_op = op; s_args = args;
          s_res = res; s_sha3_args = sha3 }
        :: !stmts
    in
    let falls = ref true in
    List.iter
      (fun (i : B.instr) ->
        (* the worklist re-interprets blocks until fixpoint; this is
           the unbounded inner loop the deadline must be able to cut *)
        Deadline.poll ();
        let pc = i.B.pc in
        match i.B.op with
        | Op.PUSH _ ->
            let v = Vdef pc in
            let c = match i.B.imm with Some c -> c | None -> U.zero in
            add_stmt pc (TConst c) [] (Some v);
            const_add v [ c ];
            push v
        | Op.DUP n ->
            let rec nth l k =
              match (l, k) with
              | x :: _, 1 -> Some x
              | _ :: r, k -> nth r (k - 1)
              | [], _ -> None
            in
            let v =
              match nth !stack n with
              | Some v -> v
              | None ->
                  (* duplicate an unknown below the known prefix: pop
                     down is wrong; just materialize an unknown *)
                  let v = Vunk (bi.entry, !unk_counter) in
                  incr unk_counter;
                  v
            in
            push v
        | Op.SWAP n ->
            let needed = n + 1 in
            let rec grow () =
              if List.length !stack < needed then begin
                (* extend with unknowns at the bottom *)
                stack :=
                  !stack
                  @ [ (let v = Vunk (bi.entry, !unk_counter) in
                       incr unk_counter;
                       v) ];
                grow ()
              end
            in
            grow ();
            let arr = Array.of_list !stack in
            let tmp = arr.(0) in
            arr.(0) <- arr.(n);
            arr.(n) <- tmp;
            stack := Array.to_list arr
        | Op.POP -> ignore (pop ())
        | Op.JUMPDEST -> ()
        | Op.PC ->
            let v = Vdef pc in
            add_stmt pc (TConst (U.of_int pc)) [] (Some v);
            const_add v [ U.of_int pc ];
            push v
        | Op.JUMP ->
            let t = pop () in
            add_stmt pc (TOp Op.JUMP) [ t ] None;
            List.iter
              (fun c ->
                match U.to_int_opt c with
                | Some d when Hashtbl.mem binfos d ->
                    if not (List.mem d !succs) then succs := d :: !succs
                | _ -> ())
              (const_get t);
            falls := false
        | Op.JUMPI ->
            let t = pop () in
            let c = pop () in
            add_stmt pc (TOp Op.JUMPI) [ t; c ] None;
            List.iter
              (fun cv ->
                match U.to_int_opt cv with
                | Some d when Hashtbl.mem binfos d ->
                    if not (List.mem d !succs) then succs := d :: !succs
                | _ -> ())
              (const_get t)
        | Op.MSTORE ->
            let off = pop () in
            let v = pop () in
            add_stmt pc (TOp Op.MSTORE) [ off; v ] None;
            (match
               List.filter_map U.to_int_opt (const_get off)
             with
            | [ o ] when o land 31 = 0 && o < 0x2000 ->
                Hashtbl.replace mem o v
            | _ -> ())
        | Op.SHA3 ->
            let off = pop () in
            let len = pop () in
            let res = Vdef pc in
            (* resolve hashed memory words when offsets are constant *)
            let sha3 =
              match
                ( List.filter_map U.to_int_opt (const_get off),
                  List.filter_map U.to_int_opt (const_get len) )
              with
              | [ o ], [ l ] when l mod 32 = 0 && l / 32 <= 4 ->
                  let words = l / 32 in
                  let rec gather k acc =
                    if k = words then Some (List.rev acc)
                    else
                      match Hashtbl.find_opt mem (o + (32 * k)) with
                      | Some v -> gather (k + 1) (v :: acc)
                      | None -> None
                  in
                  gather 0 []
              | _ -> None
            in
            add_stmt ~sha3 pc (TOp Op.SHA3) [ off; len ] (Some res);
            push res
        | op ->
            let npop, npush = Op.stack_arity op in
            let args = popn npop in
            let res = if npush > 0 then Some (Vdef pc) else None in
            add_stmt pc (TOp op) args res;
            (match res with Some v -> push v | None -> ());
            (* constant folding for a few operations that matter for
               jump-target and storage-slot resolution *)
            (match (op, args, res) with
            | (Op.ADD | Op.SUB | Op.AND | Op.OR | Op.SHL | Op.SHR | Op.EXP),
              [ a; b ], Some r ->
                let ca = const_get a and cb = const_get b in
                if ca <> [] && cb <> [] && List.length ca * List.length cb <= 16
                then
                  let f x y =
                    match op with
                    | Op.ADD -> U.add x y
                    | Op.SUB -> U.sub x y
                    | Op.AND -> U.logand x y
                    | Op.OR -> U.logor x y
                    | Op.EXP -> U.exp x y
                    | Op.SHL ->
                        if U.fits_int x then U.shift_left y (U.to_int x)
                        else U.zero
                    | Op.SHR ->
                        if U.fits_int x then U.shift_right y (U.to_int x)
                        else U.zero
                    | _ -> assert false
                  in
                  const_add r
                    (List.concat_map (fun x -> List.map (f x) cb) ca)
            | _ -> ());
            if Op.is_block_terminator op then falls := false)
      bi.instrs;
    (* fallthrough successor *)
    (if !falls then
       let last = List.rev bi.instrs in
       match last with
       | i :: _ ->
           let next = i.B.pc + 1 + Op.immediate_size i.B.op in
           if Hashtbl.mem binfos next && not (List.mem next !succs) then
             succs := next :: !succs
       | [] -> ());
    (* JUMPI fallthrough *)
    (match List.rev bi.instrs with
    | i :: _ when i.B.op = Op.JUMPI ->
        let next = i.B.pc + 1 + Op.immediate_size i.B.op in
        if Hashtbl.mem binfos next && not (List.mem next !succs) then
          succs := next :: !succs
    | _ -> ());
    Hashtbl.replace block_stmts bi.entry (List.rev !stmts);
    (let old = Hashtbl.find_opt block_succs bi.entry in
     let news = List.sort compare !succs in
     if old <> Some news then begin
       Hashtbl.replace block_succs bi.entry news;
       changed := true
     end);
    (!succs, !stack)
  in
  (* --- fixpoint --- *)
  (match Hashtbl.find_opt binfos 0 with
  | Some b0 ->
      b0.visited <- true;
      b0.in_stack <- []
  | None -> ());
  let pass = ref 0 in
  while !changed && !pass < max_passes do
    Deadline.poll ();
    changed := false;
    incr pass;
    (* process blocks in entry order for determinism *)
    let entries =
      Hashtbl.fold (fun e bi acc -> (e, bi) :: acc) binfos []
      |> List.sort compare
    in
    List.iter
      (fun (_, bi) ->
        if bi.visited then begin
          let succs, out_stack = process_block bi in
          List.iter
            (fun s ->
              match Hashtbl.find_opt binfos s with
              | Some sb -> merge_into sb out_stack
              | None -> ())
            succs
        end)
      entries
  done;
  (* --- orphan recovery ---
     JUMPDEST blocks never reached from the entry (e.g. private
     functions with no call site) are decompiled speculatively with an
     empty entry stack. Merges out of orphan blocks only flow into
     other unvisited blocks, so the precision of the main flow is
     unaffected. *)
  let orphan_entries =
    Hashtbl.fold
      (fun e bi acc ->
        match bi.instrs with
        | { B.op = Op.JUMPDEST; _ } :: _ when not bi.visited -> (e, bi) :: acc
        | _ -> acc)
      binfos []
    |> List.sort compare
  in
  List.iter
    (fun (_, bi) ->
      bi.visited <- true;
      bi.orphan <- true;
      bi.in_stack <- [];
      bi.in_depth_known <- 0)
    orphan_entries;
  if orphan_entries <> [] then begin
    changed := true;
    pass := 0;
    while !changed && !pass < max_passes do
      Deadline.poll ();
      changed := false;
      incr pass;
      let entries =
        Hashtbl.fold
          (fun e bi acc -> if bi.orphan then (e, bi) :: acc else acc)
          binfos []
        |> List.sort compare
      in
      List.iter
        (fun (_, bi) ->
          let succs, out_stack = process_block bi in
          List.iter
            (fun s ->
              match Hashtbl.find_opt binfos s with
              | Some sb when (not sb.visited) || sb.orphan ->
                  if not sb.visited then begin
                    sb.orphan <- true
                  end;
                  merge_into sb out_stack
              | _ -> ())
            succs)
        entries
    done
  end;
  (* --- assemble program --- *)
  let p_blocks = Hashtbl.create 64 in
  let preds : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun e succs ->
      List.iter
        (fun s ->
          let cur = match Hashtbl.find_opt preds s with Some l -> l | None -> [] in
          Hashtbl.replace preds s (e :: cur))
        succs)
    block_succs;
  Hashtbl.iter
    (fun e (bi : blockinfo) ->
      if bi.visited then
        let stmts =
          match Hashtbl.find_opt block_stmts e with Some s -> s | None -> []
        in
        let succs =
          match Hashtbl.find_opt block_succs e with Some s -> s | None -> []
        in
        let preds =
          match Hashtbl.find_opt preds e with Some s -> s | None -> []
        in
        Hashtbl.replace p_blocks e
          { b_entry = e; b_stmts = stmts; b_succs = succs; b_preds = preds })
    binfos;
  let p_def = Hashtbl.create 256 in
  Hashtbl.iter
    (fun _ b ->
      List.iter
        (fun s ->
          match s.s_res with Some v -> Hashtbl.replace p_def v s | None -> ())
        b.b_stmts)
    p_blocks;
  (* phi pseudo-statements so every var has a def *)
  Hashtbl.iter
    (fun v args ->
      match v with
      | Vphi (b, _) ->
          if not (Hashtbl.mem p_def v) then
            Hashtbl.replace p_def v
              { s_pc = b; s_block = b; s_op = TPhi;
                s_args = VarSet.elements args; s_res = Some v;
                s_sha3_args = None }
      | _ -> ())
    phi_args;
  let p_orphans = Hashtbl.create 8 in
  Hashtbl.iter
    (fun e (bi : blockinfo) ->
      if bi.orphan then Hashtbl.replace p_orphans e ())
    binfos;
  { p_blocks; p_entry = 0; p_def; p_consts = consts; p_phi_args = phi_args;
    p_orphans; p_code_size = String.length prog.P.code }

(** Decompile [code] (runtime bytecode) into a TAC program, decoding it
    first; a caller that already holds the decoded program (Kill, from
    the world state's memo) uses {!decompile_program}. *)
let decompile (code : string) : program = decompile_program (P.of_code code)
