(** Taint-independent facts over the TAC program.

    These correspond to the "previous stratum" relations of Fig. 2: the
    sender-keyed data-structure relations DS/DSA (Fig. 4), storage
    location classification (the ConstValue / StorageAliasVar roles),
    guard discovery (which [JUMPI] conditions dominate which blocks),
    and backward slices of guard conditions. They are all computed
    before — and do not depend on — taint propagation. *)

module U = Ethainter_word.Uint256
module Op = Ethainter_evm.Opcode
module Deadline = Ethainter_runtime.Deadline
open Ethainter_tac
open Tac

(** Classification of a storage address operand. *)
type slot_class =
  | SConst of U.t  (** statically-known constant slot *)
  | SData of U.t   (** element of a data structure rooted at this slot
                       (mapping/array, address derived by hashing) *)
  | SUnknown       (** statically unresolved *)

let slot_class_to_string = function
  | SConst c -> "slot " ^ U.to_hex c
  | SData b -> "data-structure @ slot " ^ U.to_hex b
  | SUnknown -> "unknown slot"

(** May two storage accesses alias? Conservative on [SUnknown] only
    when [conservative] is set (Fig. 8c ablation). *)
let may_alias ?(conservative = false) (a : slot_class) (b : slot_class) =
  match (a, b) with
  | SConst x, SConst y -> U.equal x y
  | SData x, SData y -> U.equal x y
  | SUnknown, _ | _, SUnknown -> conservative
  | SConst _, SData _ | SData _, SConst _ -> false

type guard = {
  g_cond : var;      (** the condition variable, in positive polarity *)
  g_jumpi_pc : int;  (** the JUMPI statement *)
}

type t = {
  program : program;
  doms : Dominators.t;
  sender_derived : (var, unit) Hashtbl.t;
      (** DS(x) of Fig. 4: x holds data keyed by / equal to the caller *)
  ds_addr : (var, U.t) Hashtbl.t;
      (** DSA(x): x is the address of a sender-keyed data-structure
          element; the value is the root slot of the structure *)
  data_addr : (var, U.t) Hashtbl.t;
      (** like [ds_addr] but for *any* key (not necessarily sender):
          hash-derived addresses with a known root slot *)
  known_true : (int, guard list) Hashtbl.t;
      (** block -> conditions that must hold to reach it *)
  guard_slice : (var, VarSet.t) Hashtbl.t;
      (** condition var -> backward value slice (through arithmetic,
          comparisons, phis; not through loads) *)
  sender_scrutiny : (var, bool) Hashtbl.t;
      (** condition var -> does its slice scrutinize the sender?
          Precomputed for every sliced guard: the question is asked
          per guard per protected statement by the taint fixpoint,
          the detectors and the fact exporter, so answering it from
          the slice each time was a hot-path scan *)
  guard_reads : (var, (var * slot_class) list) Hashtbl.t;
      (** condition var -> {!guard_storage_reads}, precomputed for
          every sliced guard: the taint fixpoint asks it for every
          guarded, not-yet-reachable statement in every round *)
}

let program t = t.program

(* Backward slice of a condition through "value" operations. We stop
   at loads, hashes, calls and constants: those are the slice's
   frontier. *)
let compute_slice (p : program) (root : var) : VarSet.t =
  let seen = ref VarSet.empty in
  let rec go v =
    Deadline.poll ();
    if not (VarSet.mem v !seen) then begin
      seen := VarSet.add v !seen;
      match def p v with
      | None -> ()
      | Some s -> (
          match s.s_op with
          | TPhi -> List.iter go s.s_args
          | TOp
              ( Op.EQ | Op.ISZERO | Op.AND | Op.OR | Op.XOR | Op.NOT
              | Op.LT | Op.GT | Op.SLT | Op.SGT | Op.ADD | Op.SUB
              | Op.MUL | Op.DIV | Op.MOD | Op.SHL | Op.SHR | Op.SAR
              | Op.BYTE | Op.SIGNEXTEND | Op.EXP ) ->
              List.iter go s.s_args
          | _ -> ())
    end
  in
  go root;
  !seen

(* ------------------------------------------------------------------ *)
(* DS / DSA (Fig. 4)                                                   *)
(* ------------------------------------------------------------------ *)

let compute_ds (p : program) =
  let sender_derived : (var, unit) Hashtbl.t = Hashtbl.create 32 in
  let ds_addr : (var, U.t) Hashtbl.t = Hashtbl.create 32 in
  let data_addr : (var, U.t) Hashtbl.t = Hashtbl.create 32 in
  let changed = ref true in
  let add_ds v =
    if not (Hashtbl.mem sender_derived v) then begin
      Hashtbl.replace sender_derived v ();
      changed := true
    end
  in
  let add_dsa v b =
    if Hashtbl.find_opt ds_addr v <> Some b then begin
      Hashtbl.replace ds_addr v b;
      changed := true
    end
  in
  let add_da v b =
    if Hashtbl.find_opt data_addr v <> Some b then begin
      Hashtbl.replace data_addr v b;
      changed := true
    end
  in
  let all = stmts p in
  while !changed do
    changed := false;
    List.iter
      (fun s ->
        (* the DS/DSA fixpoint re-scans every statement until quiescent
           — on large programs this is a front-end hot loop the
           deadline must be able to cut *)
        Deadline.poll ();
        match (s.s_op, s.s_res) with
        (* DS-SenderKey: CALLER is sender data. ORIGIN identifies the
           transaction originator and is treated the same way (tx.origin
           guards scrutinize the caller chain; flagging them anyway
           would drown the analysis in origin-pattern warnings). *)
        | TOp (Op.CALLER | Op.ORIGIN), Some r -> add_ds r
        | TOp Op.SHA3, Some r -> (
            (* DS-Lookup / DSA-Lookup: hash of sender data (the mapping
               key) at a known root slot. Our decompiler resolves
               scratch hashing to [key; slot] sequences. *)
            match s.s_sha3_args with
            | Some args ->
                (* root slot: last hashed word if constant; otherwise,
                   if the last word is itself a data address, chain to
                   its root (nested mappings). *)
                let root =
                  match List.rev args with
                  | last :: _ -> (
                      match const_of p last with
                      | Some c -> Some c
                      | None -> (
                          match Hashtbl.find_opt data_addr last with
                          | Some b -> Some b
                          | None -> Hashtbl.find_opt ds_addr last))
                  | [] -> None
                in
                (match root with
                | Some b ->
                    add_da r b;
                    (* sender-keyed if any hashed word is DS or DSA *)
                    if
                      List.exists
                        (fun a ->
                          Hashtbl.mem sender_derived a
                          || Hashtbl.mem ds_addr a)
                        args
                    then add_dsa r b
                | None -> ())
            | None ->
                (* Unresolved hash: if any operand of an MSTORE in the
                   same block before this SHA3 was sender-derived, we
                   over-approximate DSA with an unknown root. We encode
                   unknown roots as the max word (no real slot). *)
                ())
        (* DS-AddrOp: arithmetic on data-structure addresses *)
        | TOp (Op.ADD | Op.SUB), Some r ->
            List.iter
              (fun a ->
                (match Hashtbl.find_opt ds_addr a with
                | Some b -> add_dsa r b
                | None -> ());
                match Hashtbl.find_opt data_addr a with
                | Some b -> add_da r b
                | None -> ())
              s.s_args
        (* DSA-Load: loading through a sender-keyed address yields
           sender data *)
        | TOp Op.SLOAD, Some r -> (
            match s.s_args with
            | [ a ] -> if Hashtbl.mem ds_addr a then add_ds r
            | _ -> ())
        (* AND with the address mask etc. preserves sender-ness *)
        | TOp Op.AND, Some r ->
            if List.exists (fun a -> Hashtbl.mem sender_derived a) s.s_args
            then add_ds r
        | TPhi, Some r ->
            if List.for_all (fun a -> Hashtbl.mem sender_derived a) s.s_args
               && s.s_args <> []
            then add_ds r
        | _ -> ())
      all
  done;
  (sender_derived, ds_addr, data_addr)

(* ------------------------------------------------------------------ *)
(* Guard discovery                                                     *)
(* ------------------------------------------------------------------ *)

(* For a JUMPI in block B with condition c:
   - blocks dominated by the taken target T (when T's only predecessor
     is B) can assume c true;
   - blocks dominated by the fall-through F (when F's only predecessor
     is B) can assume c false; if c = ISZERO(c'), they assume c' true.
   This covers both the require-pattern (JUMPI to the continuation,
   fall-through reverts) and the if-pattern (ISZERO; JUMPI to else). *)
let compute_guards (p : program) (doms : Dominators.t) :
    (int, guard list) Hashtbl.t =
  let known : (int, guard list) Hashtbl.t = Hashtbl.create 32 in
  let add b g =
    let cur = match Hashtbl.find_opt known b with Some l -> l | None -> [] in
    if not (List.exists (fun g' -> g'.g_cond = g.g_cond) cur) then
      Hashtbl.replace known b (g :: cur)
  in
  Hashtbl.iter
    (fun entry (b : block) ->
      Deadline.poll ();
      match List.rev b.b_stmts with
      | ({ s_op = TOp Op.JUMPI; s_args = [ tgt; cond ]; _ } as j) :: _ ->
          let fall_pc =
            (* fall-through block: next block boundary after the JUMPI *)
            j.s_pc + 1
          in
          let targets =
            const_set p tgt
            |> List.filter_map U.to_int_opt
            |> List.filter (fun t -> Hashtbl.mem p.p_blocks t)
          in
          let protect target_pc positive =
            match block p target_pc with
            | Some tb when tb.b_preds = [ entry ] ->
                let conds =
                  if positive then [ cond ]
                  else
                    (* c false; if c = ISZERO(c'), then c' holds *)
                    match def p cond with
                    | Some { s_op = TOp Op.ISZERO; s_args = [ c' ]; _ } ->
                        [ c' ]
                    | _ -> []
                in
                List.iter
                  (fun c ->
                    List.iter
                      (fun d -> add d { g_cond = c; g_jumpi_pc = j.s_pc })
                      (Dominators.dominated_by doms target_pc))
                  conds
            | _ -> ()
          in
          List.iter (fun t -> protect t true) targets;
          if Hashtbl.mem p.p_blocks fall_pc && List.mem fall_pc b.b_succs
          then protect fall_pc false
      | _ -> ())
    p.p_blocks;
  known

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

(* Does a condition's slice involve a sender-derived value — directly,
   or via a load through a sender-keyed address? (Uguard-NDS, negated.) *)
let slice_scrutinizes_sender (p : program) sender_derived ds_addr
    (slice : VarSet.t) : bool =
  VarSet.exists
    (fun v ->
      Hashtbl.mem sender_derived v
      ||
      match def p v with
      | Some { s_op = TOp Op.SLOAD; s_args = [ a ]; _ } ->
          Hashtbl.mem ds_addr a
      | _ -> false)
    slice

(* Slot class of a storage address operand, given the data-address
   table of {!compute_ds}. *)
let slot_class_of (p : program) data_addr (addr : var) : slot_class =
  match const_of p addr with
  | Some c -> SConst c
  | None -> (
      match Hashtbl.find_opt data_addr addr with
      | Some b -> SData b
      | None -> SUnknown)

(* Storage reads in a guard condition's slice, plus the condition
   itself when it is a load (e.g. require(admins[k])). *)
let slice_storage_reads (p : program) data_addr (slice : VarSet.t)
    (cond : var) : (var * slot_class) list =
  let read v =
    match def p v with
    | Some { s_op = TOp Op.SLOAD; s_args = [ a ]; s_res = Some r; _ } ->
        Some (r, slot_class_of p data_addr a)
    | _ -> None
  in
  VarSet.fold
    (fun v acc -> match read v with Some x -> x :: acc | None -> acc)
    slice []
  @ Option.to_list (read cond)

let compute (p : program) : t =
  let doms = Dominators.compute p in
  let sender_derived, ds_addr, data_addr = compute_ds p in
  let known_true = compute_guards p doms in
  let guard_slice = Hashtbl.create 32 in
  Hashtbl.iter
    (fun _ gs ->
      List.iter
        (fun g ->
          if not (Hashtbl.mem guard_slice g.g_cond) then
            Hashtbl.replace guard_slice g.g_cond (compute_slice p g.g_cond))
        gs)
    known_true;
  let sender_scrutiny = Hashtbl.create 32 in
  let guard_reads = Hashtbl.create 32 in
  Hashtbl.iter
    (fun cond slice ->
      Hashtbl.replace sender_scrutiny cond
        (slice_scrutinizes_sender p sender_derived ds_addr slice);
      Hashtbl.replace guard_reads cond
        (slice_storage_reads p data_addr slice cond))
    guard_slice;
  { program = p; doms; sender_derived; ds_addr; data_addr; known_true;
    guard_slice; sender_scrutiny; guard_reads }

(** Slot class of a storage address operand. *)
let classify_slot (t : t) (addr : var) : slot_class =
  slot_class_of t.program t.data_addr addr

(* Guard conditions are all pre-sliced by {!compute}; the fallback
   recomputes without memoizing because a [t] can be shared read-only
   across scheduler domains (the pipeline's front-end cache hands the
   same fact database to every ablation config), and a concurrent
   [Hashtbl.replace] would be a data race. *)
let slice_of (t : t) (cond : var) : VarSet.t =
  match Hashtbl.find_opt t.guard_slice cond with
  | Some s -> s
  | None -> compute_slice t.program cond

(** Does the condition scrutinize the contract caller? (Uguard-NDS,
    negated: a guard that involves no sender-derived value — directly
    or via data-structure lookup — fails to sanitize.) Answered from
    the table precomputed by {!compute}; the fallback re-derives from
    the slice without memoizing (a [t] is shared read-only across
    scheduler domains). *)
let scrutinizes_sender (t : t) (cond : var) : bool =
  match Hashtbl.find_opt t.sender_scrutiny cond with
  | Some b -> b
  | None ->
      slice_scrutinizes_sender t.program t.sender_derived t.ds_addr
        (slice_of t cond)

(** Storage reads appearing in a guard's slice, with their classes.
    These are the candidate "owner variables": slots whose content the
    guard trusts (§4.5 sink inference). Answered from the table
    precomputed by {!compute}; the fallback re-derives from the slice
    without memoizing (a [t] is shared read-only across scheduler
    domains). *)
let guard_storage_reads (t : t) (cond : var) : (var * slot_class) list =
  match Hashtbl.find_opt t.guard_reads cond with
  | Some l -> l
  | None -> slice_storage_reads t.program t.data_addr (slice_of t cond) cond

(** Storage reads compared for {e equality} against a sender-derived
    value inside the guard's slice — the §4.5 inferred sinks ("a
    variable that determines a potentially-sanitizing guard is by
    itself a sink": a GUARD over a sender-equality predicate whose
    compared variable aliases storage). Note that data-structure
    membership guards like [require(admins[msg.sender])] do *not* make
    their base slot a sink: §4.5's rule requires the sender-equality
    shape. *)
let sender_eq_storage_reads (t : t) (cond : var) : (var * slot_class) list =
  VarSet.fold
    (fun v acc ->
      match def t.program v with
      | Some { s_op = TOp Op.EQ; s_args = [ a; b ]; _ } ->
          let read_of x other =
            if Hashtbl.mem t.sender_derived other then
              match def t.program x with
              | Some { s_op = TOp Op.SLOAD; s_args = [ addr ]; s_res = Some r; _ }
                ->
                  Some (r, classify_slot t addr)
              | _ -> None
            else None
          in
          let acc = match read_of a b with Some x -> x :: acc | None -> acc in
          (match read_of b a with Some x -> x :: acc | None -> acc)
      | _ -> acc)
    (slice_of t cond)
    []

(** Guards protecting a statement (empty when the statement's block has
    no dominating sender-relevant branches). *)
let guards_of_stmt (t : t) (s : stmt) : guard list =
  match Hashtbl.find_opt t.known_true s.s_block with
  | Some gs -> gs
  | None -> []
