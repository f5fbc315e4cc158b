(** Pre-decoded, basic-block-structured EVM programs.

    Raw bytecode is decoded {e once} into an immutable program: a flat
    instruction array (no per-step byte decoding, no PUSH-immediate
    re-reads), basic blocks split at [JUMPDEST]s and after block
    terminators with per-block static gas cost and stack-height
    metadata precomputed, and the valid-[JUMPDEST] set. The same
    structure is the shared substrate for the interpreter's hot loop
    ({!Interp}) and the decompiler's block splitter
    ([Ethainter_tac.Decomp.split_blocks]) — which previously re-derived
    it independently per use.

    There is no process-wide cache: {!of_code} always decodes, and the
    owner of a program keeps it. The world state memoizes one program
    per account ([State.program]), so repeated message calls into the
    same contract — an Ethainter-Kill escalation campaign, a
    million-transaction chain replay — decode once per account; the
    decompiler decodes the code it is given.

    {b Invariants} (relied on by the interpreter):
    - [instrs] lists instructions in code order; the immediate of a
      truncated PUSH at end-of-code is zero-filled (yellow-paper
      behaviour), and unknown bytes decode as [INVALID];
    - [blocks] partitions [instrs] contiguously and in order: block
      [k+1] starts at the instruction following block [k]'s last.
      Boundaries are exactly: instruction 0, every [JUMPDEST], and the
      instruction after every {!Opcode.is_block_terminator};
    - control flow only ever {e enters} a block at its first
      instruction (the entry block starts at pc 0, jumps land on
      [JUMPDEST]s, and fallthrough lands on the next block's start);
    - [bb_gas] is the sum of {!Opcode.base_gas} over the block, and
      [gas_rest.(i)] the sum over instructions {e strictly after} [i]
      within [i]'s block — so a block can be gas-charged once at entry
      and the pre-charge unwound exactly at any mid-block exit;
    - [bb_need] / [bb_grow] bound the operand-stack depth the block
      consumes below / grows above its entry height, per
      {!Opcode.stack_arity};
    - a byte position is a valid jump target iff {!is_jumpdest} — a
      [JUMPDEST] byte {e not} inside a PUSH immediate. *)

type block = {
  bb_start : int;  (** index of the block's first instruction *)
  bb_len : int;    (** number of instructions *)
  bb_gas : int;    (** static gas: sum of {!Opcode.base_gas} *)
  bb_need : int;   (** max stack depth consumed below entry height *)
  bb_grow : int;   (** max stack growth above entry height *)
  bb_delta : int;  (** net stack-height change *)
}

type t = {
  code : string;          (** the raw bytecode (for CODECOPY/CODESIZE) *)
  instrs : Bytecode.instr array;  (** flat decoded instruction stream *)
  ops : Bytes.t;
      (** per instruction: the canonical opcode byte
          ({!Opcode.to_byte}), so the interpreter's threaded dispatch
          indexes its 256-entry handler table with one byte load
          instead of a variant match; length [Array.length instrs] *)
  gas_rest : int array;
      (** per instruction: static gas of the instructions after it in
          its block (tail refund / GAS-opcode correction table) *)
  blocks : block array;   (** contiguous, in code order *)
  block_at_pc : int array;
      (** byte pc → index of the block starting there, or -1; length
          [String.length code] *)
  jumpdest : Bytes.t;
      (** byte pc → ['\001'] iff a valid jump target; length
          [String.length code] *)
}

val of_code : string -> t
(** [of_code code] decodes [code] (counted in {!stats}). Thread-safe. *)

val empty : t
(** The program of the empty code string (what a destroyed or
    code-less account executes). *)

val is_jumpdest : t -> int -> bool
(** Valid jump target: in-bounds [JUMPDEST] byte outside any PUSH
    immediate. *)

val instr_count : t -> int
val block_count : t -> int

val block_instrs : t -> block -> Bytecode.instr list
(** The block's instructions as a list, in code order (the shape the
    decompiler's abstract interpreter consumes). *)

(** {1 Telemetry}

    A monotonic process-wide counter (diff two readings for a
    window): [decodes] counts {!of_code} calls — a chain replay
    decodes once per account that runs code. *)

type stats = {
  decodes : int;
  hits : int;  (** always 0: there is no cache to hit *)
}

val stats : unit -> stats

val telemetry_pairs : unit -> (string * float) list
(** [decodes] in the flat key/value shape a
    {!Ethainter_core.Telemetry} source returns. *)
