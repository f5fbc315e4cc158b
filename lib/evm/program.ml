(* Pre-decoded basic-block EVM programs. See program.mli for the
   invariants; the interpreter's fast path and the tail-refund
   discipline depend on them. *)

module U = Ethainter_word.Uint256

type block = {
  bb_start : int;
  bb_len : int;
  bb_gas : int;
  bb_need : int;
  bb_grow : int;
  bb_delta : int;
}

type t = {
  code : string;
  instrs : Bytecode.instr array;
  ops : Bytes.t;
  gas_rest : int array;
  blocks : block array;
  block_at_pc : int array;
  jumpdest : Bytes.t;
}

(* ---------------- decoding ---------------- *)

let decode (code : string) : t =
  let n = String.length code in
  (* One linear pass over the bytes: decoded instructions into a
     growable array (PUSH immediates materialized once, zero-filled
     past end-of-code), valid-JUMPDEST set as a side product (a 0x5b
     byte is a target iff it is an opcode, i.e. not immediate data). *)
  let cap = ref (max 16 n) in
  let arr = ref (Array.make !cap { Bytecode.pc = 0; op = Opcode.STOP; imm = None }) in
  let count = ref 0 in
  let emit i =
    if !count = !cap then begin
      cap := 2 * !cap;
      let a = Array.make !cap i in
      Array.blit !arr 0 a 0 !count;
      arr := a
    end;
    !arr.(!count) <- i;
    incr count
  in
  let jumpdest = Bytes.make n '\000' in
  let pc = ref 0 in
  while !pc < n do
    let op = Opcode.of_byte_total (Char.code (String.unsafe_get code !pc)) in
    let isz = Opcode.immediate_size op in
    if isz = 0 then begin
      if op = Opcode.JUMPDEST then Bytes.set jumpdest !pc '\001';
      emit { Bytecode.pc = !pc; op; imm = None };
      pc := !pc + 1
    end
    else begin
      let avail = min isz (n - !pc - 1) in
      let data =
        if avail = isz then String.sub code (!pc + 1) isz
        else String.sub code (!pc + 1) avail ^ String.make (isz - avail) '\000'
      in
      emit { Bytecode.pc = !pc; op; imm = Some (U.of_bytes data) };
      pc := !pc + 1 + isz
    end
  done;
  let instrs = Array.sub !arr 0 !count in
  let m = Array.length instrs in
  (* Canonical opcode byte per instruction (unknown bytes decoded as
     INVALID map to INVALID's byte): the threaded-dispatch index
     stream for the interpreter's handler table. *)
  let ops =
    Bytes.init m (fun i ->
        Char.unsafe_chr (Opcode.to_byte instrs.(i).Bytecode.op))
  in
  (* Block boundaries: instruction 0, every JUMPDEST, the instruction
     after every terminator — the same rule the decompiler used. *)
  let boundary = Array.make (max m 1) false in
  if m > 0 then boundary.(0) <- true;
  for i = 0 to m - 1 do
    let op = instrs.(i).Bytecode.op in
    if op = Opcode.JUMPDEST then boundary.(i) <- true;
    if Opcode.is_block_terminator op && i + 1 < m then boundary.(i + 1) <- true
  done;
  let nblocks = ref 0 in
  for i = 0 to m - 1 do
    if boundary.(i) then incr nblocks
  done;
  let blocks =
    Array.make (max !nblocks 1)
      { bb_start = 0; bb_len = 0; bb_gas = 0; bb_need = 0; bb_grow = 0;
        bb_delta = 0 }
  in
  let gas_rest = Array.make m 0 in
  let block_at_pc = Array.make n (-1) in
  let bk = ref 0 in
  let i = ref 0 in
  while !i < m do
    let start = !i in
    incr i;
    while !i < m && not boundary.(!i) do
      incr i
    done;
    let len = !i - start in
    (* static gas + stack metadata over the block, and the per
       instruction rest-of-block gas (summed back-to-front) *)
    let rest = ref 0 in
    for j = start + len - 1 downto start do
      gas_rest.(j) <- !rest;
      rest := !rest + Opcode.base_gas instrs.(j).Bytecode.op
    done;
    let cur = ref 0 and need = ref 0 and grow = ref 0 in
    for j = start to start + len - 1 do
      let pops, pushes = Opcode.stack_arity instrs.(j).Bytecode.op in
      if pops - !cur > !need then need := pops - !cur;
      cur := !cur - pops + pushes;
      if !cur > !grow then grow := !cur
    done;
    blocks.(!bk) <-
      { bb_start = start; bb_len = len; bb_gas = !rest; bb_need = !need;
        bb_grow = !grow; bb_delta = !cur };
    block_at_pc.(instrs.(start).Bytecode.pc) <- !bk;
    incr bk
  done;
  let blocks = Array.sub blocks 0 !bk in
  { code; instrs; ops; gas_rest; blocks; block_at_pc; jumpdest }

(* Programs are not cached here: their owners keep them (the world
   state memoizes one per account), and a whole-chain sweep meets each
   contract once, so a process-wide table would only hold memory. *)

let decodes = Atomic.make 0

let of_code (code : string) : t =
  Atomic.incr decodes;
  decode code

let empty : t = decode ""

(* ---------------- accessors ---------------- *)

let is_jumpdest (p : t) (pc : int) : bool =
  pc >= 0 && pc < Bytes.length p.jumpdest && Bytes.get p.jumpdest pc = '\001'

let instr_count (p : t) = Array.length p.instrs
let block_count (p : t) = Array.length p.blocks

let block_instrs (p : t) (b : block) : Bytecode.instr list =
  Array.to_list (Array.sub p.instrs b.bb_start b.bb_len)

(* ---------------- telemetry ---------------- *)

type stats = { decodes : int; hits : int }

let stats () = { decodes = Atomic.get decodes; hits = 0 }

let telemetry_pairs () = [ ("decodes", float_of_int (Atomic.get decodes)) ]
