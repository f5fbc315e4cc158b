(** The EVM interpreter.

    Executes EVM bytecode against a {!State.t}, with full message-call
    semantics ([CALL], [DELEGATECALL], [STATICCALL], [CALLCODE],
    [CREATE]), revert/rollback, gas accounting, and an optional
    instruction trace. Rollback runs on the state's undo journal: each
    call frame opens a {!State.snapshot} mark, commits it on success
    and restores it on revert or failure. The trace is off unless a
    caller asks for it ([call_full ~trace:true]); the differential
    tests do, while the testnet, Kill and the index judge an execution
    by its outcome, effects and post-state.

    Two engines execute the same semantics:

    - {b Decoded} (the default): runs over the pre-decoded basic-block
      {!Program.t} for the contract — one decode per unique code hash
      process-wide, an array operand stack, and per-block gas
      pre-charging (a block whose static cost fits the remaining gas
      is charged once at entry; any mid-block exit unwinds the
      unexecuted tail via [Program.gas_rest], so observable gas is
      bit-identical to per-instruction charging).
    - {b Bytewise}: the reference per-byte interpreter (decode each
      opcode from the raw string at each step, rebuild the JUMPDEST
      set per call frame, list operand stack). Kept verbatim as the
      differential baseline; the test suite asserts both engines
      produce identical traces, outcomes, gas and effects. *)

module U = Ethainter_word.Uint256

exception Evm_error of string

type log_entry = { log_addr : U.t; topics : U.t list; data : string }

(** One trace record per executed instruction. *)
type trace_entry = {
  t_depth : int;
  t_addr : U.t;   (** executing contract (storage context) *)
  t_pc : int;
  t_op : Opcode.t;
}

type call_kind = Call | DelegateCall | StaticCall | CallCode

(** Chain-observable side effects of an execution, in chronological
    order — what a block-stream consumer (the testnet's block
    observer, the streaming index's invalidation logic) needs without
    re-deriving it from the instruction trace. Effects performed
    inside an {e inner} call that later reverted are not trimmed
    (neither is the trace); a consumer treating each effect as "this
    state {e may} have changed" over-approximates, which is the sound
    direction for cache invalidation — but it also means an
    [E_selfdestruct] proves nothing: only the post-state says whether
    the contract is gone. Effects of a reverted or failed {e top-level}
    call are dropped, like logs. *)
type effect =
  | E_sstore of { es_addr : U.t; es_slot : U.t }
      (** storage write: contract [es_addr], slot [es_slot] *)
  | E_create of U.t     (** successful CREATE/CREATE2: new contract *)
  | E_selfdestruct of U.t

type context = {
  state : State.t;
  mutable gas : int;
  origin : U.t;
  gas_price : U.t;
  block_number : U.t;
  timestamp : U.t;
  chain_id : U.t;
  trace : trace_entry list ref;       (** bytewise engine: reversed list *)
  (* The decoded engine records the trace into a flat int array
     instead — one immediate store per executed instruction, no
     pointer writes (a pointer-array store is a [caml_modify] write
     barrier per step). Each entry packs pc (bits 0-23, EVM code is
     capped at 24 KB), the canonical opcode byte (24-31), depth
     (32-42) and a frame id (43-62). [faddr] maps frame id to the
     executing address, written once per frame; ids are assigned
     lazily at a frame's first recorded entry, so they are bounded by
     [max_trace] (<= 2^20 given the 1M trace cap). Both engines
     reconstruct the identical [trace_entry list] in [call_full];
     [trace_len] counts entries for either. An untraced call has
     [max_trace = 0], so neither engine records anything. *)
  mutable tmeta : int array;
  mutable faddr : U.t array;
  mutable nframes : int;
  mutable trace_len : int;
  max_trace : int;
  mutable steps : int;
  max_steps : int;
  logs : log_entry list ref;          (** reversed; newest first *)
  effects : effect list ref;          (** reversed; newest first *)
}

(* Grow the decoded engine's flat trace buffers (amortized doubling,
   capped at [max_trace]). Allocated lazily: the bytewise engine never
   touches them. *)
let grow_trace (ctx : context) =
  let old = Array.length ctx.tmeta in
  let cap = if old = 0 then 64 else min ctx.max_trace (2 * old) in
  let tmeta = Array.make cap 0 in
  Array.blit ctx.tmeta 0 tmeta 0 old;
  ctx.tmeta <- tmeta

let grow_faddr (ctx : context) =
  let old = Array.length ctx.faddr in
  let cap = if old = 0 then 16 else 2 * old in
  let a = Array.make cap U.zero in
  Array.blit ctx.faddr 0 a 0 old;
  ctx.faddr <- a

type outcome =
  | Returned of string
  | Reverted of string
  | Failed of string (* out of gas, invalid op, stack error ... *)

(** Which executor runs the bytecode; see the module header. *)
type engine = Decoded | Bytewise

(* Byte-addressed, lazily grown EVM memory. *)
module Memory = struct
  type t = { mutable data : Bytes.t; mutable size : int }

  let create () = { data = Bytes.make 1024 '\000'; size = 0 }

  (* [size] is the MSIZE value: the touched extent rounded up to a
     32-byte word boundary. Capacity must cover that *rounded* size —
     rounding only the size once produced size > capacity (e.g.
     capacity 1024, [ensure 2049] -> capacity 2049 but size 2080),
     and the next growth's [Bytes.blit _ 0 _ 0 m.size] then raised
     [Invalid_argument] while MSIZE reported bytes never allocated. *)
  let ensure m n =
    if n > m.size then begin
      let sz = ((n + 31) / 32) * 32 in
      if sz > Bytes.length m.data then begin
        let cap = max sz (2 * Bytes.length m.data) in
        let d = Bytes.make cap '\000' in
        Bytes.blit m.data 0 d 0 m.size;
        m.data <- d
      end;
      m.size <- sz
    end

  let load_word m off =
    ensure m (off + 32);
    U.of_bytes (Bytes.sub_string m.data off 32)

  let store_word m off v =
    ensure m (off + 32);
    Bytes.blit_string (U.to_bytes v) 0 m.data off 32

  (* Allocation-free variants for the decoded engine's owned stack
     slots. *)
  let load_word_into m off (dst : U.t) =
    ensure m (off + 32);
    U.load_be_into dst m.data off

  let store_word_from m off (src : U.t) =
    ensure m (off + 32);
    U.store_be src m.data off

  let store_byte m off v =
    ensure m (off + 1);
    Bytes.set m.data off (Char.chr (v land 0xff))

  let load_bytes m off len =
    if len = 0 then ""
    else begin
      ensure m (off + len);
      Bytes.sub_string m.data off len
    end

  let store_bytes m off (s : string) =
    if String.length s > 0 then begin
      ensure m (off + String.length s);
      Bytes.blit_string s 0 m.data off (String.length s)
    end

  let size m = m.size
end

let max_call_depth = 1024

(* Charge gas; raise when exhausted. *)
let charge ctx amount =
  ctx.gas <- ctx.gas - amount;
  if ctx.gas < 0 then raise (Evm_error "out of gas")

let as_offset (v : U.t) : int =
  match U.to_int_opt v with
  | Some i when i <= 0x3FFFFFFF -> i
  | _ -> raise (Evm_error "offset out of range")

let addr_mask = U.sub (U.shift_left U.one 160) U.one
let to_addr v = U.logand v addr_mask

(* ------------------------------------------------------------------ *)
(* Bytewise reference engine: the original per-byte interpreter, kept  *)
(* as the differential baseline. Decodes the opcode from the raw code  *)
(* string at every step, re-reads PUSH immediates, rebuilds the        *)
(* JUMPDEST set per call frame, and charges gas per instruction.       *)
(* ------------------------------------------------------------------ *)

let rec execute_bytewise (ctx : context) ~(depth : int) ~(self : U.t)
    ~(code_addr : U.t) ~(caller : U.t) ~(callvalue : U.t)
    ~(calldata : string) ~(static : bool) : outcome =
  let code = State.code ctx.state code_addr in
  let n = String.length code in
  let valid_dests = Bytecode.jumpdests code in
  let stack : U.t list ref = ref [] in
  let mem = Memory.create () in
  let returndata = ref "" in
  let push v = stack := v :: !stack in
  let pop () =
    match !stack with
    | [] -> raise (Evm_error "stack underflow")
    | v :: rest ->
        stack := rest;
        v
  in
  let pop2 () =
    let a = pop () in
    let b = pop () in
    (a, b)
  in
  let pop3 () =
    let a = pop () in
    let b = pop () in
    let c = pop () in
    (a, b, c)
  in
  let pc = ref 0 in
  let running = ref true in
  let result = ref (Returned "") in
  while !running do
    if !pc >= n then begin
      running := false;
      result := Returned ""
    end
    else begin
      ctx.steps <- ctx.steps + 1;
      if ctx.steps > ctx.max_steps then raise (Evm_error "step limit");
      let byte = Char.code code.[!pc] in
      let op =
        match Opcode.of_byte byte with
        | Some op -> op
        | None -> Opcode.INVALID
      in
      if ctx.trace_len < ctx.max_trace then begin
        ctx.trace :=
          { t_depth = depth; t_addr = self; t_pc = !pc; t_op = op }
          :: !(ctx.trace);
        ctx.trace_len <- ctx.trace_len + 1
      end;
      charge ctx (Opcode.base_gas op);
      let next_pc = ref (!pc + 1 + Opcode.immediate_size op) in
      (match op with
      | STOP ->
          running := false;
          result := Returned ""
      | ADD -> let a, b = pop2 () in push (U.add a b)
      | MUL -> let a, b = pop2 () in push (U.mul a b)
      | SUB -> let a, b = pop2 () in push (U.sub a b)
      | DIV -> let a, b = pop2 () in push (U.div a b)
      | SDIV -> let a, b = pop2 () in push (U.sdiv a b)
      | MOD -> let a, b = pop2 () in push (U.rem a b)
      | SMOD -> let a, b = pop2 () in push (U.smod a b)
      | ADDMOD -> let a, b, m = pop3 () in push (U.addmod a b m)
      | MULMOD -> let a, b, m = pop3 () in push (U.mulmod a b m)
      | EXP -> let a, b = pop2 () in push (U.exp a b)
      | SIGNEXTEND -> let b, x = pop2 () in push (U.signextend b x)
      | LT -> let a, b = pop2 () in push (U.of_bool (U.lt a b))
      | GT -> let a, b = pop2 () in push (U.of_bool (U.gt a b))
      | SLT -> let a, b = pop2 () in push (U.of_bool (U.slt a b))
      | SGT -> let a, b = pop2 () in push (U.of_bool (U.sgt a b))
      | EQ -> let a, b = pop2 () in push (U.of_bool (U.equal a b))
      | ISZERO -> push (U.of_bool (U.is_zero (pop ())))
      | AND -> let a, b = pop2 () in push (U.logand a b)
      | OR -> let a, b = pop2 () in push (U.logor a b)
      | XOR -> let a, b = pop2 () in push (U.logxor a b)
      | NOT -> push (U.lognot (pop ()))
      | BYTE -> let i, x = pop2 () in push (U.byte i x)
      | SHL ->
          let s, v = pop2 () in
          push (if U.fits_int s then U.shift_left v (U.to_int s) else U.zero)
      | SHR ->
          let s, v = pop2 () in
          push (if U.fits_int s then U.shift_right v (U.to_int s) else U.zero)
      | SAR ->
          let s, v = pop2 () in
          push
            (if U.fits_int s then U.shift_right_arith v (U.to_int s)
             else U.shift_right_arith v 256)
      | SHA3 ->
          let off, len = pop2 () in
          let data = Memory.load_bytes mem (as_offset off) (as_offset len) in
          push (Ethainter_crypto.Keccak.hash_word data)
      | ADDRESS -> push self
      | BALANCE -> push (State.balance ctx.state (to_addr (pop ())))
      | ORIGIN -> push ctx.origin
      | CALLER -> push caller
      | CALLVALUE -> push callvalue
      | CALLDATALOAD ->
          let off = pop () in
          let v =
            match U.to_int_opt off with
            | None -> U.zero
            | Some o ->
                let len = String.length calldata in
                if o >= len then U.zero
                else
                  let avail = min 32 (len - o) in
                  let s = String.sub calldata o avail in
                  U.of_bytes (s ^ String.make (32 - avail) '\000')
          in
          push v
      | CALLDATASIZE -> push (U.of_int (String.length calldata))
      | CALLDATACOPY ->
          let dst, src, len = pop3 () in
          let dst = as_offset dst and len = as_offset len in
          let srclen = String.length calldata in
          let src = match U.to_int_opt src with Some s -> s | None -> srclen in
          let chunk =
            if src >= srclen then String.make len '\000'
            else
              let avail = min len (srclen - src) in
              String.sub calldata src avail ^ String.make (len - avail) '\000'
          in
          Memory.store_bytes mem dst chunk
      | CODESIZE -> push (U.of_int n)
      | CODECOPY ->
          let dst, src, len = pop3 () in
          let dst = as_offset dst and len = as_offset len in
          let src = match U.to_int_opt src with Some s -> s | None -> n in
          let chunk =
            if src >= n then String.make len '\000'
            else
              let avail = min len (n - src) in
              String.sub code src avail ^ String.make (len - avail) '\000'
          in
          Memory.store_bytes mem dst chunk
      | GASPRICE -> push ctx.gas_price
      | EXTCODESIZE ->
          push (U.of_int (String.length (State.code ctx.state (to_addr (pop ())))))
      | EXTCODECOPY ->
          let a = pop () in
          let dst, src, len = pop3 () in
          let ext = State.code ctx.state (to_addr a) in
          let extn = String.length ext in
          let dst = as_offset dst and len = as_offset len in
          let src = match U.to_int_opt src with Some s -> s | None -> extn in
          let chunk =
            if src >= extn then String.make len '\000'
            else
              let avail = min len (extn - src) in
              String.sub ext src avail ^ String.make (len - avail) '\000'
          in
          Memory.store_bytes mem dst chunk
      | RETURNDATASIZE -> push (U.of_int (String.length !returndata))
      | RETURNDATACOPY ->
          let dst, src, len = pop3 () in
          let dst = as_offset dst and len = as_offset len in
          let src = as_offset src in
          let rl = String.length !returndata in
          if src + len > rl then raise (Evm_error "returndatacopy OOB");
          Memory.store_bytes mem dst (String.sub !returndata src len)
      | EXTCODEHASH ->
          let a = to_addr (pop ()) in
          let c = State.code ctx.state a in
          if (not (State.exists ctx.state a)) && String.length c = 0 then
            push U.zero
          else push (Ethainter_crypto.Keccak.hash_word c)
      | BLOCKHASH ->
          let bn = pop () in
          push (Ethainter_crypto.Keccak.hash_word (U.to_bytes bn))
      | COINBASE -> push U.zero
      | TIMESTAMP -> push ctx.timestamp
      | NUMBER -> push ctx.block_number
      | DIFFICULTY -> push U.zero
      | GASLIMIT -> push (U.of_int 10_000_000)
      | CHAINID -> push ctx.chain_id
      | SELFBALANCE -> push (State.balance ctx.state self)
      | POP -> ignore (pop ())
      | MLOAD -> push (Memory.load_word mem (as_offset (pop ())))
      | MSTORE ->
          let off, v = pop2 () in
          Memory.store_word mem (as_offset off) v
      | MSTORE8 ->
          let off, v = pop2 () in
          Memory.store_byte mem (as_offset off) (U.to_int (U.logand v (U.of_int 0xff)))
      | SLOAD -> push (State.sload ctx.state self (pop ()))
      | SSTORE ->
          if static then raise (Evm_error "SSTORE in static context");
          let k, v = pop2 () in
          State.sstore ctx.state self k v;
          ctx.effects := E_sstore { es_addr = self; es_slot = k } :: !(ctx.effects)
      | JUMP ->
          let dest = pop () in
          let d = match U.to_int_opt dest with
            | Some d -> d
            | None -> raise (Evm_error "bad jump target") in
          if not (Hashtbl.mem valid_dests d) then
            raise (Evm_error "jump to non-JUMPDEST");
          next_pc := d
      | JUMPI ->
          let dest, cond = pop2 () in
          if U.to_bool cond then begin
            let d = match U.to_int_opt dest with
              | Some d -> d
              | None -> raise (Evm_error "bad jump target") in
            if not (Hashtbl.mem valid_dests d) then
              raise (Evm_error "jump to non-JUMPDEST");
            next_pc := d
          end
      | PC -> push (U.of_int !pc)
      | MSIZE -> push (U.of_int (Memory.size mem))
      | GAS -> push (U.of_int (max 0 ctx.gas))
      | JUMPDEST -> ()
      | PUSH k ->
          let avail = min k (n - !pc - 1) in
          let data =
            (if avail > 0 then String.sub code (!pc + 1) avail else "")
            ^ String.make (k - avail) '\000'
          in
          push (U.of_bytes data)
      | DUP k ->
          let rec nth l i =
            match (l, i) with
            | x :: _, 1 -> x
            | _ :: r, i -> nth r (i - 1)
            | [], _ -> raise (Evm_error "stack underflow")
          in
          push (nth !stack k)
      | SWAP k ->
          let rec split l i acc =
            match (l, i) with
            | x :: r, 0 -> (List.rev acc, x, r)
            | x :: r, i -> split r (i - 1) (x :: acc)
            | [], _ -> raise (Evm_error "stack underflow")
          in
          (match !stack with
          | top :: rest ->
              let before, v, after = split rest (k - 1) [] in
              stack := (v :: before) @ (top :: after)
          | [] -> raise (Evm_error "stack underflow"))
      | LOG k ->
          if static then raise (Evm_error "LOG in static context");
          let off, len = pop2 () in
          let topics = List.init k (fun _ -> pop ()) in
          let data =
            Memory.load_bytes mem (as_offset off) (as_offset len)
          in
          ctx.logs := { log_addr = self; topics; data } :: !(ctx.logs)
      | CREATE | CREATE2 ->
          if static then raise (Evm_error "CREATE in static context");
          let value = pop () in
          let off, len = pop2 () in
          let _salt = if op = Opcode.CREATE2 then Some (pop ()) else None in
          let initcode = Memory.load_bytes mem (as_offset off) (as_offset len) in
          if depth >= max_call_depth then push U.zero
          else begin
            let new_addr =
              State.contract_address ~creator:self
                ~nonce:(State.nonce ctx.state self)
            in
            State.bump_nonce ctx.state self;
            let mark = State.snapshot ctx.state in
            (match State.transfer ctx.state ~src:self ~dst:new_addr ~value with
            | Error _ ->
                State.commit ctx.state mark;
                push U.zero
            | Ok () -> (
                State.set_code ctx.state new_addr initcode;
                match
                  try
                    execute_bytewise ctx ~depth:(depth + 1) ~self:new_addr
                      ~code_addr:new_addr ~caller:self ~callvalue:value
                      ~calldata:"" ~static:false
                  with Evm_error msg -> Failed msg
                with
                | Returned runtime ->
                    State.set_code ctx.state new_addr runtime;
                    State.commit ctx.state mark;
                    ctx.effects := E_create new_addr :: !(ctx.effects);
                    returndata := "";
                    push new_addr
                | Reverted data ->
                    State.restore ctx.state mark;
                    returndata := data;
                    push U.zero
                | Failed _ ->
                    State.restore ctx.state mark;
                    returndata := "";
                    push U.zero))
          end
      | CALL | CALLCODE | DELEGATECALL | STATICCALL ->
          let _gas = pop () in
          let target = to_addr (pop ()) in
          let value =
            match op with
            | Opcode.CALL | Opcode.CALLCODE -> pop ()
            | _ -> U.zero
          in
          let in_off, in_len = pop2 () in
          let out_off, out_len = pop2 () in
          let args = Memory.load_bytes mem (as_offset in_off) (as_offset in_len) in
          if static && op = Opcode.CALL && not (U.is_zero value) then
            raise (Evm_error "value CALL in static context");
          if depth >= max_call_depth then push U.zero
          else begin
            let mark = State.snapshot ctx.state in
            let sub_self, sub_code, sub_caller, sub_value, sub_static =
              match op with
              | Opcode.CALL -> (target, target, self, value, static)
              | Opcode.CALLCODE -> (self, target, self, value, static)
              | Opcode.DELEGATECALL -> (self, target, caller, callvalue, static)
              | Opcode.STATICCALL -> (target, target, self, U.zero, true)
              | _ -> assert false
            in
            let transfer_res =
              if op = Opcode.CALL && not (U.is_zero value) then
                State.transfer ctx.state ~src:self ~dst:target ~value
              else Ok ()
            in
            match transfer_res with
            | Error _ ->
                State.commit ctx.state mark;
                push U.zero
            | Ok () ->
                let o =
                  if String.length (State.code ctx.state sub_code) = 0 then
                    (* calling an EOA: succeeds, returns nothing *)
                    Returned ""
                  else
                    (* a failing callee is contained: the caller sees a
                       0 result, it does not abort *)
                    try
                      execute_bytewise ctx ~depth:(depth + 1) ~self:sub_self
                        ~code_addr:sub_code ~caller:sub_caller
                        ~callvalue:sub_value ~calldata:args ~static:sub_static
                    with Evm_error msg -> Failed msg
                in
                (match o with
                | Returned data ->
                    State.commit ctx.state mark;
                    returndata := data;
                    (* NB: only min(out_len, |data|) bytes are written;
                       this is exactly the staticcall output-buffer
                       subtlety of §3.5. *)
                    let wlen = min (as_offset out_len) (String.length data) in
                    Memory.store_bytes mem (as_offset out_off)
                      (String.sub data 0 wlen);
                    push U.one
                | Reverted data ->
                    State.restore ctx.state mark;
                    returndata := data;
                    let wlen = min (as_offset out_len) (String.length data) in
                    Memory.store_bytes mem (as_offset out_off)
                      (String.sub data 0 wlen);
                    push U.zero
                | Failed _ ->
                    State.restore ctx.state mark;
                    returndata := "";
                    push U.zero)
          end
      | RETURN ->
          let off, len = pop2 () in
          running := false;
          result := Returned (Memory.load_bytes mem (as_offset off) (as_offset len))
      | REVERT ->
          let off, len = pop2 () in
          running := false;
          result := Reverted (Memory.load_bytes mem (as_offset off) (as_offset len))
      | INVALID -> raise (Evm_error "invalid opcode")
      | SELFDESTRUCT ->
          if static then raise (Evm_error "SELFDESTRUCT in static context");
          let beneficiary = to_addr (pop ()) in
          State.selfdestruct ctx.state ~victim:self ~beneficiary;
          ctx.effects := E_selfdestruct self :: !(ctx.effects);
          running := false;
          result := Returned "");
      if !running then pc := !next_pc
    end
  done;
  !result

(* ------------------------------------------------------------------ *)
(* Decoded engine: threaded dispatch over Program.t. The inner loop    *)
(* indexes a flat 256-entry handler table with the program's           *)
(* pre-extracted opcode byte — one byte load and one indirect call per *)
(* step, no variant re-dispatch. The operand stack is an array of      *)
(* frame-owned Uint256 scratch words: arithmetic runs through the      *)
(* alias-safe [_into] operations writing into the popped operand's     *)
(* slot, SWAP swaps slot pointers, DUP/PUSH blit — zero heap           *)
(* allocation per arithmetic/stack instruction. Values crossing the    *)
(* frame boundary are copied: copy-in when a shared word enters a slot *)
(* (SLOAD results, environment words, immediates), copy-out when a     *)
(* slot value escapes into long-lived structures (SSTORE keys/values,  *)
(* LOG topics). Per-block gas pre-charge with exact tail unwind on     *)
(* mid-block exit is unchanged from the match-based engine.            *)
(* ------------------------------------------------------------------ *)

(* Per-call frame: everything a handler needs, so the handler table
   can be built once per process (handlers close over nothing
   call-specific) instead of once per call or per program. *)
type frame = {
  f_ctx : context;
  f_depth : int;
  f_self : U.t;
  f_caller : U.t;
  f_callvalue : U.t;
  f_calldata : string;
  f_static : bool;
  f_p : Program.t;
  f_mem : Memory.t;
  mutable f_returndata : string;
  mutable f_stk : U.t array;  (** frame-owned scratch words *)
  mutable f_sp : int;
  mutable f_i : int;          (** current instruction index *)
  mutable f_next_bi : int;
  mutable f_running : bool;
  mutable f_result : outcome;
  mutable f_precharged : bool;
  mutable f_refunded : bool;
  mutable f_base : int;
      (** packed (frame id lsl 43) lor (depth lsl 32) for trace
          entries; -1 until the frame's first recorded entry assigns
          its id *)
}

let[@inline] need (f : frame) k =
  if f.f_sp < k then raise (Evm_error "stack underflow")

(* The slot holding the d-th value from the top (d = 1 is the top).
   Slots keep their buffer after a pop, so a handler reads its popped
   operands in place and writes the result into the deepest one. *)
let[@inline] at (f : frame) d = Array.unsafe_get f.f_stk (f.f_sp - d)

let[@inline] fpop (f : frame) =
  need f 1;
  f.f_sp <- f.f_sp - 1;
  Array.unsafe_get f.f_stk f.f_sp

(* Pushes are capacity-unchecked: each block's maximum stack growth is
   ensured once at block entry (same discipline as the match-based
   engine). *)
let[@inline] push_slot (f : frame) =
  let s = Array.unsafe_get f.f_stk f.f_sp in
  f.f_sp <- f.f_sp + 1;
  s

let[@inline] fpush_blit f v = U.blit v (push_slot f)
let[@inline] fpush_int f x = U.set_int (push_slot f) x
let[@inline] fpush_bool f b = U.set_bool (push_slot f) b
let[@inline] fpush_zero f = U.set_zero (push_slot f)

(* Growing the slot array keeps every existing buffer (they are all
   owned, including the ones above sp) and allocates fresh owned words
   for the new slots. *)
let ensure_frame_stack (f : frame) extra =
  let need = f.f_sp + extra in
  let len = Array.length f.f_stk in
  if need > len then begin
    let cap = ref (2 * len) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let a =
      Array.init !cap (fun j ->
          if j < len then Array.unsafe_get f.f_stk j else U.create ())
    in
    f.f_stk <- a
  end

(* Slot-array pool, per domain. Call frames are strictly LIFO within
   a domain, so a released array is immediately reusable by the next
   frame; stale slot contents are never observed because sp starts at
   0 and every push writes its slot before any read. Bounded by the
   maximum call depth (1024). *)
let slab_pool : U.t array list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let get_slab () =
  let pool = Domain.DLS.get slab_pool in
  match !pool with
  | [] -> Array.init 64 (fun _ -> U.create ())
  | s :: rest ->
      pool := rest;
      s

let put_slab (s : U.t array) =
  let pool = Domain.DLS.get slab_pool in
  pool := s :: !pool

(* One process-wide handler table, indexed by the canonical opcode
   byte ([Program.t.ops]). Entries are patched in below, after the
   call-family handlers (which recurse into [execute_decoded]) are
   defined; unmapped bytes keep this INVALID behaviour. *)
let handler_table : (frame -> Bytecode.instr -> unit) array =
  Array.make 256 (fun _ _ -> raise (Evm_error "invalid opcode"))

let execute_decoded (ctx : context) ~(depth : int) ~(self : U.t)
    ~(code_addr : U.t) ~(caller : U.t) ~(callvalue : U.t)
    ~(calldata : string) ~(static : bool) : outcome =
  let p = State.program ctx.state code_addr in
  let instrs = p.Program.instrs in
  let ops = p.Program.ops in
  let gas_rest = p.Program.gas_rest in
  let blocks = p.Program.blocks in
  let nblocks = Array.length blocks in
  let f =
    { f_ctx = ctx; f_depth = depth; f_self = self; f_caller = caller;
      f_callvalue = callvalue; f_calldata = calldata; f_static = static;
      f_p = p; f_mem = Memory.create (); f_returndata = "";
      f_stk = get_slab (); f_sp = 0; f_i = 0;
      f_next_bi = 0; f_running = nblocks > 0; f_result = Returned "";
      f_precharged = false; f_refunded = false; f_base = -1 }
  in
  (* the array may have been swapped for a grown one by
     [ensure_frame_stack]; whichever is current goes back to the pool,
     on normal return and on [Evm_error] alike *)
  Fun.protect ~finally:(fun () -> put_slab f.f_stk) @@ fun () ->
  let bi = ref 0 in
  while f.f_running do
    let b = Array.unsafe_get blocks !bi in
    (* Fast path: the whole block's static gas fits — charge it once.
       Gas can then never run out inside the block, and any abnormal
       mid-block exit (stack underflow, bad jump, step limit, INVALID)
       refunds the unexecuted tail so observable gas matches the
       per-instruction engine exactly. *)
    let precharged = ctx.gas >= b.Program.bb_gas in
    if precharged then ctx.gas <- ctx.gas - b.Program.bb_gas;
    f.f_precharged <- precharged;
    ensure_frame_stack f b.Program.bb_grow;
    let i_end = b.Program.bb_start + b.Program.bb_len in
    f.f_next_bi <- !bi + 1;
    f.f_i <- b.Program.bb_start;
    f.f_refunded <- false;
    (try
       while f.f_i < i_end do
         let i = f.f_i in
         let ins = Array.unsafe_get instrs i in
         ctx.steps <- ctx.steps + 1;
         if ctx.steps > ctx.max_steps then begin
           (* the reference engine checks the step limit before
              charging the instruction: unwind its cost too *)
           if precharged then begin
             ctx.gas <-
               ctx.gas + Array.unsafe_get gas_rest i
               + Opcode.base_gas ins.Bytecode.op;
             f.f_refunded <- true
           end;
           raise (Evm_error "step limit")
         end;
         let ob = Char.code (Bytes.unsafe_get ops i) in
         let k = ctx.trace_len in
         if k < ctx.max_trace then begin
           if k >= Array.length ctx.tmeta then grow_trace ctx;
           if f.f_base < 0 then begin
             (* first recorded entry of this frame: assign its id and
                record the executing address once *)
             let fid = ctx.nframes in
             ctx.nframes <- fid + 1;
             if fid >= Array.length ctx.faddr then grow_faddr ctx;
             Array.unsafe_set ctx.faddr fid self;
             f.f_base <- (fid lsl 43) lor ((depth land 0x7FF) lsl 32)
           end;
           Array.unsafe_set ctx.tmeta k
             (f.f_base lor (ob lsl 24) lor (ins.Bytecode.pc land 0xFFFFFF));
           ctx.trace_len <- k + 1
         end;
         if not precharged then charge ctx (Opcode.base_gas ins.Bytecode.op);
         (Array.unsafe_get handler_table ob) f ins;
         f.f_i <- f.f_i + 1
       done
     with Evm_error _ as e ->
       (* abnormal mid-block exit at instruction [f_i]: give back the
          pre-charged gas for the instructions that never ran *)
       if precharged && not f.f_refunded then
         ctx.gas <- ctx.gas + Array.unsafe_get gas_rest f.f_i;
       raise e);
    if f.f_running then begin
      bi := f.f_next_bi;
      if !bi >= nblocks then begin
        (* fell off the end of the code *)
        f.f_running <- false;
        f.f_result <- Returned ""
      end
    end
  done;
  f.f_result

(* ---- handlers ----
   Binary ops read the top slot [a] and the second slot [b], write the
   result into [b]'s buffer (alias-safe per the Uint256 scratch-op
   contract) and drop sp by one. Rare multi-precision ops (div, exp,
   addmod...) go through the pure API and blit. *)

let h_stop f _ =
  f.f_running <- false;
  f.f_result <- Returned ""

let h_add f _ =
  need f 2;
  let a = at f 1 and b = at f 2 in
  U.add_into b a b;
  f.f_sp <- f.f_sp - 1

let h_mul f _ =
  need f 2;
  let a = at f 1 and b = at f 2 in
  U.mul_into b a b;
  f.f_sp <- f.f_sp - 1

let h_sub f _ =
  need f 2;
  let a = at f 1 and b = at f 2 in
  U.sub_into b a b;
  f.f_sp <- f.f_sp - 1

let h_div f _ =
  need f 2;
  let a = at f 1 and b = at f 2 in
  U.blit (U.div a b) b;
  f.f_sp <- f.f_sp - 1

let h_sdiv f _ =
  need f 2;
  let a = at f 1 and b = at f 2 in
  U.blit (U.sdiv a b) b;
  f.f_sp <- f.f_sp - 1

let h_mod f _ =
  need f 2;
  let a = at f 1 and b = at f 2 in
  U.blit (U.rem a b) b;
  f.f_sp <- f.f_sp - 1

let h_smod f _ =
  need f 2;
  let a = at f 1 and b = at f 2 in
  U.blit (U.smod a b) b;
  f.f_sp <- f.f_sp - 1

let h_addmod f _ =
  need f 3;
  let a = at f 1 and b = at f 2 and m = at f 3 in
  U.blit (U.addmod a b m) m;
  f.f_sp <- f.f_sp - 2

let h_mulmod f _ =
  need f 3;
  let a = at f 1 and b = at f 2 and m = at f 3 in
  U.blit (U.mulmod a b m) m;
  f.f_sp <- f.f_sp - 2

let h_exp f _ =
  need f 2;
  let a = at f 1 and b = at f 2 in
  U.blit (U.exp a b) b;
  f.f_sp <- f.f_sp - 1

let h_signextend f _ =
  need f 2;
  let b = at f 1 and x = at f 2 in
  U.blit (U.signextend b x) x;
  f.f_sp <- f.f_sp - 1

let h_lt f _ =
  need f 2;
  let a = at f 1 and b = at f 2 in
  let r = U.lt a b in
  U.set_bool b r;
  f.f_sp <- f.f_sp - 1

let h_gt f _ =
  need f 2;
  let a = at f 1 and b = at f 2 in
  let r = U.gt a b in
  U.set_bool b r;
  f.f_sp <- f.f_sp - 1

let h_slt f _ =
  need f 2;
  let a = at f 1 and b = at f 2 in
  let r = U.slt a b in
  U.set_bool b r;
  f.f_sp <- f.f_sp - 1

let h_sgt f _ =
  need f 2;
  let a = at f 1 and b = at f 2 in
  let r = U.sgt a b in
  U.set_bool b r;
  f.f_sp <- f.f_sp - 1

let h_eq f _ =
  need f 2;
  let a = at f 1 and b = at f 2 in
  let r = U.equal a b in
  U.set_bool b r;
  f.f_sp <- f.f_sp - 1

let h_iszero f _ =
  need f 1;
  let a = at f 1 in
  let r = U.is_zero a in
  U.set_bool a r

let h_and f _ =
  need f 2;
  let a = at f 1 and b = at f 2 in
  U.logand_into b a b;
  f.f_sp <- f.f_sp - 1

let h_or f _ =
  need f 2;
  let a = at f 1 and b = at f 2 in
  U.logor_into b a b;
  f.f_sp <- f.f_sp - 1

let h_xor f _ =
  need f 2;
  let a = at f 1 and b = at f 2 in
  U.logxor_into b a b;
  f.f_sp <- f.f_sp - 1

let h_not f _ =
  need f 1;
  let a = at f 1 in
  U.lognot_into a a

let h_byte f _ =
  need f 2;
  let i = at f 1 and x = at f 2 in
  U.blit (U.byte i x) x;
  f.f_sp <- f.f_sp - 1

let h_shl f _ =
  need f 2;
  let s = at f 1 and v = at f 2 in
  if U.fits_int s then U.shift_left_into v v (U.to_int s) else U.set_zero v;
  f.f_sp <- f.f_sp - 1

let h_shr f _ =
  need f 2;
  let s = at f 1 and v = at f 2 in
  if U.fits_int s then U.shift_right_into v v (U.to_int s) else U.set_zero v;
  f.f_sp <- f.f_sp - 1

let h_sar f _ =
  need f 2;
  let s = at f 1 and v = at f 2 in
  if U.fits_int s then U.shift_right_arith_into v v (U.to_int s)
  else U.shift_right_arith_into v v 256;
  f.f_sp <- f.f_sp - 1

let h_sha3 f _ =
  need f 2;
  let off = at f 1 and len = at f 2 in
  f.f_sp <- f.f_sp - 2;
  let data = Memory.load_bytes f.f_mem (as_offset off) (as_offset len) in
  fpush_blit f (Ethainter_crypto.Keccak.hash_word data)

let h_address f _ = fpush_blit f f.f_self

let h_balance f _ =
  need f 1;
  let a = at f 1 in
  U.blit (State.balance f.f_ctx.state (to_addr a)) a

let h_origin f _ = fpush_blit f f.f_ctx.origin
let h_caller f _ = fpush_blit f f.f_caller
let h_callvalue f _ = fpush_blit f f.f_callvalue

let h_calldataload f _ =
  need f 1;
  let off = at f 1 in
  (match U.to_int_opt off with
  | None -> U.set_zero off
  | Some o -> U.load_be_padded off f.f_calldata o)

let h_calldatasize f _ = fpush_int f (String.length f.f_calldata)

let h_calldatacopy f _ =
  need f 3;
  let dst = at f 1 and src = at f 2 and len = at f 3 in
  f.f_sp <- f.f_sp - 3;
  let dst = as_offset dst and len = as_offset len in
  let srclen = String.length f.f_calldata in
  let src = match U.to_int_opt src with Some s -> s | None -> srclen in
  let chunk =
    if src >= srclen then String.make len '\000'
    else
      let avail = min len (srclen - src) in
      String.sub f.f_calldata src avail ^ String.make (len - avail) '\000'
  in
  Memory.store_bytes f.f_mem dst chunk

let h_codesize f _ = fpush_int f (String.length f.f_p.Program.code)

let h_codecopy f _ =
  need f 3;
  let dst = at f 1 and src = at f 2 and len = at f 3 in
  f.f_sp <- f.f_sp - 3;
  let code = f.f_p.Program.code in
  let n = String.length code in
  let dst = as_offset dst and len = as_offset len in
  let src = match U.to_int_opt src with Some s -> s | None -> n in
  let chunk =
    if src >= n then String.make len '\000'
    else
      let avail = min len (n - src) in
      String.sub code src avail ^ String.make (len - avail) '\000'
  in
  Memory.store_bytes f.f_mem dst chunk

let h_gasprice f _ = fpush_blit f f.f_ctx.gas_price

let h_extcodesize f _ =
  need f 1;
  let a = at f 1 in
  let n = String.length (State.code f.f_ctx.state (to_addr a)) in
  U.set_int a n

let h_extcodecopy f _ =
  need f 4;
  let a = at f 1 and dst = at f 2 and src = at f 3 and len = at f 4 in
  f.f_sp <- f.f_sp - 4;
  let ext = State.code f.f_ctx.state (to_addr a) in
  let extn = String.length ext in
  let dst = as_offset dst and len = as_offset len in
  let src = match U.to_int_opt src with Some s -> s | None -> extn in
  let chunk =
    if src >= extn then String.make len '\000'
    else
      let avail = min len (extn - src) in
      String.sub ext src avail ^ String.make (len - avail) '\000'
  in
  Memory.store_bytes f.f_mem dst chunk

let h_returndatasize f _ = fpush_int f (String.length f.f_returndata)

let h_returndatacopy f _ =
  need f 3;
  let dst = at f 1 and src = at f 2 and len = at f 3 in
  f.f_sp <- f.f_sp - 3;
  let dst = as_offset dst and len = as_offset len in
  let src = as_offset src in
  let rl = String.length f.f_returndata in
  if src + len > rl then raise (Evm_error "returndatacopy OOB");
  Memory.store_bytes f.f_mem dst (String.sub f.f_returndata src len)

let h_extcodehash f _ =
  need f 1;
  let slot = at f 1 in
  let a = to_addr slot in
  let c = State.code f.f_ctx.state a in
  if (not (State.exists f.f_ctx.state a)) && String.length c = 0 then
    U.set_zero slot
  else U.blit (Ethainter_crypto.Keccak.hash_word c) slot

let h_blockhash f _ =
  need f 1;
  let bn = at f 1 in
  U.blit (Ethainter_crypto.Keccak.hash_word (U.to_bytes bn)) bn

let h_coinbase f _ = fpush_zero f
let h_timestamp f _ = fpush_blit f f.f_ctx.timestamp
let h_number f _ = fpush_blit f f.f_ctx.block_number
let h_difficulty f _ = fpush_zero f
let h_gaslimit f _ = fpush_int f 10_000_000
let h_chainid f _ = fpush_blit f f.f_ctx.chain_id
let h_selfbalance f _ = fpush_blit f (State.balance f.f_ctx.state f.f_self)

let h_pop f _ =
  need f 1;
  f.f_sp <- f.f_sp - 1

let h_mload f _ =
  need f 1;
  let s = at f 1 in
  let o = as_offset s in
  Memory.load_word_into f.f_mem o s

let h_mstore f _ =
  need f 2;
  let off = at f 1 and v = at f 2 in
  f.f_sp <- f.f_sp - 2;
  Memory.store_word_from f.f_mem (as_offset off) v

let h_mstore8 f _ =
  need f 2;
  let off = at f 1 and v = at f 2 in
  f.f_sp <- f.f_sp - 2;
  Memory.store_byte f.f_mem (as_offset off) (U.to_int (U.byte (U.of_int 31) v))

let h_sload f _ =
  need f 1;
  let s = at f 1 in
  U.blit (State.sload f.f_ctx.state f.f_self s) s

let h_sstore f _ =
  if f.f_static then raise (Evm_error "SSTORE in static context");
  need f 2;
  (* the slot buffers get reused; the stored key/value escape this
     frame, so they are copied out (the effect shares the key copy) *)
  let k = U.copy (at f 1) and v = U.copy (at f 2) in
  f.f_sp <- f.f_sp - 2;
  State.sstore f.f_ctx.state f.f_self k v;
  f.f_ctx.effects :=
    E_sstore { es_addr = f.f_self; es_slot = k } :: !(f.f_ctx.effects)

let h_jump f _ =
  let dest = fpop f in
  let d =
    match U.to_int_opt dest with
    | Some d -> d
    | None -> raise (Evm_error "bad jump target")
  in
  if not (Program.is_jumpdest f.f_p d) then
    raise (Evm_error "jump to non-JUMPDEST");
  f.f_next_bi <- Array.unsafe_get f.f_p.Program.block_at_pc d

let h_jumpi f _ =
  need f 2;
  let dest = at f 1 and cond = at f 2 in
  f.f_sp <- f.f_sp - 2;
  if U.to_bool cond then begin
    let d =
      match U.to_int_opt dest with
      | Some d -> d
      | None -> raise (Evm_error "bad jump target")
    in
    if not (Program.is_jumpdest f.f_p d) then
      raise (Evm_error "jump to non-JUMPDEST");
    f.f_next_bi <- Array.unsafe_get f.f_p.Program.block_at_pc d
  end

let h_pc f (ins : Bytecode.instr) = fpush_int f ins.Bytecode.pc
let h_msize f _ = fpush_int f (Memory.size f.f_mem)

let h_gas f _ =
  (* the block was pre-charged in one go: add back the static cost of
     the instructions after this one so the observable value matches
     per-instruction charging *)
  let g =
    if f.f_precharged then
      f.f_ctx.gas + Array.unsafe_get f.f_p.Program.gas_rest f.f_i
    else f.f_ctx.gas
  in
  fpush_int f (max 0 g)

let h_jumpdest _ _ = ()

let h_push f (ins : Bytecode.instr) =
  fpush_blit f (match ins.Bytecode.imm with Some v -> v | None -> U.zero)

let h_dup k f _ =
  need f k;
  fpush_blit f (at f k)

let h_swap k f _ =
  need f (k + 1);
  let a = f.f_stk in
  let top = f.f_sp - 1 in
  let t = Array.unsafe_get a top in
  Array.unsafe_set a top (Array.unsafe_get a (top - k));
  Array.unsafe_set a (top - k) t

let h_log k f _ =
  if f.f_static then raise (Evm_error "LOG in static context");
  need f 2;
  let off = at f 1 and len = at f 2 in
  f.f_sp <- f.f_sp - 2;
  let topics = List.init k (fun _ -> U.copy (fpop f)) in
  let data = Memory.load_bytes f.f_mem (as_offset off) (as_offset len) in
  f.f_ctx.logs :=
    { log_addr = f.f_self; topics; data } :: !(f.f_ctx.logs)

let h_create is_create2 f _ =
  let ctx = f.f_ctx in
  if f.f_static then raise (Evm_error "CREATE in static context");
  (* [value] survives past pushes that reuse its slot (callee frames
     copy it on CALLVALUE, but the transfer below happens after more
     pops): copy it out *)
  let value = U.copy (fpop f) in
  let off = fpop f in
  let len = fpop f in
  let _salt = if is_create2 then Some (fpop f) else None in
  let initcode = Memory.load_bytes f.f_mem (as_offset off) (as_offset len) in
  if f.f_depth >= max_call_depth then fpush_zero f
  else begin
    let new_addr =
      State.contract_address ~creator:f.f_self
        ~nonce:(State.nonce ctx.state f.f_self)
    in
    State.bump_nonce ctx.state f.f_self;
    let mark = State.snapshot ctx.state in
    match State.transfer ctx.state ~src:f.f_self ~dst:new_addr ~value with
    | Error _ ->
        State.commit ctx.state mark;
        fpush_zero f
    | Ok () -> (
        State.set_code ctx.state new_addr initcode;
        match
          try
            execute_decoded ctx ~depth:(f.f_depth + 1) ~self:new_addr
              ~code_addr:new_addr ~caller:f.f_self ~callvalue:value
              ~calldata:"" ~static:false
          with Evm_error msg -> Failed msg
        with
        | Returned runtime ->
            State.set_code ctx.state new_addr runtime;
            State.commit ctx.state mark;
            ctx.effects := E_create new_addr :: !(ctx.effects);
            f.f_returndata <- "";
            fpush_blit f new_addr
        | Reverted data ->
            State.restore ctx.state mark;
            f.f_returndata <- data;
            fpush_zero f
        | Failed _ ->
            State.restore ctx.state mark;
            f.f_returndata <- "";
            fpush_zero f)
  end

let h_call (opv : Opcode.t) f _ =
  let ctx = f.f_ctx in
  let _gas = fpop f in
  let target = to_addr (fpop f) in
  let value =
    match opv with
    | Opcode.CALL | Opcode.CALLCODE -> U.copy (fpop f)
    | _ -> U.zero
  in
  let in_off = fpop f in
  let in_len = fpop f in
  let out_off = fpop f in
  let out_len = fpop f in
  let args = Memory.load_bytes f.f_mem (as_offset in_off) (as_offset in_len) in
  if f.f_static && opv = Opcode.CALL && not (U.is_zero value) then
    raise (Evm_error "value CALL in static context");
  if f.f_depth >= max_call_depth then fpush_zero f
  else begin
    let mark = State.snapshot ctx.state in
    let sub_self, sub_code, sub_caller, sub_value, sub_static =
      match opv with
      | Opcode.CALL -> (target, target, f.f_self, value, f.f_static)
      | Opcode.CALLCODE -> (f.f_self, target, f.f_self, value, f.f_static)
      | Opcode.DELEGATECALL ->
          (f.f_self, target, f.f_caller, f.f_callvalue, f.f_static)
      | Opcode.STATICCALL -> (target, target, f.f_self, U.zero, true)
      | _ -> assert false
    in
    let transfer_res =
      if opv = Opcode.CALL && not (U.is_zero value) then
        State.transfer ctx.state ~src:f.f_self ~dst:target ~value
      else Ok ()
    in
    match transfer_res with
    | Error _ ->
        State.commit ctx.state mark;
        fpush_zero f
    | Ok () -> (
        let o =
          if String.length (State.code ctx.state sub_code) = 0 then
            (* calling an EOA: succeeds, returns nothing *)
            Returned ""
          else
            (* a failing callee is contained: the caller sees a 0
               result, it does not abort *)
            try
              execute_decoded ctx ~depth:(f.f_depth + 1) ~self:sub_self
                ~code_addr:sub_code ~caller:sub_caller ~callvalue:sub_value
                ~calldata:args ~static:sub_static
            with Evm_error msg -> Failed msg
        in
        match o with
        | Returned data ->
            State.commit ctx.state mark;
            f.f_returndata <- data;
            (* NB: only min(out_len, |data|) bytes are written; this
               is exactly the staticcall output-buffer subtlety of
               §3.5. *)
            let wlen = min (as_offset out_len) (String.length data) in
            Memory.store_bytes f.f_mem (as_offset out_off)
              (String.sub data 0 wlen);
            fpush_bool f true
        | Reverted data ->
            State.restore ctx.state mark;
            f.f_returndata <- data;
            let wlen = min (as_offset out_len) (String.length data) in
            Memory.store_bytes f.f_mem (as_offset out_off)
              (String.sub data 0 wlen);
            fpush_zero f
        | Failed _ ->
            State.restore ctx.state mark;
            f.f_returndata <- "";
            fpush_zero f)
  end

let h_return f _ =
  need f 2;
  let off = at f 1 and len = at f 2 in
  f.f_sp <- f.f_sp - 2;
  f.f_running <- false;
  f.f_result <-
    Returned (Memory.load_bytes f.f_mem (as_offset off) (as_offset len))

let h_revert f _ =
  need f 2;
  let off = at f 1 and len = at f 2 in
  f.f_sp <- f.f_sp - 2;
  f.f_running <- false;
  f.f_result <-
    Reverted (Memory.load_bytes f.f_mem (as_offset off) (as_offset len))

let h_selfdestruct f _ =
  if f.f_static then raise (Evm_error "SELFDESTRUCT in static context");
  let beneficiary = to_addr (fpop f) in
  State.selfdestruct f.f_ctx.state ~victim:f.f_self ~beneficiary;
  f.f_ctx.effects := E_selfdestruct f.f_self :: !(f.f_ctx.effects);
  f.f_running <- false;
  f.f_result <- Returned ""

(* Patch the table. Indexes are the canonical Opcode.to_byte values;
   PUSH/DUP/SWAP/LOG get one specialized closure per byte (the width
   baked in), so no per-step variant scrutiny remains anywhere. *)
let () =
  let t = handler_table in
  t.(0x00) <- h_stop;
  t.(0x01) <- h_add;
  t.(0x02) <- h_mul;
  t.(0x03) <- h_sub;
  t.(0x04) <- h_div;
  t.(0x05) <- h_sdiv;
  t.(0x06) <- h_mod;
  t.(0x07) <- h_smod;
  t.(0x08) <- h_addmod;
  t.(0x09) <- h_mulmod;
  t.(0x0a) <- h_exp;
  t.(0x0b) <- h_signextend;
  t.(0x10) <- h_lt;
  t.(0x11) <- h_gt;
  t.(0x12) <- h_slt;
  t.(0x13) <- h_sgt;
  t.(0x14) <- h_eq;
  t.(0x15) <- h_iszero;
  t.(0x16) <- h_and;
  t.(0x17) <- h_or;
  t.(0x18) <- h_xor;
  t.(0x19) <- h_not;
  t.(0x1a) <- h_byte;
  t.(0x1b) <- h_shl;
  t.(0x1c) <- h_shr;
  t.(0x1d) <- h_sar;
  t.(0x20) <- h_sha3;
  t.(0x30) <- h_address;
  t.(0x31) <- h_balance;
  t.(0x32) <- h_origin;
  t.(0x33) <- h_caller;
  t.(0x34) <- h_callvalue;
  t.(0x35) <- h_calldataload;
  t.(0x36) <- h_calldatasize;
  t.(0x37) <- h_calldatacopy;
  t.(0x38) <- h_codesize;
  t.(0x39) <- h_codecopy;
  t.(0x3a) <- h_gasprice;
  t.(0x3b) <- h_extcodesize;
  t.(0x3c) <- h_extcodecopy;
  t.(0x3d) <- h_returndatasize;
  t.(0x3e) <- h_returndatacopy;
  t.(0x3f) <- h_extcodehash;
  t.(0x40) <- h_blockhash;
  t.(0x41) <- h_coinbase;
  t.(0x42) <- h_timestamp;
  t.(0x43) <- h_number;
  t.(0x44) <- h_difficulty;
  t.(0x45) <- h_gaslimit;
  t.(0x46) <- h_chainid;
  t.(0x47) <- h_selfbalance;
  t.(0x50) <- h_pop;
  t.(0x51) <- h_mload;
  t.(0x52) <- h_mstore;
  t.(0x53) <- h_mstore8;
  t.(0x54) <- h_sload;
  t.(0x55) <- h_sstore;
  t.(0x56) <- h_jump;
  t.(0x57) <- h_jumpi;
  t.(0x58) <- h_pc;
  t.(0x59) <- h_msize;
  t.(0x5a) <- h_gas;
  t.(0x5b) <- h_jumpdest;
  for b = 0x60 to 0x7f do
    t.(b) <- h_push
  done;
  for k = 1 to 16 do
    t.(0x7f + k) <- h_dup k;
    t.(0x8f + k) <- h_swap k
  done;
  for k = 0 to 4 do
    t.(0xa0 + k) <- h_log k
  done;
  t.(0xf0) <- h_create false;
  t.(0xf5) <- h_create true;
  t.(0xf1) <- h_call Opcode.CALL;
  t.(0xf2) <- h_call Opcode.CALLCODE;
  t.(0xf4) <- h_call Opcode.DELEGATECALL;
  t.(0xfa) <- h_call Opcode.STATICCALL;
  t.(0xf3) <- h_return;
  t.(0xfd) <- h_revert;
  t.(0xff) <- h_selfdestruct
(* 0xfe (INVALID) and every unknown byte keep the table default. *)

(** Full result of a top-level message call. *)
type call_result = {
  outcome : outcome;
  tx_trace : trace_entry list;
      (** executed instructions, oldest first; empty unless the call
          was made with [~trace:true] *)
  tx_logs : log_entry list;  (** emitted events (empty if rolled back) *)
  tx_effects : effect list;
      (** chain-observable effects, chronological (empty if rolled
          back); see {!effect} for the inner-revert caveat *)
  gas_used : int;
}

(** Top-level message call (a transaction's execution). Rolls back all
    state changes — and drops emitted logs — if the call reverts or
    fails, or if an exception escapes it. [engine] selects the executor
    (default {!Decoded}); both engines produce identical results, bit
    for bit. [trace] (default [false]) records the per-instruction
    trace; untraced execution stores nothing per step. *)
let call_full ?(engine = Decoded) ?(trace = false) ?(gas = 10_000_000)
    ?(max_steps = 2_000_000) ?(block_number = U.of_int 1)
    ?(timestamp = U.of_int 1_600_000_000) (state : State.t) ~(caller : U.t)
    ~(target : U.t) ~(value : U.t) ~(calldata : string) : call_result =
  let ctx =
    { state; gas; origin = caller; gas_price = U.one; block_number;
      timestamp; chain_id = U.of_int 3 (* Ropsten *);
      trace = ref []; tmeta = [||]; faddr = [||]; nframes = 0;
      trace_len = 0; max_trace = (if trace then 1_000_000 else 0);
      steps = 0; max_steps; logs = ref []; effects = ref [] }
  in
  let mark = State.snapshot state in
  let outcome =
    try
      ignore (State.transfer state ~src:caller ~dst:target ~value);
      if String.length (State.code state target) = 0 then Returned ""
      else
        try
          match engine with
          | Decoded ->
              execute_decoded ctx ~depth:0 ~self:target ~code_addr:target
                ~caller ~callvalue:value ~calldata ~static:false
          | Bytewise ->
              execute_bytewise ctx ~depth:0 ~self:target ~code_addr:target
                ~caller ~callvalue:value ~calldata ~static:false
        with Evm_error msg -> Failed msg
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      State.restore state mark;
      Printexc.raise_with_backtrace e bt
  in
  let logs, effects =
    match outcome with
    | Returned _ ->
        State.commit state mark;
        (List.rev !(ctx.logs), List.rev !(ctx.effects))
    | Reverted _ | Failed _ ->
        State.restore state mark;
        ([], [])
  in
  let tx_trace =
    match engine with
    | Bytewise -> List.rev !(ctx.trace)
    | Decoded ->
        (* reconstruct the same chronological list from the packed
           buffer (built back-to-front so each entry conses once);
           ops come back as the shared [Opcode.decode_table] values —
           structurally identical to the instruction stream's *)
        let rec build k acc =
          if k < 0 then acc
          else
            let m = Array.unsafe_get ctx.tmeta k in
            build (k - 1)
              ({ t_depth = (m lsr 32) land 0x7FF;
                 t_addr = Array.unsafe_get ctx.faddr (m lsr 43);
                 t_pc = m land 0xFFFFFF;
                 t_op = Opcode.of_byte_total (m lsr 24) }
              :: acc)
        in
        build (ctx.trace_len - 1) []
  in
  { outcome; tx_trace; tx_logs = logs; tx_effects = effects;
    gas_used = max 0 (gas - ctx.gas) }
