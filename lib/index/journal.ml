(* Write-ahead journal for the streaming index. See journal.mli for
   the design and the crash-safety contract. *)

module U = Ethainter_word.Uint256
module P = Ethainter_core.Pipeline
module Fault = Ethainter_runtime.Fault

(* ---------------- record framing ---------------- *)

(* Same discipline as the serving stack's Frame codec (magic, version,
   kind, big-endian length, FNV-64 digest over everything but the
   magic), with its own magic: journal files are not wire frames and
   must never be confused with them. *)

let magic = "ETJR"

(* 2 = block records lost their storage-write list and verdict
   payloads their [deps] line. [recover] refuses a directory written
   at another version rather than reading it as corrupt. *)
let version = 2
let header_size = 18 (* 4 magic + 1 version + 1 kind + 4 len + 8 digest *)
let max_payload = 64 * 1024 * 1024

let fnv_prime = 0x100000001b3
let fnv_seed = 0x3bf29ce484222325

let digest ~kind ~len payload =
  let h = ref fnv_seed in
  let step b = h := (!h lxor b) * fnv_prime in
  step version;
  step (Char.code kind);
  step ((len lsr 24) land 0xff);
  step ((len lsr 16) land 0xff);
  step ((len lsr 8) land 0xff);
  step (len land 0xff);
  for i = 0 to String.length payload - 1 do
    step (Char.code (String.unsafe_get payload i))
  done;
  !h

let encode_record ~kind payload =
  let len = String.length payload in
  if len > max_payload then invalid_arg "Journal: record too large";
  let b = Bytes.create (header_size + len) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set b 4 (Char.chr version);
  Bytes.set b 5 kind;
  Bytes.set_int32_be b 6 (Int32.of_int len);
  Bytes.set_int64_be b 10 (Int64.of_int (digest ~kind ~len payload));
  Bytes.blit_string payload 0 b header_size len;
  Bytes.unsafe_to_string b

(* Decode the record at [pos]. [None] means the bytes from [pos] on are
   not a valid record — a torn tail, garbage, or silence; the caller
   stops replaying there. *)
let decode_record buf ~pos : (char * string * int) option =
  if pos + header_size > String.length buf then None
  else if String.sub buf pos 4 <> magic then None
  else if Char.code buf.[pos + 4] <> version then None
  else
    let kind = buf.[pos + 5] in
    let len = Int32.to_int (String.get_int32_be buf (pos + 6)) in
    if len < 0 || len > max_payload then None
    else if pos + header_size + len > String.length buf then None
    else
      let dg = Int64.to_int (String.get_int64_be buf (pos + 10)) in
      let payload = String.sub buf (pos + header_size) len in
      if dg <> digest ~kind ~len payload then None
      else Some (kind, payload, header_size + len)

(* ---------------- journaled state ---------------- *)

type obs = {
  o_number : int;
  o_deployed : (U.t * string) list;
  o_destroyed : U.t list;
}

type event =
  | Ev_block of obs
  | Ev_verdict of {
      ev_addr : U.t;
      ev_indexed_block : int;
      ev_runs : int;
      ev_result : P.result;
    }

type entry_state =
  | S_pending
  | S_indexed of P.result * int
  | S_destroyed

type entry = {
  e_addr : U.t;
  e_code : string;
  e_deployed_block : int;
  e_queued_block : int;
  e_runs : int;
  e_state : entry_state;
}

type snapshot = { s_cursor : int; s_entries : entry list }

(* ---------------- payload codecs ---------------- *)

(* Line-oriented text with length-prefixed raw blobs, like the proto /
   telemetry codecs. The framing digest already guarantees integrity;
   these parsers only need to be total (raise Parse, caught into
   None). *)

exception Parse

let kind_block = 'B'
let kind_verdict = 'V'
let kind_checkpoint = 'K'

let addr_hex = U.to_hex

let addr_of s = try U.of_hex s with _ -> raise Parse

let int_of s = match int_of_string_opt s with Some n -> n | None -> raise Parse

let bline b fmt = Printf.ksprintf (fun s -> Buffer.add_string b s;
                                            Buffer.add_char b '\n') fmt

let bblob b s =
  Buffer.add_string b s;
  Buffer.add_char b '\n'

let line buf pos =
  match String.index_from_opt buf !pos '\n' with
  | None -> raise Parse
  | Some i ->
      let l = String.sub buf !pos (i - !pos) in
      pos := i + 1;
      l

let blob buf pos n =
  if n < 0 || !pos + n >= String.length buf then raise Parse;
  let s = String.sub buf !pos n in
  if buf.[!pos + n] <> '\n' then raise Parse;
  pos := !pos + n + 1;
  s

let words l = String.split_on_char ' ' l

let encode_block (o : obs) : string =
  let b = Buffer.create 256 in
  bline b "block %d %d %d" o.o_number
    (List.length o.o_deployed) (List.length o.o_destroyed);
  List.iter
    (fun (a, code) ->
      bline b "d %s %d" (addr_hex a) (String.length code);
      bblob b code)
    o.o_deployed;
  List.iter (fun a -> bline b "k %s" (addr_hex a)) o.o_destroyed;
  Buffer.contents b

let decode_block buf : obs =
  let pos = ref 0 in
  let nd, nk, number =
    match words (line buf pos) with
    | [ "block"; n; d; k ] -> (int_of d, int_of k, int_of n)
    | _ -> raise Parse
  in
  let deployed =
    List.init nd (fun _ ->
        match words (line buf pos) with
        | [ "d"; a; len ] -> (addr_of a, blob buf pos (int_of len))
        | _ -> raise Parse)
  in
  let killed =
    List.init nk (fun _ ->
        match words (line buf pos) with
        | [ "k"; a ] -> addr_of a
        | _ -> raise Parse)
  in
  { o_number = number; o_deployed = deployed; o_destroyed = killed }

let encode_verdict ~addr ~indexed_block ~runs ~(result : P.result) : string =
  let b = Buffer.create 256 in
  let payload = P.encode_result result in
  bline b "verdict %s %d %d %d" (addr_hex addr) indexed_block runs
    (String.length payload);
  bblob b payload;
  Buffer.contents b

let decode_verdict buf : event =
  let pos = ref 0 in
  match words (line buf pos) with
  | [ "verdict"; a; ib; runs; len ] -> (
      let raw = blob buf pos (int_of len) in
      match P.decode_result raw with
      | None -> raise Parse
      | Some r ->
          Ev_verdict
            { ev_addr = addr_of a; ev_indexed_block = int_of ib;
              ev_runs = int_of runs; ev_result = r })
  | _ -> raise Parse

let ckpt_magic = "ethainter.index.ckpt.v1"

let encode_snapshot (s : snapshot) : string =
  let b = Buffer.create 4096 in
  bline b "%s" ckpt_magic;
  bline b "cursor %d" s.s_cursor;
  bline b "entries %d" (List.length s.s_entries);
  List.iter
    (fun e ->
      (match e.e_state with
      | S_pending ->
          bline b "e %s %d %d %d pending" (addr_hex e.e_addr)
            e.e_deployed_block e.e_queued_block e.e_runs
      | S_destroyed ->
          bline b "e %s %d %d %d destroyed" (addr_hex e.e_addr)
            e.e_deployed_block e.e_queued_block e.e_runs
      | S_indexed (_, ib) ->
          bline b "e %s %d %d %d indexed %d" (addr_hex e.e_addr)
            e.e_deployed_block e.e_queued_block e.e_runs ib);
      bline b "code %d" (String.length e.e_code);
      bblob b e.e_code;
      match e.e_state with
      | S_indexed (r, _) ->
          let raw = P.encode_result r in
          bline b "result %d" (String.length raw);
          bblob b raw
      | S_pending | S_destroyed -> ())
    s.s_entries;
  Buffer.contents b

let decode_snapshot buf : snapshot =
  let pos = ref 0 in
  if line buf pos <> ckpt_magic then raise Parse;
  let cursor =
    match words (line buf pos) with
    | [ "cursor"; n ] -> int_of n
    | _ -> raise Parse
  in
  let n =
    match words (line buf pos) with
    | [ "entries"; n ] -> int_of n
    | _ -> raise Parse
  in
  let entries =
    List.init n (fun _ ->
        let addr, deployed, queued, runs, state =
          match words (line buf pos) with
          | [ "e"; a; d; q; r; "pending" ] ->
              (addr_of a, int_of d, int_of q, int_of r, `Pending)
          | [ "e"; a; d; q; r; "destroyed" ] ->
              (addr_of a, int_of d, int_of q, int_of r, `Destroyed)
          | [ "e"; a; d; q; r; "indexed"; ib ] ->
              (addr_of a, int_of d, int_of q, int_of r, `Indexed (int_of ib))
          | _ -> raise Parse
        in
        let code =
          match words (line buf pos) with
          | [ "code"; len ] -> blob buf pos (int_of len)
          | _ -> raise Parse
        in
        let state =
          match state with
          | `Pending -> S_pending
          | `Destroyed -> S_destroyed
          | `Indexed ib -> (
              match words (line buf pos) with
              | [ "result"; len ] -> (
                  match P.decode_result (blob buf pos (int_of len)) with
                  | Some r -> S_indexed (r, ib)
                  | None -> raise Parse)
              | _ -> raise Parse)
        in
        { e_addr = addr; e_code = code; e_deployed_block = deployed;
          e_queued_block = queued; e_runs = runs; e_state = state })
  in
  { s_cursor = cursor; s_entries = entries }

let encode_event = function
  | Ev_block o -> (kind_block, encode_block o)
  | Ev_verdict { ev_addr; ev_indexed_block; ev_runs; ev_result } ->
      ( kind_verdict,
        encode_verdict ~addr:ev_addr ~indexed_block:ev_indexed_block
          ~runs:ev_runs ~result:ev_result )

let decode_event kind payload : event option =
  try
    if kind = kind_block then Some (Ev_block (decode_block payload))
    else if kind = kind_verdict then Some (decode_verdict payload)
    else None (* valid frame, unknown kind: forward compatibility *)
  with Parse -> None

(* ---------------- file layout ---------------- *)

(* Generation [g]: checkpoint [ckpt-g] captures state through some
   point; [wal-g] holds the records appended after it. Generation 0
   has no checkpoint (the pre-first-checkpoint journal). Retention
   keeps generations [g] and [g-1]: the older pair is the fallback
   when the newest checkpoint is corrupt. *)

let ckpt_path dir seq = Filename.concat dir (Printf.sprintf "ckpt-%09d.ethj" seq)
let wal_path dir seq = Filename.concat dir (Printf.sprintf "wal-%09d.ethj" seq)

let parse_name name =
  let num prefix =
    let plen = String.length prefix in
    if String.length name = plen + 14
       && String.sub name 0 plen = prefix
       && Filename.check_suffix name ".ethj"
    then int_of_string_opt (String.sub name plen 9)
    else None
  in
  match num "ckpt-" with
  | Some n -> Some (`Ckpt n)
  | None -> ( match num "wal-" with Some n -> Some (`Wal n) | None -> None)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len
    | n -> write_all fd s (off + n) (len - n)

(* Directory fsync makes the rename/creat durable against power loss.
   Some filesystems refuse fsync on a directory fd; degrading silently
   is correct — the guarantee lost is power-loss durability of the
   very newest generation, which recovery already tolerates. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception _ -> ()
  | fd ->
      (try Unix.fsync fd with _ -> ());
      (try Unix.close fd with _ -> ())

let rm path = try Sys.remove path with _ -> ()

(* ---------------- writer ---------------- *)

type t = {
  dir : string;
  mutable gen : int;            (* generation of the open wal file *)
  mutable fd : Unix.file_descr;
  mutable bytes : int;          (* bytes in the current wal file *)
  mutable appends : int;
  mutable checkpoints : int;
  mutable closed : bool;
}

let wal_bytes t = t.bytes

let stats t =
  [ ("journal_appends", float_of_int t.appends);
    ("journal_checkpoints", float_of_int t.checkpoints);
    ("journal_generation", float_of_int t.gen);
    ("journal_wal_bytes", float_of_int t.bytes) ]

let append t ev =
  if t.closed then invalid_arg "Journal.append: closed";
  let kind, payload = encode_event ev in
  let record = encode_record ~kind payload in
  (* the two crash sites bracket the write: a chaos run exercises both
     "record lost" and "record durable, everything after lost" *)
  Fault.crash_site ();
  (match Fault.torn record with
  | Some prefix ->
      write_all t.fd prefix 0 (String.length prefix);
      raise (Fault.Crashed "torn journal write")
  | None -> write_all t.fd record 0 (String.length record));
  t.bytes <- t.bytes + String.length record;
  t.appends <- t.appends + 1;
  Fault.crash_site ()

let checkpoint t snap =
  if t.closed then invalid_arg "Journal.checkpoint: closed";
  let seq = t.gen + 1 in
  let record = encode_record ~kind:kind_checkpoint (encode_snapshot snap) in
  Fault.crash_site ();
  (* write-fsync-rename: the checkpoint appears atomically, and is on
     stable storage before its name exists *)
  let tmp = Filename.concat t.dir (Printf.sprintf ".ckpt-%09d.tmp" seq) in
  let fd =
    Unix.openfile tmp
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      write_all fd record 0 (String.length record);
      Unix.fsync fd);
  Sys.rename tmp (ckpt_path t.dir seq);
  Fault.crash_site ();
  (* rotate the journal *)
  let wal =
    Unix.openfile (wal_path t.dir seq)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  (try Unix.close t.fd with _ -> ());
  t.fd <- wal;
  t.gen <- seq;
  t.bytes <- 0;
  t.checkpoints <- t.checkpoints + 1;
  fsync_dir t.dir;
  (* prune: keep generations [seq] and [seq-1] *)
  for old = 0 to seq - 2 do
    rm (ckpt_path t.dir old);
    rm (wal_path t.dir old)
  done

let close t snap =
  if not t.closed then begin
    checkpoint t snap;
    t.closed <- true;
    try Unix.close t.fd with _ -> ()
  end

(* ---------------- recovery ---------------- *)

type recovery = {
  r_snapshot : snapshot option;
  r_events : event list;
  r_checkpoint_fallback : bool;
  r_torn_tail : bool;
}

let load_checkpoint dir seq : snapshot option =
  match read_file (ckpt_path dir seq) with
  | exception _ -> None
  | buf -> (
      match decode_record buf ~pos:0 with
      | Some (k, payload, _) when k = kind_checkpoint -> (
          try Some (decode_snapshot payload) with Parse -> None)
      | _ -> None)

(* The format version in a file's first record header: [None] when
   the file is too short or lacks the magic (empty, torn, garbage —
   the corruption paths of [recover] handle those). *)
let file_version path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic 5 with
          | h when String.sub h 0 4 = magic -> Some (Char.code h.[4])
          | _ -> None
          | exception End_of_file -> None)

let recover ~dir : t * recovery =
  mkdir_p dir;
  let names = try Sys.readdir dir with _ -> [||] in
  (* a directory of another format version is refused before any file
     is deleted or truncated: read as corrupt, it would be wiped *)
  Array.iter
    (fun name ->
      if parse_name name <> None then
        match file_version (Filename.concat dir name) with
        | Some v when v <> version ->
            failwith
              (Printf.sprintf
                 "Journal.recover: %s holds journal format version %d; \
                  this build reads version %d only"
                 dir v version)
        | _ -> ())
    names;
  let ckpts = ref [] and wals = ref [] in
  Array.iter
    (fun name ->
      match parse_name name with
      | Some (`Ckpt n) -> ckpts := n :: !ckpts
      | Some (`Wal n) -> wals := n :: !wals
      | None ->
          (* stale checkpoint temp files from a crashed writer *)
          if String.length name > 1 && name.[0] = '.' then
            rm (Filename.concat dir name))
    names;
  let ckpts = List.sort (fun a b -> compare b a) !ckpts in
  let wals = List.sort compare !wals in
  (* newest checkpoint that validates wins; corrupt ones are deleted
     so they cannot shadow the good generation again *)
  let rec pick fallback = function
    | [] -> (None, fallback)
    | seq :: rest -> (
        match load_checkpoint dir seq with
        | Some snap -> (Some (seq, snap), fallback)
        | None ->
            rm (ckpt_path dir seq);
            pick true rest)
  in
  let chosen, fallback = pick false ckpts in
  let base = match chosen with Some (s, _) -> s | None -> 0 in
  (* journals to replay: the contiguous run of generations starting at
     the chosen checkpoint. Anything older is pruned; anything past a
     gap (or past a corrupt record, below) is causally after lost
     history and must not be replayed. *)
  let replayable, stale =
    List.partition (fun s -> s >= base) wals
  in
  List.iter (fun s -> rm (wal_path dir s)) stale;
  let rec contiguous next = function
    | s :: rest when s = next -> s :: contiguous (s + 1) rest
    | rest ->
        List.iter (fun s -> rm (wal_path dir s)) rest;
        []
  in
  let replayable = contiguous base replayable in
  let events = ref [] in
  let torn = ref false in
  let target = ref None in
  let rec replay = function
    | [] -> ()
    | seq :: rest ->
        let buf = try read_file (wal_path dir seq) with _ -> "" in
        let pos = ref 0 in
        let stop = ref false in
        while (not !stop) && !pos < String.length buf do
          match decode_record buf ~pos:!pos with
          | Some (kind, payload, consumed) ->
              (match decode_event kind payload with
              | Some ev -> events := ev :: !events
              | None -> ());
              pos := !pos + consumed
          | None ->
              stop := true;
              torn := true
        done;
        target := Some (seq, !pos);
        if !stop then
          (* records after a torn/corrupt point are unreachable
             history: drop the files so they can never be replayed
             out of order by a later recovery *)
          List.iter (fun s -> rm (wal_path dir s)) rest
        else replay rest
  in
  replay replayable;
  let tgt_seq, tgt_end =
    match !target with Some x -> x | None -> (base, 0)
  in
  (* arm the writer on the replay cut: truncate the torn tail away and
     append after the last valid record *)
  let fd =
    Unix.openfile (wal_path dir tgt_seq)
      [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
  in
  Unix.ftruncate fd tgt_end;
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  fsync_dir dir;
  let t =
    { dir; gen = tgt_seq; fd; bytes = tgt_end; appends = 0; checkpoints = 0;
      closed = false }
  in
  ( t,
    { r_snapshot = (match chosen with Some (_, s) -> Some s | None -> None);
      r_events = List.rev !events;
      r_checkpoint_fallback = fallback;
      r_torn_tail = !torn } )
