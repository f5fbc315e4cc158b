(* Content-addressed result cache: mutex-protected LRU memory tier +
   optional one-file-per-key disk tier. See cache.mli for the
   contract. *)

(* Intrusive doubly-linked LRU list over hash-table nodes: every
   operation is O(1), which matters because the scheduler's worker
   domains all funnel through the one mutex. *)
type 'v node = {
  nkey : string;
  mutable value : 'v;
  mutable prev : 'v node option;  (* towards most-recently-used *)
  mutable next : 'v node option;  (* towards least-recently-used *)
}

type 'v t = {
  mu : Mutex.t;
  tbl : (string, 'v node) Hashtbl.t;
  mutable mru : 'v node option;
  mutable lru : 'v node option;
  capacity : int;
  dir : string option;
  ext : string;
  max_bytes : int option;  (* disk-tier size bound *)
  encode : 'v -> string;
  decode : string -> 'v option;
  (* The disk tier degrades to memory-only after repeated I/O
     failures rather than paying (and logging) a failure per entry for
     the rest of a sweep. Atomic: read on every disk access without
     the mutex. *)
  disk_ok : bool Atomic.t;
  (* Estimated bytes written since the last directory scan; when it
     crosses [max_bytes] the bound is enforced (scan + evict) and the
     estimate is re-based — so enforcement cost is amortized over the
     bytes written, not paid per write. Guarded by [mu]. *)
  mutable disk_bytes_est : int;
  mutable hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable rejected : int;
  mutable evictions : int;
  mutable disk_writes : int;
  mutable io_errors : int;
}

type stats = {
  hits : int;
  disk_hits : int;
  misses : int;
  rejected : int;
  evictions : int;
  disk_writes : int;
  io_errors : int;
  size : int;
  capacity : int;
}

let ext_safe e =
  e <> ""
  && String.for_all
       (function '0' .. '9' | 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false)
       e

(* Temp files left behind by a crashed writer (the atomic-rename
   protocol never leaves torn *entries*, but it can leave *.tmp.*
   litter): anything older than this at [create] time is swept. The
   TTL protects live writers in other processes. *)
let tmp_ttl_s = 600.0

let is_tmp_file name =
  String.length name > 0
  && name.[0] = '.'
  &&
  let pat = ".tmp." in
  let n = String.length name and m = String.length pat in
  let rec at i = i + m <= n && (String.sub name i m = pat || at (i + 1)) in
  at 0

let sweep_stale_tmps dir =
  match Sys.readdir dir with
  | exception _ -> ()
  | files ->
      let now = Unix.gettimeofday () in
      Array.iter
        (fun f ->
          if is_tmp_file f then
            let path = Filename.concat dir f in
            match Unix.stat path with
            | exception _ -> ()
            | st ->
                if now -. st.Unix.st_mtime > tmp_ttl_s then
                  try Sys.remove path with _ -> ())
        files

let max_bytes_env () =
  match Sys.getenv_opt "ETHAINTER_CACHE_MAX_BYTES" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 0 -> Some n
      | _ -> None)

let create ?(capacity = 8192) ?dir ?(ext = "cache") ?max_bytes ~encode
    ~decode () =
  if not (ext_safe ext) then invalid_arg "Cache.create: ext";
  let max_bytes =
    match max_bytes with Some _ as m -> m | None -> max_bytes_env ()
  in
  (match dir with
  | Some d when Sys.file_exists d -> sweep_stale_tmps d
  | _ -> ());
  { mu = Mutex.create ();
    tbl = Hashtbl.create 256;
    mru = None; lru = None;
    capacity = max 1 capacity;
    dir; ext; max_bytes; encode; decode;
    disk_ok = Atomic.make true;
    (* force a real scan on the first bound check: the directory may
       already hold entries from previous processes *)
    disk_bytes_est = (match max_bytes with Some b -> b | None -> 0);
    hits = 0; disk_hits = 0; misses = 0; rejected = 0; evictions = 0;
    disk_writes = 0; io_errors = 0 }

let key_of_hash ~version ~fingerprint code_hash =
  Ethainter_word.Hex.encode
    (Ethainter_crypto.Keccak.hash
       (version ^ "\x00" ^ fingerprint ^ "\x00" ^ code_hash))

let key ~version ~fingerprint bytecode =
  key_of_hash ~version ~fingerprint (Ethainter_crypto.Keccak.hash bytecode)

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* ---------------- LRU list (call with t.mu held) ---------------- *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.mru <- n.next);
  (match n.next with Some x -> x.prev <- n.prev | None -> t.lru <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.mru;
  (match t.mru with Some m -> m.prev <- Some n | None -> t.lru <- Some n);
  t.mru <- Some n

let touch t n =
  match t.mru with
  | Some m when m == n -> ()
  | _ ->
      unlink t n;
      push_front t n

let insert t k v =
  (match Hashtbl.find_opt t.tbl k with
  | Some n ->
      n.value <- v;
      touch t n
  | None ->
      let n = { nkey = k; value = v; prev = None; next = None } in
      Hashtbl.add t.tbl k n;
      push_front t n);
  while Hashtbl.length t.tbl > t.capacity do
    match t.lru with
    | Some n ->
        unlink t n;
        Hashtbl.remove t.tbl n.nkey;
        t.evictions <- t.evictions + 1
    | None -> assert false
  done

(* ---------------- disk tier ---------------- *)

(* Keys from {!key} are already hex; defensively reject anything that
   could escape the directory so the module stays safe for arbitrary
   caller-chosen keys. *)
let filename_safe k =
  k <> ""
  && String.for_all
       (function
         | '0' .. '9' | 'a' .. 'z' | 'A' .. 'Z' | '-' | '_' | '.' -> true
         | _ -> false)
       k
  && k.[0] <> '.'

let entry_path t dir k = Filename.concat dir (k ^ "." ^ t.ext)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A write that can never expose a torn entry: write a uniquely-named
   temp file in the same directory, then rename over the final path
   (atomic on POSIX). Any I/O failure degrades to "not persisted". *)
let tmp_counter = Atomic.make 0

(* Racing creators are expected (two processes warming one cache
   directory): losing the mkdir race is success, not failure — the
   blanket handler below must never see EEXIST, or the loser's write
   would be silently dropped. *)
let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* After this many I/O failures the disk tier is switched off for the
   rest of the process: a sweep on a broken disk should pay a bounded
   number of failed syscalls, then run memory-only. *)
let io_error_limit = 8

let io_failure t =
  locked t (fun () ->
      t.io_errors <- t.io_errors + 1;
      if t.io_errors >= io_error_limit then Atomic.set t.disk_ok false)

(* Oldest-mtime eviction down to [bound]. Entries of every extension
   count — instances sharing a directory share the bound. Called
   outside [t.mu]; the directory scan races benignly with concurrent
   writers (a file vanishing mid-scan is skipped). Returns the bytes
   remaining, for re-basing the estimate. *)
let enforce_disk_bound t dir bound =
  match Sys.readdir dir with
  | exception _ -> 0
  | files ->
      let entries =
        Array.to_list files
        |> List.filter_map (fun f ->
               if is_tmp_file f || (String.length f > 0 && f.[0] = '.') then
                 None
               else
                 let path = Filename.concat dir f in
                 match Unix.stat path with
                 | exception _ -> None
                 | st when st.Unix.st_kind = Unix.S_REG ->
                     Some (path, st.Unix.st_mtime, st.Unix.st_size)
                 | _ -> None)
      in
      let total = List.fold_left (fun a (_, _, sz) -> a + sz) 0 entries in
      if total <= bound then total
      else begin
        let oldest_first =
          List.sort
            (fun (p1, m1, _) (p2, m2, _) -> compare (m1, p1) (m2, p2))
            entries
        in
        let remaining = ref total in
        List.iter
          (fun (path, _, sz) ->
            if !remaining > bound then
              match Sys.remove path with
              | () ->
                  remaining := !remaining - sz;
                  locked t (fun () -> t.evictions <- t.evictions + 1)
              | exception _ -> ())
          oldest_first;
        !remaining
      end

(* Credit [bytes] against the bound; scan + evict when the estimate
   crosses it. *)
let note_disk_write t dir bytes =
  match t.max_bytes with
  | None -> ()
  | Some bound ->
      let due =
        locked t (fun () ->
            t.disk_bytes_est <- t.disk_bytes_est + bytes;
            t.disk_bytes_est > bound)
      in
      if due then begin
        let remaining = enforce_disk_bound t dir bound in
        locked t (fun () -> t.disk_bytes_est <- remaining)
      end

(* Durability discipline (shared with the index journal): fsync the
   temp file before the rename and the containing directory after it.
   The rename alone already guarantees {e atomicity} (no torn entry is
   ever visible); the fsyncs additionally guarantee the entry survives
   power loss — without them a crash can leave the final name pointing
   at zero-length or garbage data, which [decode] would only discover
   (and delete) one failed lookup later. *)
let write_file_durable dir tmp final payload =
  let fd =
    Unix.openfile tmp
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  (try
     let b = Bytes.unsafe_of_string payload in
     let n = Bytes.length b in
     let off = ref 0 in
     while !off < n do
       match Unix.write fd b !off (n - !off) with
       | w -> off := !off + w
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     done;
     Unix.fsync fd
   with e ->
     (try Unix.close fd with _ -> ());
     (try Sys.remove tmp with _ -> ());
     raise e);
  Unix.close fd;
  Sys.rename tmp final;
  (* directory fsync persists the rename itself; a filesystem that
     refuses fsync on directories (some network mounts) still has the
     atomic entry, so that failure is not an I/O error *)
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception _ -> ()
  | dfd ->
      (try Unix.fsync dfd with _ -> ());
      (try Unix.close dfd with _ -> ())

let disk_write t k v =
  match t.dir with
  | Some dir when filename_safe k && Atomic.get t.disk_ok -> (
      try
        Fault.io_site Fault.Disk_write;
        ensure_dir dir;
        let tmp =
          Filename.concat dir
            (Printf.sprintf ".%s.tmp.%d.%d" k (Unix.getpid ())
               (Atomic.fetch_and_add tmp_counter 1))
        in
        (* the corruption injection point sits between encode and
           write: what lands on disk differs from what the codec
           produced, exactly like a bad disk — the digest check in
           decode must turn it into a miss, never a poisoned hit *)
        let payload = Fault.corrupt (t.encode v) in
        write_file_durable dir tmp (entry_path t dir k) payload;
        note_disk_write t dir (String.length payload);
        true
      with _ ->
        io_failure t;
        false)
  | _ -> false

let disk_find t k =
  match t.dir with
  | Some dir when filename_safe k && Atomic.get t.disk_ok -> (
      let path = entry_path t dir k in
      (* distinguish "no entry" (an ordinary miss) from "entry exists
         but could not be read" (an I/O failure that must count
         towards degradation) *)
      if not (Sys.file_exists path) then None
      else
        match
          (try
             Fault.io_site Fault.Disk_read;
             Some (read_file path)
           with _ ->
             io_failure t;
             None)
        with
        | None -> None
        | Some raw -> (
            match (try t.decode raw with _ -> None) with
            | Some v -> Some v
            | None ->
                (* corrupt / truncated / stale codec: drop it and miss *)
                (try Sys.remove path with _ -> ());
                None))
  | _ -> None

(* ---------------- public operations ---------------- *)

(* [Found_invalid] distinguishes "the entry exists but the caller's
   validity predicate refused it" from a plain miss: the caller will
   recompute either way, but the stats must not claim a hit for a
   lookup that caused a recomputation. *)
let find_valid t k ~valid =
  let mem =
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl k with
        | Some n ->
            if valid n.value then begin
              touch t n;
              t.hits <- t.hits + 1;
              `Hit n.value
            end
            else begin
              t.rejected <- t.rejected + 1;
              `Rejected
            end
        | None -> `Absent)
  in
  match mem with
  | `Hit v -> Some v
  | `Rejected -> None
  | `Absent -> (
      (* Disk I/O and decoding happen outside the lock; only the
         promotion and the counter update re-take it. A rejected disk
         entry is left in place — a later request with a laxer
         predicate (e.g. a bigger time budget) may still accept it. *)
      match disk_find t k with
      | Some v when valid v ->
          locked t (fun () ->
              t.disk_hits <- t.disk_hits + 1;
              insert t k v);
          Some v
      | Some _ ->
          locked t (fun () -> t.rejected <- t.rejected + 1);
          None
      | None ->
          locked t (fun () -> t.misses <- t.misses + 1);
          None)

let find t k = find_valid t k ~valid:(fun _ -> true)

let add t k v =
  locked t (fun () -> insert t k v);
  if disk_write t k v then
    locked t (fun () -> t.disk_writes <- t.disk_writes + 1)

let find_or_compute t ~key ?(cacheable = fun _ -> true) f =
  match find t key with
  | Some v -> v
  | None ->
      let v = f () in
      if cacheable v then add t key v;
      v

let disk_degraded t =
  t.dir <> None && not (Atomic.get t.disk_ok)

let stats t =
  locked t (fun () ->
      { hits = t.hits; disk_hits = t.disk_hits; misses = t.misses;
        rejected = t.rejected; evictions = t.evictions;
        disk_writes = t.disk_writes; io_errors = t.io_errors;
        size = Hashtbl.length t.tbl; capacity = t.capacity })

let reset_stats t =
  locked t (fun () ->
      t.hits <- 0;
      t.disk_hits <- 0;
      t.misses <- 0;
      t.rejected <- 0;
      t.evictions <- 0;
      t.disk_writes <- 0;
      t.io_errors <- 0)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.tbl;
      t.mru <- None;
      t.lru <- None;
      t.hits <- 0;
      t.disk_hits <- 0;
      t.misses <- 0;
      t.rejected <- 0;
      t.evictions <- 0;
      t.disk_writes <- 0;
      t.io_errors <- 0)

let hit_rate (s : stats) =
  let lookups = s.hits + s.disk_hits + s.misses + s.rejected in
  if lookups = 0 then 0.0
  else float_of_int (s.hits + s.disk_hits) /. float_of_int lookups

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "cache: %d hits, %d disk hits, %d misses, %d rejected (%.1f%% hit rate), %d evictions, %d io errors, size %d/%d"
    s.hits s.disk_hits s.misses s.rejected
    (100.0 *. hit_rate s)
    s.evictions s.io_errors s.size s.capacity
