(* Streaming analysis index. See index.mli for the contract, the
   dirty-set soundness assumptions and the durability story. *)

module U = Ethainter_word.Uint256
module P = Ethainter_core.Pipeline
module S = Ethainter_core.Scheduler
module Config = Ethainter_core.Config
module Telemetry = Ethainter_core.Telemetry
module Testnet = Ethainter_chain.Testnet
module J = Journal
module Fault = Ethainter_runtime.Fault

type verdict = {
  v_addr : U.t;
  v_code : string;
  v_deployed_block : int;
  v_indexed_block : int;
  v_result : P.result;
}

type status =
  | Unknown
  | Pending of int
  | Indexed of verdict
  | Destroyed
  | Quarantined of int

(* One record per contract address ever seen. [state] transitions
   Pending -> Indexed (job completion), Indexed -> Pending
   (invalidation), Pending -> Quarantined (circuit breaker) ->
   Pending (backoff-expired probe), * -> Destroyed (self-destruct;
   absorbing). All fields are guarded by the index mutex; a completed
   job only stores its result while the entry is still Pending, so a
   destroy that overtook the job wins. *)
type entry = {
  addr : U.t;
  code : string;
  deployed_block : int;
  mutable state :
    [ `Pending | `Indexed of P.result | `Destroyed | `Quarantined of int ];
  mutable queued_block : int;   (* block that queued the current job *)
  mutable indexed_block : int;
  mutable runs : int;           (* completed analyses for this entry *)
}

type t = {
  mu : Mutex.t;
  quiescent : Condition.t;
  chain : Testnet.t;
  pool : S.Pool.t option;
  cfg : Config.t;
  timeout_s : float;
  entries : (U.t, entry) Hashtbl.t;
  journal : J.t option;
  checkpoint_every : int;       (* blocks between compacted checkpoints *)
  mutable journal_ok : bool;    (* cleared on journal I/O failure *)
  mutable blocks_since_ckpt : int;
  mutable active : bool;
  mutable sub : Testnet.subscription option; (* set by [attach] *)
  mutable last_block : int;
  mutable inflight : int;
  (* cumulative counters (telemetry reads them under [mu]) *)
  mutable blocks_seen : int;
  mutable deployed : int;
  mutable invalidations : int;
  mutable analyses : int;
  mutable reanalyses : int;
  mutable destroyed : int;
  mutable dirty_last : int;
  mutable lag_total : int;      (* deployment -> first verdict, blocks *)
  mutable lag_verdicts : int;
  mutable quarantined_now : int;
  mutable quarantine_drops : int;  (* jobs short-circuited by an open breaker *)
  mutable quarantine_probes : int; (* backoff-expired retry jobs queued *)
  mutable recovered_verdicts : int;
  mutable replayed_events : int;
  mutable journal_errors : int;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* ---------------- journaling ---------------- *)

(* The journal is best-effort in the face of a sick disk: an I/O
   failure drops durability (counted, and the journal is never touched
   again) rather than the service. A [Fault.Crashed] is not an I/O
   failure — it is the chaos suite's simulated process death and must
   reach the process driver. *)
let jget t = if t.journal_ok then t.journal else None

let journal_append t ev =
  match jget t with
  | None -> ()
  | Some j -> (
      try J.append j ev
      with
      | Fault.Crashed _ as e -> raise e
      | _ ->
          t.journal_ok <- false;
          t.journal_errors <- t.journal_errors + 1)

let snapshot_locked t : J.snapshot =
  let entries =
    Hashtbl.fold
      (fun _ e acc ->
        { J.e_addr = e.addr; e_code = e.code;
          e_deployed_block = e.deployed_block;
          e_queued_block = e.queued_block; e_runs = e.runs;
          e_state =
            (match e.state with
            (* quarantine is deliberately not durable: a restarted
               process gives the contract a fresh probe *)
            | `Pending | `Quarantined _ -> J.S_pending
            | `Indexed r -> J.S_indexed (r, e.indexed_block)
            | `Destroyed -> J.S_destroyed) }
        :: acc)
      t.entries []
  in
  { J.s_cursor = t.last_block; s_entries = entries }

let maybe_checkpoint_locked t =
  match jget t with
  | None -> ()
  | Some j ->
      t.blocks_since_ckpt <- t.blocks_since_ckpt + 1;
      if t.blocks_since_ckpt >= t.checkpoint_every then begin
        t.blocks_since_ckpt <- 0;
        try J.checkpoint j (snapshot_locked t)
        with
        | Fault.Crashed _ as e -> raise e
        | _ ->
            t.journal_ok <- false;
            t.journal_errors <- t.journal_errors + 1
      end

(* ---------------- dirty-set matching ---------------- *)

(* Slots at or above 2^64 are hash-derived (mapping/array members) —
   compiler-assigned constant slots are tiny, and keccak outputs
   reaching below 2^64 would need a 2^-192 collision. A write there
   cannot be attributed to one root (preimages are not invertible), so
   it dirties every data structure the verdict's guards read. *)
let hash_region = U.shift_left U.one 64

let slot_dirty (d : P.deps) (slot : U.t) : bool =
  d.P.dep_unknown
  || List.exists (U.equal slot) d.P.dep_slots
  || (d.P.dep_roots <> [] && U.compare slot hash_region >= 0)

(* ---------------- analysis jobs ---------------- *)

(* The job body runs on a pool worker domain (or inline). Failure
   containment is total — S.analyze_request never raises — so the
   accounting in the epilogue always runs.

   The poison-pill breaker brackets the analysis: an open breaker
   short-circuits the job (the entry parks as Quarantined — no pool
   time, no deadline budget burned), and every admitted outcome is
   reported back so consecutive timeouts/crashes eventually trip it. *)
let job (t : t) (e : entry) () =
  match S.Quarantine.check e.code with
  | S.Quarantine.Reject { r_failures; _ } ->
      locked t (fun () ->
          (match e.state with
          | `Pending ->
              e.state <- `Quarantined r_failures;
              t.quarantined_now <- t.quarantined_now + 1;
              t.quarantine_drops <- t.quarantine_drops + 1
          | `Indexed _ | `Destroyed | `Quarantined _ -> ());
          t.inflight <- t.inflight - 1;
          if t.inflight = 0 then Condition.broadcast t.quiescent)
  | S.Quarantine.Admit ->
      let r =
        S.analyze_request
          (P.request ~cfg:t.cfg ~timeout_s:t.timeout_s (P.Runtime e.code))
      in
      let failed =
        match r.P.error_kind with
        | Some P.Timeout | Some P.Fatal -> true
        | _ -> false
      in
      S.Quarantine.record e.code ~ok:(not failed);
      locked t (fun () ->
          (match e.state with
          | `Pending ->
              if
                failed && S.Quarantine.enabled ()
                && S.Quarantine.failures e.code >= S.Quarantine.threshold
              then begin
                e.state <- `Quarantined (S.Quarantine.failures e.code);
                t.quarantined_now <- t.quarantined_now + 1
              end
              else begin
                e.state <- `Indexed r;
                e.indexed_block <- t.last_block;
                journal_append t
                  (J.Ev_verdict
                     { ev_addr = e.addr; ev_indexed_block = e.indexed_block;
                       ev_runs = e.runs + 1; ev_result = r });
                if e.runs = 0 then begin
                  t.lag_total <- t.lag_total + (t.last_block - e.deployed_block);
                  t.lag_verdicts <- t.lag_verdicts + 1
                end
              end
          | `Indexed _ | `Destroyed | `Quarantined _ ->
              (* destroyed (or superseded) while we analyzed: the
                 verdict is already moot, drop it *)
              ());
          e.runs <- e.runs + 1;
          t.analyses <- t.analyses + 1;
          if e.runs > 1 then t.reanalyses <- t.reanalyses + 1;
          t.inflight <- t.inflight - 1;
          if t.inflight = 0 then Condition.broadcast t.quiescent)

(* Run the queued jobs, outside the index mutex. Inline fallback: a
   pool refusal (admission control under overload) runs the job on
   this thread rather than dropping it — the index must never lose a
   dirty contract. *)
let dispatch (t : t) (jobs : (unit -> unit) list) =
  List.iter
    (fun j ->
      match t.pool with
      | Some pool -> if not (S.Pool.submit pool j) then j ()
      | None -> j ())
    jobs

(* ---------------- block application ---------------- *)

(* Apply one block's effects to the entry table. Caller holds [t.mu]
   and has already checked the monotonic block-number guard. Shared by
   live ingestion (~live:true — journals the observation and returns
   analysis jobs to dispatch) and journal replay during recovery
   (~live:false — pure state reconstruction; dirtied entries are left
   Pending for the post-replay requeue pass).

   Order within the block matters: deployments first (a deploy+write
   in one block queues one analysis, not two), self-destructs last (a
   deploy+kill in one block nets out to Destroyed — though the chain
   already drops such contracts from [b_deployed]). *)
let apply_block (t : t) ~live (o : J.obs) =
  if live then journal_append t (J.Ev_block o);
  t.last_block <- o.J.o_number;
  t.blocks_seen <- t.blocks_seen + 1;
  if not live then t.replayed_events <- t.replayed_events + 1;
  let jobs = ref [] in
  let dirty = ref 0 in
  let queue e =
    e.state <- `Pending;
    e.queued_block <- o.J.o_number;
    incr dirty;
    if live then begin
      t.inflight <- t.inflight + 1;
      jobs := job t e :: !jobs
    end
  in
  (* deployments enter the index *)
  List.iter
    (fun (addr, code) ->
      let e =
        { addr; code; deployed_block = o.J.o_number;
          state = `Pending; queued_block = o.J.o_number;
          indexed_block = 0; runs = 0 }
      in
      Hashtbl.replace t.entries addr e;
      t.deployed <- t.deployed + 1;
      queue e)
    o.J.o_deployed;
  (* storage writes invalidate matching verdicts. A Pending entry
     (deployed this very block, or already re-queued) is left alone:
     its in-flight analysis is pure in the bytecode, so it already
     reflects the post-write chain. A Quarantined entry is already as
     dirty as it can be — the backoff probe will requeue it. *)
  List.iter
    (fun (addr, slot) ->
      match Hashtbl.find_opt t.entries addr with
      | Some ({ state = `Indexed r; _ } as e)
        when slot_dirty r.P.deps slot ->
          t.invalidations <- t.invalidations + 1;
          (* make the re-run a genuine back-end re-execution: the
             cached result would otherwise answer it *)
          P.invalidate_backend ~cfg:t.cfg e.code;
          queue e
      | _ -> ())
    o.J.o_writes;
  (* self-destructs are absorbing *)
  List.iter
    (fun addr ->
      match Hashtbl.find_opt t.entries addr with
      | Some e when e.state <> `Destroyed ->
          (match e.state with
          | `Quarantined _ -> t.quarantined_now <- t.quarantined_now - 1
          | _ -> ());
          e.state <- `Destroyed;
          t.destroyed <- t.destroyed + 1
      | _ -> ())
    o.J.o_destroyed;
  t.dirty_last <- !dirty;
  List.rev !jobs

(* Quarantined entries whose breaker backoff has expired get one probe
   job. Scanned per block only while something is quarantined (the
   common case costs one integer compare). *)
let probe_jobs_locked (t : t) =
  if t.quarantined_now = 0 then []
  else
    Hashtbl.fold
      (fun _ e acc ->
        match e.state with
        | `Quarantined _ when not (S.Quarantine.is_open e.code) ->
            e.state <- `Pending;
            e.queued_block <- t.last_block;
            t.quarantined_now <- t.quarantined_now - 1;
            t.quarantine_probes <- t.quarantine_probes + 1;
            t.inflight <- t.inflight + 1;
            job t e :: acc
        | _ -> acc)
      t.entries []

(* ---------------- block ingestion ---------------- *)

let obs_of_block (b : Testnet.block) : J.obs =
  { J.o_number = b.Testnet.b_number;
    o_deployed = b.Testnet.b_deployed;
    o_writes = b.Testnet.b_storage_writes;
    o_destroyed = b.Testnet.b_selfdestructed }

(* Process one sealed block: compute the dirty set under the mutex,
   collect the jobs, run them after release (a job's epilogue re-takes
   the mutex; and inline execution must not hold it). Called from the
   chain's sealing thread (the subscription), catch-up included. *)
let handle_block (t : t) (b : Testnet.block) =
  let jobs =
    locked t (fun () ->
        if (not t.active) || b.Testnet.b_number <= t.last_block then []
        else begin
          let jobs = apply_block t ~live:true (obs_of_block b) in
          let jobs = jobs @ probe_jobs_locked t in
          maybe_checkpoint_locked t;
          jobs
        end)
  in
  dispatch t jobs

(* ---------------- telemetry ---------------- *)

let stats_locked (t : t) =
  let live = ref 0 and pending = ref 0 in
  Hashtbl.iter
    (fun _ e ->
      match e.state with
      | `Indexed _ -> incr live
      | `Pending -> incr pending
      | `Destroyed | `Quarantined _ -> ())
    t.entries;
  [ ("index_contracts", float_of_int !live);
    ("index_pending", float_of_int !pending);
    ("index_destroyed", float_of_int t.destroyed);
    ("index_blocks", float_of_int t.blocks_seen);
    ("index_deployed", float_of_int t.deployed);
    ("index_invalidations", float_of_int t.invalidations);
    ("index_analyses", float_of_int t.analyses);
    ("index_reanalyses", float_of_int t.reanalyses);
    ("index_dirty_last_block", float_of_int t.dirty_last);
    ("index_inflight", float_of_int t.inflight);
    ("index_lag_blocks_total", float_of_int t.lag_total);
    ("index_lag_verdicts", float_of_int t.lag_verdicts);
    ("index_quarantined", float_of_int t.quarantined_now);
    ("index_quarantine_drops", float_of_int t.quarantine_drops);
    ("index_quarantine_probes", float_of_int t.quarantine_probes);
    ("index_recovered_verdicts", float_of_int t.recovered_verdicts);
    ("index_replayed_events", float_of_int t.replayed_events);
    ("index_journal_errors", float_of_int t.journal_errors) ]
  @ (match t.journal with Some j -> J.stats j | None -> [])

let stats (t : t) = locked t (fun () -> stats_locked t)

(* ---------------- construction & recovery ---------------- *)

let make ?pool ?(cfg = Config.default) ?(timeout_s = 120.0)
    ?(checkpoint_every = 256) ~journal (chain : Testnet.t) : t =
  { mu = Mutex.create ();
    quiescent = Condition.create ();
    chain; pool; cfg; timeout_s;
    entries = Hashtbl.create 64;
    journal;
    checkpoint_every = max 1 checkpoint_every;
    journal_ok = journal <> None;
    blocks_since_ckpt = 0;
    active = true; sub = None;
    last_block = 0; inflight = 0; blocks_seen = 0; deployed = 0;
    invalidations = 0; analyses = 0; reanalyses = 0; destroyed = 0;
    dirty_last = 0; lag_total = 0; lag_verdicts = 0;
    quarantined_now = 0; quarantine_drops = 0; quarantine_probes = 0;
    recovered_verdicts = 0; replayed_events = 0; journal_errors = 0 }

(* One subscription from [t.last_block] catches up and then tails;
   the index's cursor is what lets the chain drop blocks it has seen.
   handle_block's monotonic guard skips blocks at or below the cursor
   (a chain behind a recovered cursor seals them again). *)
let attach (t : t) =
  t.sub <-
    Some (Testnet.subscribe t.chain ~cursor:t.last_block (handle_block t));
  Telemetry.register_source "index" (fun () -> stats t)

let create ?pool ?cfg ?timeout_s (chain : Testnet.t) : t =
  let t = make ?pool ?cfg ?timeout_s ~journal:None chain in
  attach t;
  t

let entry_of_journal (je : J.entry) : entry =
  { addr = je.J.e_addr;
    code = je.J.e_code;
    deployed_block = je.J.e_deployed_block;
    state =
      (match je.J.e_state with
      | J.S_pending -> `Pending
      | J.S_indexed (r, _) -> `Indexed r
      | J.S_destroyed -> `Destroyed);
    queued_block = je.J.e_queued_block;
    indexed_block = (match je.J.e_state with
                    | J.S_indexed (_, ib) -> ib
                    | J.S_pending | J.S_destroyed -> 0);
    runs = je.J.e_runs }

(* A replayed verdict lands exactly like a live one: only onto a
   still-Pending entry (a later replayed destroy or invalidation wins
   over it, same as live). *)
let replay_event_locked (t : t) = function
  | J.Ev_block o ->
      if o.J.o_number > t.last_block then ignore (apply_block t ~live:false o)
  | J.Ev_verdict { ev_addr; ev_indexed_block; ev_runs; ev_result } -> (
      t.replayed_events <- t.replayed_events + 1;
      match Hashtbl.find_opt t.entries ev_addr with
      | Some ({ state = `Pending; _ } as e) ->
          e.state <- `Indexed ev_result;
          e.indexed_block <- ev_indexed_block;
          e.runs <- max e.runs ev_runs;
          t.recovered_verdicts <- t.recovered_verdicts + 1
      | _ -> ())

let recover ?pool ?cfg ?timeout_s ?checkpoint_every ~journal_dir
    (chain : Testnet.t) : t =
  let j, rc = J.recover ~dir:journal_dir in
  let t = make ?pool ?cfg ?timeout_s ?checkpoint_every ~journal:(Some j) chain in
  let jobs =
    locked t (fun () ->
        (match rc.J.r_snapshot with
        | Some snap ->
            t.last_block <- snap.J.s_cursor;
            List.iter
              (fun je ->
                let e = entry_of_journal je in
                Hashtbl.replace t.entries e.addr e;
                match e.state with
                | `Indexed _ ->
                    t.recovered_verdicts <- t.recovered_verdicts + 1
                | _ -> ())
              snap.J.s_entries
        | None -> ());
        List.iter (replay_event_locked t) rc.J.r_events;
        (* whatever is still Pending was dirty at (or dirtied since)
           the crash: requeue it — these are the only analyses a clean
           recovery performs *)
        Hashtbl.fold
          (fun _ e acc ->
            match e.state with
            | `Pending ->
                t.inflight <- t.inflight + 1;
                job t e :: acc
            | _ -> acc)
          t.entries [])
  in
  dispatch t jobs;
  (* then catch up with everything the chain sealed past the persisted
     cursor, and tail *)
  attach t;
  t

(* ---------------- queries ---------------- *)

let lookup (t : t) (addr : U.t) : status =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries addr with
      | None -> Unknown
      | Some e -> (
          match e.state with
          | `Pending -> Pending e.queued_block
          | `Destroyed -> Destroyed
          | `Quarantined failures -> Quarantined failures
          | `Indexed r ->
              Indexed
                { v_addr = e.addr; v_code = e.code;
                  v_deployed_block = e.deployed_block;
                  v_indexed_block = e.indexed_block; v_result = r }))

let drain (t : t) =
  locked t (fun () ->
      while t.inflight > 0 do
        Condition.wait t.quiescent t.mu
      done)

let contents (t : t) : (U.t * string * P.result) list =
  locked t (fun () ->
      Hashtbl.fold
        (fun _ e acc ->
          match e.state with
          | `Indexed r -> (e.addr, e.code, r) :: acc
          | `Pending | `Destroyed | `Quarantined _ -> acc)
        t.entries [])
  |> List.sort (fun (a, _, _) (b, _, _) -> U.compare a b)

let last_block (t : t) = locked t (fun () -> t.last_block)

(* Unsubscribe before deactivating: a block sealed in between is
   still ingested, so the chain never drops a block the index skipped. *)
let detach (t : t) =
  Option.iter (Testnet.unsubscribe t.chain) t.sub;
  locked t (fun () -> t.active <- false);
  Telemetry.unregister_source "index"

let close (t : t) =
  detach t;
  drain t;
  match t.journal with
  | None -> ()
  | Some j -> (
      locked t (fun () ->
          if t.journal_ok then
            try J.close j (snapshot_locked t)
            with
            | Fault.Crashed _ as e -> raise e
            | _ ->
                t.journal_ok <- false;
                t.journal_errors <- t.journal_errors + 1))
