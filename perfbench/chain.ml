(* chain: the daemon's --watch loop. A seeded stream of transactions is
   sent in blocks of [block_txs] through [Testnet.transact] to a fleet
   of corpus contracts, with a durable [Index] attached that ingests
   every sealed block inline and journals it. The journal lives in a
   fresh directory inside the checkout, so journal.* times include that
   file system's writes and the fsync of each checkpoint.

   Owner-sent calls run guarded bodies and write storage and mappings;
   some of those writes hit slots the fleet's guards read, so the index
   invalidates those verdicts and reruns only their back ends, behind
   front-end cache hits. Outsider calls to guarded functions revert, so
   their state changes roll back. No call destroys a contract or hands
   its ownership away, so every block of a run does the same kind of
   work. The chain is never restarted: the history it keeps grows for
   the whole run, as it does in the daemon. *)

open Common
module G = Ethainter_corpus.Generator
module Pat = Ethainter_corpus.Patterns
module P = Ethainter_core.Pipeline
module S = Ethainter_core.Scheduler
module Tel = Ethainter_core.Telemetry
module T = Ethainter_chain.Testnet
module I = Ethainter_evm.Interp
module U = Ethainter_word.Uint256
module Index = Ethainter_index.Index

let fillers = (12, 20)
let block_txs = 150

(* A run is a fixed stream of [blocks_per_second] x --seconds blocks
   rather than a fixed time: the chain keeps every receipt (about 3 KB a
   transaction), so peak memory measures the same history on every
   commit, and a faster commit does not read as a bigger one. *)
let blocks_per_second = 100

(* Throughput is the median over windows of [window] blocks. About one
   block in 256 writes and fsyncs a journal checkpoint, which takes tens
   of milliseconds on a virtual disk and varies with it; the median
   window leaves that disk time out of the figure, as a journal in RAM
   would, while journal.* and index.ingest_ms still report it. *)
let window = 50

type who = Owner | Outsider

type call = {
  weight : int;
  fn : string;          (* Solidity signature *)
  args : U.t list;
  who : who;
  succeeds : bool;      (* expected outcome: Returned, else Reverted *)
  invalidates : bool;   (* writes a slot the contract's guards read *)
}

let owner = T.account_of_seed "perfbench-owner"
let outsider = T.account_of_seed "perfbench-outsider"
let payee = T.account_of_seed "perfbench-payee"

(* The fleet's templates, their weights in the fleet, and the calls sent
   to them. A call that writes a slot the contract's guards read makes
   the index invalidate the verdict; each block holds exactly one such
   call, so that every block asks the index for the same work. Owner
   calls of that kind rewrite the value the slot already holds
   (setOwner(owner), addAdmin(owner), offerOwnership(owner)), so they
   never change who may call what. *)
let calls : (string * int * call list) list =
  let c weight fn args who succeeds =
    { weight; fn; args; who; succeeds; invalidates = false }
  in
  let inv fn args who = { (c 1 fn args who true) with invalidates = true } in
  let n = U.of_int in
  [ ( "token", 4,
      [ inv "mint(address,uint256)" [ payee; n 7 ] Owner;
        inv "approve(address,uint256)" [ payee; n 3 ] Owner;
        c 2 "mint(address,uint256)" [ payee; n 7 ] Outsider false;
        c 1 "transfer(address,uint256)" [ payee; n 7 ] Outsider false ] );
    ( "role_registry", 3,
      [ inv "setScore(address,uint256)" [ payee; n 9 ] Owner;
        inv "addAdmin(address)" [ owner ] Owner;
        c 1 "setScore(address,uint256)" [ payee; n 9 ] Outsider false;
        c 1 "addAdmin(address)" [ payee ] Outsider false;
        c 1 "retire()" [] Outsider false ] );
    ( "counter", 5,
      [ c 3 "bump()" [] Owner true; c 2 "bumpBy(uint256)" [ n 7 ] Outsider true ] );
    ( "oracle", 5,
      [ c 3 "setPrice(uint256)" [ n 11 ] Owner true;
        c 2 "setPrice(uint256)" [ n 11 ] Outsider false;
        c 1 "getPrice()" [] Outsider true ] );
    ( "pinger", 3,
      [ c 2 "ping(uint256)" [ n 5 ] Outsider true;
        c 1 "echo(address)" [ payee ] Outsider true ] );
    ( "multisig", 3,
      [ inv "propose()" [] Owner;
        inv "confirm(uint256)" [ n 0 ] Owner;
        c 2 "propose()" [] Outsider false;
        c 1 "confirm(uint256)" [ n 0 ] Outsider false ] );
    ( "safe_wallet", 4,
      [ inv "setOwner(address)" [ owner ] Owner;
        c 3 "deposit()" [] Outsider true;
        c 2 "setOwner(address)" [ payee ] Outsider false;
        c 1 "kill()" [] Outsider false ] );
    ( "two_step_ownership", 3,
      [ inv "offerOwnership(address)" [ owner ] Owner;
        c 2 "offerOwnership(address)" [ payee ] Outsider false;
        c 1 "retire()" [] Outsider false ] );
    ( "safe_migrator", 3,
      [ c 2 "setTarget(address)" [ payee ] Owner true;
        c 2 "setTarget(address)" [ payee ] Outsider false ] );
    ( "checked_wallet_verifier", 3,
      [ c 2 "setWallet(address)" [ payee ] Owner true;
        c 2 "setWallet(address)" [ payee ] Outsider false ] );
    ( "origin_guard", 3,
      [ c 2 "set(uint256)" [ n 13 ] Owner true;
        c 2 "set(uint256)" [ n 13 ] Outsider false ] );
    ( "vault", 3,
      [ inv "deposit()" [] Outsider;
        inv "withdraw(uint256)" [ n 0 ] Outsider;
        c 2 "shutdown()" [] Outsider false ] ) ]

let fleet_weights =
  List.map
    (fun (name, w, _) ->
      match Pat.find name with
      | Some t -> (t, w)
      | None -> invalid_arg ("perfbench: unknown template " ^ name))
    calls

(* One transaction target: a deployed contract and a call, with its
   calldata built once in set-up. *)
type target = { addr : U.t; from : U.t; calldata : string; ok : bool }

(* A fleet contract's calls that do not invalidate its verdict, and
   those that do; each repeated by its weight, so that one uniform draw
   picks a call. *)
let targets_of addr (i : G.instance) =
  let _, _, cs =
    List.find (fun (name, _, _) -> name = i.G.i_template.Pat.t_name) calls
  in
  let expand cs =
    Array.of_list
      (List.concat_map
         (fun c ->
           let calldata =
             Ethainter_crypto.Keccak.selector c.fn
             ^ String.concat "" (List.map U.to_bytes c.args)
           in
           let from = match c.who with Owner -> owner | Outsider -> outsider in
           List.init c.weight (fun _ -> { addr; from; calldata; ok = c.succeeds }))
         cs)
  in
  let inv, plain = List.partition (fun c -> c.invalidates) cs in
  (expand plain, expand inv)

(* Times written by the benchmark's own block observers, registered
   before and after the index's. *)
type marks = {
  mutable block : int;
  mutable f_end : float;  (* the block's last transaction returned *)
  mutable t_a : float;    (* sealed; the index is about to ingest it *)
  mutable t_b : float;    (* the index has ingested it *)
}

type env = {
  net : T.t;
  idx : Index.t;
  jdir : string;
  fleet : (U.t * G.instance) array;
  plain : target array array;       (* per contract *)
  invalidating : target array array;  (* per contract that has such calls *)
  marks : marks;
}

let fleet_size s = if s.tiny then 12 else 48
let warm_blocks s = if s.tiny then 2 else 200

let pick st a = a.(Random.State.int st (Array.length a))

(* The calls of one block: [block_txs] draws of a contract and one of
   its calls, one of them (at a random position) invalidating. *)
let block_calls (env : env) st =
  let p = Random.State.int st block_txs in
  Array.init block_txs (fun k ->
      pick st (pick st (if k = p then env.invalidating else env.plain)))

let expected_outcome (t : target) (r : T.receipt) =
  match r.T.outcome with
  | I.Returned _ -> t.ok
  | I.Reverted _ -> not t.ok
  | I.Failed _ -> false

let rep = ref 0

(* Set-up: fleet, chain, deployment, the durable index with its first
   verdicts, and a warm-up stream of blocks drawn from its own seed. *)
let setup s () =
  P.cache_clear ();
  incr rep;
  let insts =
    G.generate ~seed:s.seed ~fillers ~weights:fleet_weights ~size:(fleet_size s) ()
  in
  let net = T.create () in
  let rich = U.of_string "0xffffffffffffffffffffffff" in
  List.iter (fun a -> T.fund_account net a rich) [ owner; outsider; payee ];
  let fleet =
    Array.of_list
      (List.map
         (fun (i : G.instance) ->
           match (T.deploy net ~from:owner i.G.i_deploy).T.created with
           | Some a -> (a, i)
           | None -> failwith ("chain: deployment failed: " ^ i.G.i_name))
         insts)
  in
  let marks = { block = 0; f_end = 0.0; t_a = 0.0; t_b = 0.0 } in
  T.on_block net (fun _ ->
      marks.t_a <- now ();
      Trace.record_child ~name:"chain.seal" ~t0:marks.f_end ~t1:marks.t_a
        ~req:marks.block);
  let jdir = Filename.concat s.run_dir (Printf.sprintf "journal-%d" !rep) in
  let idx = Index.recover ~journal_dir:jdir net in
  T.on_block net (fun _ ->
      marks.t_b <- now ();
      Trace.record_child ~name:"index.ingest" ~t0:marks.t_a ~t1:marks.t_b
        ~req:marks.block);
  Index.drain idx;
  let targets = Array.map (fun (a, i) -> targets_of a i) fleet in
  let plain = Array.map fst targets in
  let invalidating =
    Array.of_list (List.filter (fun a -> a <> [||]) (Array.to_list (Array.map snd targets)))
  in
  let env = { net; idx; jdir; fleet; plain; invalidating; marks } in
  let st = rng s (-1) in
  for _ = 1 to warm_blocks s do
    let calls = block_calls env st in
    T.in_block net (fun () ->
        Array.iter
          (fun t ->
            let r = T.transact net ~from:t.from ~to_:t.addr t.calldata in
            if not (expected_outcome t r) then
              failwith "chain: unexpected warm-up outcome")
          calls)
  done;
  Index.drain idx;
  env

let discard env =
  Index.close env.idx;
  rm_rf env.jdir

let index_stat idx k =
  match List.assoc_opt k (Index.stats idx) with Some v -> v | None -> 0.0

(* End-of-run checks: the index agrees with a batch sweep of the live
   contracts, every verdict is the template's ground truth, and no
   front end was recomputed. *)
let final_checks s env ~fe_recomputes =
  Index.drain env.idx;
  let live = T.live_contracts env.net in
  let contents = Index.contents env.idx in
  P.cache_clear ();
  let batch =
    S.map ~workers:s.workers
      (fun (_, code) -> S.analyze_request (P.request (P.Runtime code)))
      live
  in
  let same_as_batch =
    List.length contents = List.length live
    && List.for_all2
         (fun (a, code, (r : P.result)) ((b, code'), (r' : P.result)) ->
           U.equal a b && code = code' && r.P.error = None
           && r.P.reports = r'.P.reports)
         contents (List.combine live batch)
  in
  let truth_ok =
    List.for_all
      (fun (a, _, r) ->
        match Array.find_opt (fun (b, _) -> U.equal a b) env.fleet with
        | Some (_, i) ->
            Sweep.verdict_ok ~wrong:(s.sabotage && U.equal a (fst env.fleet.(0))) i r
        | None -> false)
      contents
  in
  let verdicts = List.length contents in
  let ok = same_as_batch && truth_ok && fe_recomputes = 0 in
  Printf.printf
    "chain checks: %d verdicts; index = batch sweep: %b; ground truth: %b; \
     front-end recomputes: %d\n%!"
    verdicts same_as_batch truth_ok fe_recomputes;
  ok

let run s =
  let setup_s, env = repeat_setup ~k:setup_reps ~discard (setup s) in
  let net = env.net and marks = env.marks in
  let st = rng s 1 in
  let lat = Samples.create () in
  let attempted = ref 0 and failed = ref 0 and txs = ref 0 and gas = ref 0 in
  (* traced run only: each block is traced or not at random — a fixed
     alternation would put every 256th block's checkpoint on one side *)
  let coin = rng s 2 in
  let traced_lat = Samples.create () in
  let traced_blocks = ref 0 and traced_txs = ref 0 in
  let wal_bytes = ref 0.0 and wal_samples = ref 0 in
  let live0 = if s.trace then live_bytes () else 0.0 in
  let istat0 = Index.stats env.idx in
  let tel0 = Tel.capture () and prog0 = Ethainter_evm.Program.stats () in
  let words0 = gc_minor_words () in
  let n_blocks = if s.tiny then 20 else blocks_per_second * int_of_float s.seconds in
  let windows = Samples.create () in
  let t_start = now () in
  let w_start = ref t_start in
  while !attempted < n_blocks do
    let traced = s.trace && Random.State.bool coin in
    let block = !attempted in
    marks.block <- block;
    Atomic.set Trace.on traced;
    let j0 = if traced then index_stat env.idx "journal_wal_bytes" else 0.0 in
    let c0 = if traced then index_stat env.idx "journal_checkpoints" else 0.0 in
    let bad = ref false in
    let calls = block_calls env st in
    let b0 = now () in
    Trace.with_span ~req:block "block" (fun () ->
        T.in_block net (fun () ->
            Array.iter
              (fun t ->
                let r =
                  Trace.with_span ~req:block "chain.transact" (fun () ->
                      T.transact net ~from:t.from ~to_:t.addr t.calldata)
                in
                gas := !gas + r.T.gas_used;
                if not (expected_outcome t r) then bad := true)
              (if s.sabotage && block = 0 then
                 Array.mapi (fun k t -> if k = 0 then { t with ok = not t.ok } else t) calls
               else calls);
            marks.f_end <- now ()));
    let dt = now () -. b0 in
    Atomic.set Trace.on false;
    if traced then begin
      if index_stat env.idx "journal_checkpoints" = c0 then begin
        wal_bytes := !wal_bytes +. index_stat env.idx "journal_wal_bytes" -. j0;
        incr wal_samples
      end;
      incr traced_blocks;
      Samples.add traced_lat dt;
      traced_txs := !traced_txs + block_txs
    end
    else Samples.add lat dt;
    incr attempted;
    txs := !txs + block_txs;
    if !attempted mod window = 0 || !attempted = n_blocks then begin
      let t = now () in
      let blocks = ((!attempted - 1) mod window) + 1 in
      Samples.add windows (fi (blocks * block_txs) /. (t -. !w_start));
      w_start := t
    end;
    if !bad then incr failed
  done;
  let words = gc_minor_words () -. words0 in
  let tel = Tel.diff (Tel.capture ()) tel0 in
  let prog1 = Ethainter_evm.Program.stats () in
  let istat1 = Index.stats env.idx in
  let idiff k =
    (match List.assoc_opt k istat1 with Some v -> v | None -> 0.0)
    -. match List.assoc_opt k istat0 with Some v -> v | None -> 0.0
  in
  let live1 = if s.trace then live_bytes () else 0.0 in
  let fe_recomputes = tel.Tel.cache_fe.misses in
  let checks_ok = final_checks s env ~fe_recomputes in
  let recover_ms =
    if not s.trace then 0.0
    else begin
      Index.close env.idx;
      let t0 = now () in
      let idx = Index.recover ~journal_dir:env.jdir net in
      let dt = now () -. t0 in
      Index.close idx;
      1000.0 *. dt
    end
  in
  discard env;
  let lat = Samples.to_array lat in
  let blocks = fi !attempted in
  let e2e =
    [ m "throughput_per_s" "1/s" (median (Samples.to_array windows));
      m "latency_p50_ms" "ms" (1000.0 *. percentile 0.5 lat);
      m "latency_p99_ms" "ms" (1000.0 *. percentile 0.99 lat);
      m "setup_s" "s" setup_s;
      m "peak_rss_mb" "MB" (peak_rss_mb ()) ]
  in
  let layers =
    if not s.trace then []
    else begin
      let sum = Trace.summary () in
      let tb = fi !traced_blocks in
      let per_block name = 1000.0 *. ratio (Trace.self_total sum name) tb in
      let transact_us = 1e6 *. ratio (Trace.self_total sum "chain.transact") (fi !traced_txs) in
      (* per traced block, the time its layer spans cover; compared by
         medians, which the rare checkpoint blocks do not move *)
      let covered : (int, float) Hashtbl.t = Hashtbl.create 1024 in
      List.iter
        (fun (sp : Trace.span) ->
          if sp.Trace.name <> "block" then
            Hashtbl.replace covered sp.Trace.req
              ((try Hashtbl.find covered sp.Trace.req with Not_found -> 0.0)
              +. sp.Trace.t1 -. sp.Trace.t0))
        (Trace.all ());
      let covered = Array.of_list (Hashtbl.fold (fun _ v acc -> v :: acc) covered []) in
      let plain_median = median lat in
      let be = tel.Tel.cache_be in
      [ m "chain.transact_us" "us" transact_us;
        m "chain.seal_ms" "ms" (per_block "chain.seal");
        m "evm.gas_per_tx" "gas" (ratio (fi !gas) (fi !txs));
        m "evm.decodes" "count" (ratio (fi (prog1.decodes - prog0.decodes)) blocks);
        m "index.ingest_ms" "ms" (per_block "index.ingest");
        m "index.invalidations" "count" (ratio (idiff "index_invalidations") blocks);
        m "index.reanalyses" "count" (ratio (idiff "index_reanalyses") blocks);
        m "index.fe_recomputes" "count" (fi fe_recomputes);
        m "journal.appends" "count" (ratio (idiff "journal_appends") blocks);
        m "journal.wal_bytes" "bytes" (ratio !wal_bytes (fi !wal_samples));
        m "journal.checkpoints" "count" (ratio (idiff "journal_checkpoints") blocks);
        m "journal.recover_ms" "ms" recover_ms;
        m "cache.be_misses" "count" (ratio (fi be.misses) blocks);
        m "cache.hit_share" "share" (ratio (fi be.hits) (fi (be.hits + be.misses)));
        m "gc.minor_words_per_op" "words" (ratio words blocks);
        m "gc.live_bytes_per_tx" "bytes" (ratio (live1 -. live0) (fi !txs));
        m "gc.live_mb" "MB" (live1 /. 1048576.0);
        m "trace.overhead_share" "share"
          (ratio (median (Samples.to_array traced_lat)) plain_median -. 1.0);
        m "trace.accounted_share" "share" (ratio (median covered) plain_median) ]
    end
  in
  { attempted = !attempted; failed = !failed; checks_ok; e2e; layers }
