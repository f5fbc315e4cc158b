(* sweep: the paper's whole-chain use (§6). A seeded, mainnet-shaped
   corpus of unique multi-KB contracts is analysed by [Scheduler.map]
   over [nproc] workers calling [Scheduler.analyze_request], with the
   default caches (memory tier only). Every contract is new to the
   caches, so they see only misses and inserts — the write side.

   A run analyses a fixed [contracts_per_second] x --seconds contracts,
   so that every commit does the same work and peak memory compares
   like with like. It goes in shards of [shard] contracts, each
   generated from the run's seed and its index just before its first
   chunk (untimed), so no contract of a run is met twice. The analysis
   caches are cleared between shards, as a sweep of the whole chain in
   bounded memory must: the cache keeps ~0.3 MB per contract and never
   hits on unique code. A run-level check holds the run to that: the
   untraced chunks must see no decoded-program or analysis cache hit.

   Throughput is the median over chunks of [chunk] contracts (one
   [Scheduler.map] call each), which keeps a slow stretch of the host
   from setting the figure. *)

open Common
module G = Ethainter_corpus.Generator
module Pat = Ethainter_corpus.Patterns
module P = Ethainter_core.Pipeline
module S = Ethainter_core.Scheduler
module Tel = Ethainter_core.Telemetry

let fillers = (12, 20)
let contracts_per_second = 700
let shard = 512
let chunk = 256

(* Kinds the analysis must flag: the true vulnerabilities plus its known
   false positives on the template. *)
let expected (i : G.instance) =
  let t = i.G.i_template.Pat.t_truth in
  List.sort_uniq compare (t.Pat.vulnerable @ t.Pat.fp_for)

(* [~wrong:true] corrupts the expectation: the self-check uses it to
   show that the gate reports a wrong verdict as a failure. *)
let verdict_ok ?(wrong = false) (i : G.instance) (r : P.result) =
  let want = expected i in
  let want =
    if not wrong then want
    else
      let k = Ethainter_core.Vulns.AccessibleSelfdestruct in
      if List.mem k want then List.filter (( <> ) k) want
      else List.sort_uniq compare (k :: want)
  in
  r.P.error = None && (not r.P.timed_out) && P.flagged_kinds r = want

let request (i : G.instance) = P.request (P.Runtime i.G.i_runtime)

(* [size] mainnet-shaped contracts from [seed]. The generator gives
   every template at least one contract and rounds the others' shares
   down, so it is asked for a few more and its shuffled output cut. *)
let mainnet ~seed ~size =
  let all =
    Array.of_list (G.mainnet ~seed ~fillers ~size:(size + (size / 10) + 40) ())
  in
  if Array.length all < size then failwith "perfbench: corpus too small";
  Array.sub all 0 size

(* The per-contract work of the traced run, split at the public
   functions [Pipeline.run] composes and called in its order: cache-key
   derivation, decompilation, facts, fixpoint, detectors. Decoding is
   timed apart by calling [Program.of_code] first, so the decompiler's
   own call finds the program in the decoded-program cache. *)
let analyze_in_phases (i : G.instance) =
  let module Cache = Ethainter_core.Cache in
  let module Prog = Ethainter_evm.Program in
  let module Decomp = Ethainter_tac.Decomp in
  let module Tac = Ethainter_tac.Tac in
  let module Facts = Ethainter_core.Facts in
  let module A = Ethainter_core.Analysis in
  let code = i.G.i_runtime and cfg = Ethainter_core.Config.default in
  (* the result key and the front-end key *)
  Trace.with_span "crypto.keccak" (fun () ->
      ignore
        (Cache.key ~version:P.analysis_version
           ~fingerprint:(Ethainter_core.Config.fingerprint cfg) code);
      ignore (Cache.key ~version:P.analysis_version ~fingerprint:"frontend" code));
  ignore (Trace.with_span "evm.decode" (fun () -> Prog.of_code code));
  let p = Trace.with_span "tac.decompile" (fun () -> Decomp.decompile code) in
  let stmts = Tac.loc p in
  let facts = Trace.with_span "facts.compute" (fun () -> Facts.compute p) in
  let a = Trace.with_span "analysis.run" (fun () -> A.run ~cfg facts) in
  let reports = Trace.with_span "analysis.detect" (fun () -> A.detect a) in
  let kinds =
    List.sort_uniq compare (List.map (fun r -> r.Ethainter_core.Vulns.r_kind) reports)
  in
  (kinds = expected i, stmts, a.A.rounds)

let shard_size s = if s.tiny then 48 else shard
let chunk_size s = if s.tiny then 24 else chunk
let warm_size s = if s.tiny then 8 else 256

(* Shard [k] of a run. Its seed mixes the run's seed with [k]; the
   warm-up's seed is negative, so the two never meet. *)
let shard_contracts s k =
  mainnet ~seed:(Hashtbl.hash (s.seed, k)) ~size:(shard_size s)

(* Set-up: a warm-up sweep over a corpus of its own seed, which grows
   the heap and starts the worker domains once, so that no measured
   bytecode is cached before it is timed. *)
let setup s () =
  P.cache_clear ();
  let warm = Array.to_list (mainnet ~seed:(-1 - s.seed) ~size:(warm_size s)) in
  let rs = S.map ~workers:s.workers (fun i -> S.analyze_request (request i)) warm in
  if not (List.for_all2 verdict_ok warm rs) then
    failwith "sweep: a warm-up verdict is wrong";
  P.cache_clear ()

let run s =
  let setup_s, () = repeat_setup ~k:setup_reps ~discard:ignore (setup s) in
  let shard = shard_size s and chunk = chunk_size s in
  let contracts = ref [||] in
  let lat = Samples.create () and chunk_rates = Samples.create () in
  let attempted = ref 0 and failed = ref 0 in
  (* traced run only: untraced and traced chunks *)
  let plain_wall = ref 0.0 and plain_n = ref 0 and plain_busy = ref 0.0 in
  let traced_wall = ref 0.0 and traced_n = ref 0 in
  let stmts = ref 0 and rounds = ref 0 and phase_n = ref 0 in
  let pipeline_n = ref 0 in
  (* cache counters restart at every clear, so they are summed per shard *)
  let fe_misses = ref 0 and be_misses = ref 0 and evictions = ref 0 in
  let count_shard () =
    let t = Tel.capture () in
    fe_misses := !fe_misses + t.Tel.cache_fe.misses;
    be_misses := !be_misses + t.Tel.cache_be.misses;
    evictions := !evictions + t.Tel.cache_fe.evictions + t.Tel.cache_be.evictions
  in
  (* traced run only: each chunk is traced or not at random *)
  let coin = rng s 2 in
  let tel0 = Tel.capture () and prog0 = Ethainter_evm.Program.stats () in
  let words0 = gc_minor_words () and major0 = gc_major_collections () in
  (* untraced chunks only: cache hits, which unique code never makes *)
  let prog_hits = ref 0 and analysis_hits = ref 0 in
  let n_total =
    if s.tiny then 2 * shard else contracts_per_second * int_of_float s.seconds
  in
  let k = ref 0 in
  while !k < n_total do
    if !k mod shard = 0 then begin
      count_shard ();
      P.cache_clear ();
      contracts := shard_contracts s (!k / shard)
    end;
    let len = min (n_total - !k) (min chunk (shard - (!k mod shard))) in
    let batch = List.init len (fun j -> (!k + j, !contracts.((!k + j) mod shard))) in
    let traced = s.trace && Random.State.bool coin in
    let hits0 = Ethainter_evm.Program.(stats ()).hits and chunk_tel0 = Tel.capture () in
    Atomic.set Trace.on traced;
    let t0 = now () in
    let results =
      S.map ~workers:s.workers
        (fun (op, i) ->
          let a = now () in
          if not traced then begin
            let r = S.analyze_request (request i) in
            (verdict_ok ~wrong:(s.sabotage && op = 0) i r, now () -. a, 0, 0)
          end
          else
            Trace.with_span ~req:op "op" (fun () ->
                if op mod 2 = 0 then begin
                  let r =
                    Trace.with_span ~req:op "pipeline.run" (fun () ->
                        S.analyze_request (request i))
                  in
                  (verdict_ok i r, now () -. a, 0, 0)
                end
                else begin
                  let ok, st, rd = analyze_in_phases i in
                  (ok, now () -. a, st, rd)
                end))
        batch
    in
    let wall = now () -. t0 in
    Atomic.set Trace.on false;
    if not traced then begin
      let d = Tel.diff (Tel.capture ()) chunk_tel0 in
      prog_hits := !prog_hits + Ethainter_evm.Program.(stats ()).hits - hits0;
      analysis_hits := !analysis_hits + d.Tel.cache_fe.hits + d.Tel.cache_be.hits
    end;
    List.iter2
      (fun (op, _) (ok, dt, st, rd) ->
        incr attempted;
        if not ok then incr failed;
        if traced then begin
          if op mod 2 = 1 then begin
            stmts := !stmts + st;
            rounds := !rounds + rd;
            incr phase_n
          end
          else incr pipeline_n
        end
        else begin
          Samples.add lat dt;
          plain_busy := !plain_busy +. dt
        end)
      batch results;
    if traced then begin
      traced_wall := !traced_wall +. wall;
      traced_n := !traced_n + len
    end
    else begin
      plain_wall := !plain_wall +. wall;
      plain_n := !plain_n + len;
      Samples.add chunk_rates (fi len /. wall)
    end;
    k := !k + len;
  done;
  count_shard ();
  let checks_ok = !prog_hits = 0 && !analysis_hits = 0 in
  Printf.printf
    "sweep checks: %d contracts; cache hits in untraced chunks: decoded \
     programs %d, analyses %d\n%!"
    !attempted !prog_hits !analysis_hits;
  let tel = Tel.diff (Tel.capture ()) tel0 in
  let prog1 = Ethainter_evm.Program.stats () in
  let lat = Samples.to_array lat in
  let e2e =
    [ m "throughput_per_s" "1/s" (median (Samples.to_array chunk_rates));
      m "latency_p50_ms" "ms" (1000.0 *. percentile 0.5 lat);
      m "latency_p99_ms" "ms" (1000.0 *. percentile 0.99 lat);
      m "setup_s" "s" setup_s;
      m "peak_rss_mb" "MB" (peak_rss_mb ()) ]
  in
  let layers =
    if not s.trace then []
    else begin
      let sum = Trace.summary () in
      let per_phase name = 1000.0 *. ratio (Trace.self_total sum name) (fi !phase_n) in
      let phase_names =
        [ "crypto.keccak"; "evm.decode"; "tac.decompile"; "facts.compute";
          "analysis.run"; "analysis.detect" ]
      in
      let phases_ms = List.fold_left (fun acc n -> acc +. per_phase n) 0.0 phase_names in
      let run_ms =
        1000.0 *. ratio (Trace.total sum "pipeline.run") (fi !pipeline_n)
      in
      let op_self_ms =
        1000.0 *. ratio (Trace.self_total sum "op") (fi (Trace.spans_of sum "op"))
      in
      let pipeline_self = run_ms -. phases_ms in
      (* per traced contract: every phase, Pipeline.run's own share, and
         the benchmark's bookkeeping around each contract *)
      let accounted_ms = phases_ms +. pipeline_self +. op_self_ms in
      let plain_per_op = ratio !plain_wall (fi !plain_n) in
      let traced_per_op = ratio !traced_wall (fi !traced_n) in
      let plain_latency_ms = 1000.0 *. ratio !plain_busy (fi !plain_n) in
      let lookups =
        tel.Tel.intern_local_hits + tel.Tel.intern_shared_hits + tel.Tel.intern_inserts
      in
      [ m "evm.decode_ms" "ms" (per_phase "evm.decode");
        m "tac.decompile_ms" "ms" (per_phase "tac.decompile");
        m "tac.stmts" "count" (ratio (fi !stmts) (fi !phase_n));
        m "facts.compute_ms" "ms" (per_phase "facts.compute");
        m "analysis.run_ms" "ms" (per_phase "analysis.run");
        m "analysis.rounds" "count" (ratio (fi !rounds) (fi !phase_n));
        m "analysis.detect_ms" "ms" (per_phase "analysis.detect");
        m "pipeline.self_ms" "ms" pipeline_self;
        m "crypto.keccak_ms" "ms" (per_phase "crypto.keccak");
        m "evm.decodes" "count" (ratio (fi (prog1.decodes - prog0.decodes)) (fi !attempted));
        m "cache.fe_misses" "count" (ratio (fi !fe_misses) (fi (!plain_n + !pipeline_n)));
        m "cache.be_misses" "count" (ratio (fi !be_misses) (fi (!plain_n + !pipeline_n)));
        m "cache.evictions" "count" (ratio (fi !evictions) (fi (!plain_n + !pipeline_n)));
        m "scheduler.busy_share" "share" (ratio !plain_busy (!plain_wall *. fi s.workers));
        m "runtime.intern_local_hit_share" "share" (ratio (fi tel.Tel.intern_local_hits) (fi lookups));
        m "gc.minor_words_per_op" "words" (ratio (gc_minor_words () -. words0) (fi !attempted));
        m "gc.major_collections" "count" (fi (gc_major_collections () - major0));
        m "gc.live_mb" "MB" (live_bytes () /. 1048576.0);
        m "trace.overhead_share" "share" (ratio traced_per_op plain_per_op -. 1.0);
        m "trace.accounted_share" "share" (ratio accounted_ms plain_latency_ms) ]
    end
  in
  { attempted = !attempted; failed = !failed; checks_ok; e2e; layers }
