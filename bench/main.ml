(* Benchmark harness: one Bechamel benchmark per reproduced table /
   figure of the paper's evaluation (§6), measuring the cost of the
   computation that regenerates it, followed by a full print-out of
   every table (the actual reproduction output).

   Run with: dune exec bench/main.exe
   Fast mode (skip timing, print tables only):
     dune exec bench/main.exe -- --tables-only
   Scaling comparison only (sequential-vs-parallel scheduler and
   naive-vs-indexed Datalog joins, writes BENCH_pr1.json):
     dune exec bench/main.exe -- --pr1-only
   Result-cache comparison only (cold vs warm sweep, hit rate, writes
   BENCH_pr2.json):
     dune exec bench/main.exe -- --pr2-only
   Phase-split cache only (4-config Fig. 8 ablation sweep, cross-config
   front-end reuse vs the PR 2 single-tier behavior, writes
   BENCH_pr3.json):
     dune exec bench/main.exe -- --pr3-only
   Robustness only (deadline-poll overhead on vs off, adversarial
   timeout tail, writes BENCH_pr4.json):
     dune exec bench/main.exe -- --pr4-only
   Query-planner comparison only (planned vs per-probe-indexed vs
   naive Datalog, declarative ifspec sweep per strategy, cold
   end-to-end sweep, intern-table stats, writes BENCH_pr5.json):
     dune exec bench/main.exe -- --pr5-only
   Serving daemon only (closed-loop capacity, open-loop contracts/s +
   p50/p99 at three offered loads, shed rate at overload, writes
   BENCH_pr6.json):
     dune exec bench/main.exe -- --pr6-only
   Streaming index only (deploy/rotate/destroy scenario: blocks/s,
   verdict lag, analyses and re-analyses — storage writes cost none —,
   writes BENCH_pr7.json):
     dune exec bench/main.exe -- --pr7-only
   Pre-decoded EVM programs only (chain-replay tx/s bytewise vs
   decoded, decode-once counters, receipt-stream identity, Kill
   campaign latency per engine, writes BENCH_pr8.json):
     dune exec bench/main.exe -- --pr8-only
   Durability only (warm recovery vs cold re-sweep, journal ingest
   overhead, poison-pill containment, writes BENCH_pr9.json):
     dune exec bench/main.exe -- --pr9-only
   Word representation + threaded dispatch only (word-op ops/s and
   minor-heap words/op for the boxed-int64 reference vs the int-limb
   impl vs the destructive _into variants, the PR 8 chain replay and
   Kill campaign on the threaded engine vs the BENCH_pr8.json
   baselines, writes BENCH_pr10.json):
     dune exec bench/main.exe -- --pr10-only *)

open Bechamel
open Toolkit
module E = Ethainter_experiments.Experiments
module P = Ethainter_core.Pipeline
module S = Ethainter_core.Scheduler
module D = Ethainter_datalog.Datalog
module G = Ethainter_corpus.Generator

(* Benchmarks run the analysis kernels at a reduced corpus size so a
   full Bechamel run stays in seconds; the printed tables below use the
   full default sizes. *)
let bench_size = 60

(* per-table/figure benchmark kernels *)
let t1 () = ignore (E.t1_flagged ~size:bench_size ())
let f6 () = ignore (E.f6_precision ~size:(4 * bench_size) ~sample:10 ())
let s1 () = ignore (E.s1_securify ~size:bench_size ~sample:10 ())
let f7 () = ignore (E.f7_securify2 ~size:bench_size ())
let te () = ignore (E.te_teether ~size:bench_size ())
let e1 () = ignore (E.e1_kill ~size:(bench_size / 2) ())
let rq2 () = ignore (E.rq2_efficiency ~size:bench_size ())
let f8a () = ignore (E.f8a ~size:bench_size ())
let f8b () = ignore (E.f8b ~size:bench_size ())
let f8c () = ignore (E.f8c ~size:bench_size ())

(* component micro-benchmarks: the pipeline stages behind RQ2 *)
let victim_runtime =
  Ethainter_minisol.Codegen.compile_source_runtime
    {|contract Victim {
        mapping(address => bool) admins;
        mapping(address => bool) users;
        address owner;
        modifier onlyAdmins { require(admins[msg.sender]); _; }
        modifier onlyUsers { require(users[msg.sender]); _; }
        constructor() { owner = msg.sender; }
        function registerSelf() public { users[msg.sender] = true; }
        function referUser(address u) public onlyUsers { users[u] = true; }
        function referAdmin(address a) public onlyUsers { admins[a] = true; }
        function changeOwner(address o) public onlyAdmins { owner = o; }
        function kill() public onlyAdmins { selfdestruct(owner); }
      }|}

let decompile () = ignore (Ethainter_tac.Decomp.decompile victim_runtime)

let analyze_one () = ignore (P.run (P.request (P.Runtime victim_runtime)))

let keccak () = ignore (Ethainter_crypto.Keccak.hash (String.make 1000 'x'))

let tests =
  [ Test.make ~name:"T1-flagged-table" (Staged.stage t1);
    Test.make ~name:"F6-precision" (Staged.stage f6);
    Test.make ~name:"S1-securify" (Staged.stage s1);
    Test.make ~name:"F7-securify2" (Staged.stage f7);
    Test.make ~name:"TE-teether" (Staged.stage te);
    Test.make ~name:"E1-kill-campaign" (Staged.stage e1);
    Test.make ~name:"RQ2-throughput" (Staged.stage rq2);
    Test.make ~name:"F8a-no-storage" (Staged.stage f8a);
    Test.make ~name:"F8b-no-guards" (Staged.stage f8b);
    Test.make ~name:"F8c-conservative" (Staged.stage f8c);
    Test.make ~name:"stage-decompile" (Staged.stage decompile);
    Test.make ~name:"stage-analyze-contract" (Staged.stage analyze_one);
    Test.make ~name:"stage-keccak-1k" (Staged.stage keccak) ]

let benchmark () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let test = Test.make_grouped ~name:"ethainter" tests in
  let results = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let analyzed =
    List.map (fun instance -> Analyze.all ols instance results) instances
  in
  let merged = Analyze.merge ols instances analyzed in
  Hashtbl.iter
    (fun measure tbl ->
      Printf.printf "\n== %s (ns/run) ==\n" measure;
      let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl [] in
      List.iter
        (fun (name, result) ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-45s %14.0f\n" name est
          | _ -> Printf.printf "%-45s %14s\n" name "n/a")
        (List.sort compare rows))
    merged

(* ------------------------------------------------------------------ *)
(* PR1 scaling comparison: sequential vs parallel corpus analysis and  *)
(* naive vs indexed Datalog joins, on seeded workloads, emitted as     *)
(* machine-readable BENCH_pr1.json so later PRs have a trajectory.     *)
(* ------------------------------------------------------------------ *)

let time_best ?(reps = 3) (f : unit -> unit) : float =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    f ();
    best := min !best (Unix.gettimeofday () -. t0)
  done;
  !best

(* the indexed-join showcase: transitive closure over a seeded random
   graph — every recursive step joins path against edge *)
let tc_workload ~nodes ~edges =
  let p = D.create () in
  D.declare p "edge" 2;
  D.declare p "path" 2;
  D.add_rule p
    ("path", [ D.v "x"; D.v "y" ])
    [ D.Pos ("edge", [ D.v "x"; D.v "y" ]) ];
  D.add_rule p
    ("path", [ D.v "x"; D.v "z" ])
    [ D.Pos ("path", [ D.v "x"; D.v "y" ]); D.Pos ("edge", [ D.v "y"; D.v "z" ]) ];
  let state = ref 123456789 in
  let rand n =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod n
  in
  let facts =
    [ ( "edge",
        List.init edges (fun _ ->
            [| D.Sym (Printf.sprintf "n%d" (rand nodes));
               D.Sym (Printf.sprintf "n%d" (rand nodes)) |]) ) ]
  in
  (p, facts)

let bench_pr1 () =
  print_endline "";
  print_endline "PR1 scaling comparison (scheduler + indexed joins):";
  (* the result cache would let the second timed run replay the first
     (and the parallel run replay the sequential one) — disable it so
     these numbers keep measuring the raw analysis *)
  P.set_cache_enabled false;
  (* corpus analysis: sequential List.map vs the Domain worker pool *)
  let corpus_size = 150 and corpus_seed = 42 in
  let corpus = G.mainnet ~seed:corpus_seed ~size:corpus_size () in
  let runtimes = List.map (fun (i : G.instance) -> i.G.i_runtime) corpus in
  let workers = S.default_workers () in
  let seq_s =
    time_best (fun () ->
        ignore (List.map (fun c -> P.run (P.request (P.Runtime c))) runtimes))
  in
  let par_s = time_best (fun () -> ignore (S.analyze_corpus ~workers runtimes)) in
  let par_speedup = seq_s /. par_s in
  Printf.printf
    "  corpus (n=%d): sequential %.3f s, parallel %.3f s (%d workers) -> %.2fx\n"
    corpus_size seq_s par_s workers par_speedup;
  (* Datalog joins: naive full-relation scans vs hash indexes *)
  let nodes = 250 and edges = 900 in
  let p, facts = tc_workload ~nodes ~edges in
  let naive_s = time_best (fun () -> ignore (D.solve ~indexed:false p facts)) in
  let indexed_s = time_best (fun () -> ignore (D.solve ~indexed:true p facts)) in
  let idx_speedup = naive_s /. indexed_s in
  Printf.printf
    "  datalog TC (%d nodes, %d edges): naive %.3f s, indexed %.3f s -> %.2fx\n"
    nodes edges naive_s indexed_s idx_speedup;
  let combined = par_speedup *. idx_speedup in
  Printf.printf "  combined speedup: %.2fx\n" combined;
  let oc = open_out "BENCH_pr1.json" in
  Printf.fprintf oc
    {|{
  "pr": 1,
  "machine_cores": %d,
  "scheduler": {
    "corpus_size": %d,
    "corpus_seed": %d,
    "workers": %d,
    "sequential_s": %.6f,
    "parallel_s": %.6f,
    "speedup": %.4f
  },
  "datalog_joins": {
    "workload": "transitive_closure",
    "nodes": %d,
    "edges": %d,
    "naive_s": %.6f,
    "indexed_s": %.6f,
    "speedup": %.4f
  },
  "combined_speedup": %.4f
}
|}
    (Domain.recommended_domain_count ())
    corpus_size corpus_seed workers seq_s par_s par_speedup
    nodes edges naive_s indexed_s idx_speedup combined;
  close_out oc;
  P.set_cache_enabled true;
  print_endline "  wrote BENCH_pr1.json"

(* ------------------------------------------------------------------ *)
(* PR2: content-addressed result cache. Cold sweep vs warm re-sweep of *)
(* the same corpus, hit rate, and a differential check that cached     *)
(* results are byte-identical to an uncached run; emitted as           *)
(* BENCH_pr2.json.                                                     *)
(* ------------------------------------------------------------------ *)

(* identical up to wall-clock: everything but elapsed_s *)
let normalize (r : P.result) = { r with P.elapsed_s = 0.0 }

let bench_pr2 () =
  print_endline "";
  print_endline "PR2 result cache (cold sweep vs warm re-sweep):";
  let corpus_size = 150 and corpus_seed = 42 in
  let corpus = G.mainnet ~seed:corpus_seed ~size:corpus_size () in
  let runtimes = List.map (fun (i : G.instance) -> i.G.i_runtime) corpus in
  P.set_cache_enabled true;
  P.cache_clear ();
  let t0 = Unix.gettimeofday () in
  let cold_results = S.analyze_corpus runtimes in
  let cold_s = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let warm_results = S.analyze_corpus runtimes in
  let warm_s = Unix.gettimeofday () -. t0 in
  let stats = P.cache_stats () in
  let hit_rate = Ethainter_core.Cache.hit_rate stats in
  P.set_cache_enabled false;
  let uncached_results = S.analyze_corpus runtimes in
  P.set_cache_enabled true;
  let identical =
    List.for_all2
      (fun a b -> normalize a = normalize b)
      warm_results uncached_results
    && List.for_all2
         (fun a b -> normalize a = normalize b)
         cold_results warm_results
  in
  let speedup = if warm_s > 0.0 then cold_s /. warm_s else infinity in
  Printf.printf
    "  corpus (n=%d): cold %.3f s, warm %.3f s -> %.1fx, %.1f%% hit rate\n"
    corpus_size cold_s warm_s speedup (100.0 *. hit_rate);
  Printf.printf "  cached == uncached (reports byte-identical): %b\n" identical;
  let oc = open_out "BENCH_pr2.json" in
  Printf.fprintf oc
    {|{
  "pr": 2,
  "machine_cores": %d,
  "cache": {
    "corpus_size": %d,
    "corpus_seed": %d,
    "cold_sweep_s": %.6f,
    "warm_sweep_s": %.6f,
    "warm_speedup": %.4f,
    "hit_rate": %.4f,
    "memory_hits": %d,
    "misses": %d,
    "evictions": %d,
    "identical_to_uncached": %b
  }
}
|}
    (Domain.recommended_domain_count ())
    corpus_size corpus_seed cold_s warm_s speedup hit_rate
    stats.Ethainter_core.Cache.hits stats.Ethainter_core.Cache.misses
    stats.Ethainter_core.Cache.evictions identical;
  close_out oc;
  print_endline "  wrote BENCH_pr2.json"

(* ------------------------------------------------------------------ *)
(* PR3: phase-split cache. The Fig. 8 ablation protocol — one corpus   *)
(* under four configs — with cross-config front-end reuse, against the *)
(* PR 2 single-tier behavior (every config pays its own decompilation+ *)
(* facts pass, simulated by flushing the cache between configs);       *)
(* emitted as BENCH_pr3.json.                                          *)
(* ------------------------------------------------------------------ *)

let bench_pr3 () =
  print_endline "";
  print_endline
    "PR3 phase-split cache (4-config ablation sweep, front-end reuse):";
  let corpus_size = 150 and corpus_seed = 42 in
  let corpus = G.mainnet ~seed:corpus_seed ~size:corpus_size () in
  let runtimes = List.map (fun (i : G.instance) -> i.G.i_runtime) corpus in
  let module C = Ethainter_core.Config in
  let configs =
    [ C.default; C.no_storage_model; C.no_guard_model; C.conservative ]
  in
  let sweep cfg =
    S.analyze_requests
      (List.map (fun code -> P.request ~cfg (P.Runtime code)) runtimes)
  in
  P.set_cache_enabled true;
  (* PR 2 baseline: no cross-config sharing existed (every key carried
     the config fingerprint), so flushing between configs reproduces
     its cost profile exactly *)
  let t0 = Unix.gettimeofday () in
  List.iter (fun cfg -> P.cache_clear (); ignore (sweep cfg)) configs;
  let single_tier_s = Unix.gettimeofday () -. t0 in
  (* phase-split: one shared front end, four back-end passes *)
  P.cache_clear ();
  let t0 = Unix.gettimeofday () in
  let split_results = List.map sweep configs in
  let split_s = Unix.gettimeofday () -. t0 in
  let fe = P.frontend_cache_stats () in
  let be = P.cache_stats () in
  let distinct =
    List.length (List.sort_uniq compare runtimes)
  in
  (* differential: phase-split results byte-identical to uncached runs
     for all four configs *)
  P.set_cache_enabled false;
  let uncached_results = List.map sweep configs in
  P.set_cache_enabled true;
  let identical =
    List.for_all2
      (fun cached uncached ->
        List.for_all2
          (fun a b -> normalize a = normalize b)
          cached uncached)
      split_results uncached_results
  in
  let speedup = if split_s > 0.0 then single_tier_s /. split_s else infinity in
  Printf.printf
    "  corpus (n=%d, %d distinct) x %d configs: single-tier %.3f s, \
     phase-split %.3f s -> %.2fx\n"
    (List.length runtimes) distinct (List.length configs) single_tier_s
    split_s speedup;
  Printf.printf
    "  front-end passes: %d (misses) for %d distinct contracts, %d reuses\n"
    fe.Ethainter_core.Cache.misses distinct
    (fe.Ethainter_core.Cache.hits + fe.Ethainter_core.Cache.disk_hits);
  Printf.printf "  phase-split == uncached (all configs): %b\n" identical;
  let oc = open_out "BENCH_pr3.json" in
  Printf.fprintf oc
    {|{
  "pr": 3,
  "machine_cores": %d,
  "phase_split": {
    "corpus_size": %d,
    "corpus_seed": %d,
    "distinct_contracts": %d,
    "configs": %d,
    "single_tier_s": %.6f,
    "split_s": %.6f,
    "speedup": %.4f,
    "frontend_misses": %d,
    "frontend_hits": %d,
    "backend_misses": %d,
    "backend_hits": %d,
    "identical_to_uncached": %b
  }
}
|}
    (Domain.recommended_domain_count ())
    corpus_size corpus_seed distinct (List.length configs)
    single_tier_s split_s speedup
    fe.Ethainter_core.Cache.misses
    (fe.Ethainter_core.Cache.hits + fe.Ethainter_core.Cache.disk_hits)
    be.Ethainter_core.Cache.misses
    (be.Ethainter_core.Cache.hits + be.Ethainter_core.Cache.disk_hits)
    identical;
  close_out oc;
  print_endline "  wrote BENCH_pr3.json"

(* ------------------------------------------------------------------ *)
(* PR4: robustness. (a) The cost of preemptive cancellation: a clean   *)
(* uncached corpus sweep with the amortized deadline polls disabled    *)
(* vs enabled (target: < 2% overhead). (b) The timeout tail:           *)
(* adversarial bytecode under a tight budget must return within 1.25x  *)
(* of it. Emitted as BENCH_pr4.json.                                   *)
(* ------------------------------------------------------------------ *)

(* A long jump chain: [n] blocks of JUMPDEST; PUSH2 next; JUMP — the
   worklist decompiler walks every block, pass after pass, so a tight
   budget exercises the mid-decompile deadline, not the phase-boundary
   checks. *)
let jump_chain_bytecode n =
  let b = Buffer.create (5 * n) in
  for k = 0 to n - 1 do
    let target = if k = n - 1 then 0 else 5 * (k + 1) in
    Buffer.add_char b '\x5b';
    Buffer.add_char b '\x61';
    Buffer.add_char b (Char.chr ((target lsr 8) land 0xff));
    Buffer.add_char b (Char.chr (target land 0xff));
    Buffer.add_char b '\x56'
  done;
  Buffer.contents b

let bench_pr4 () =
  let module DL = Ethainter_core.Deadline in
  print_endline "";
  print_endline "PR4 robustness (deadline-poll overhead + timeout tail):";
  (* the cost of the poll hook itself, isolated: a counted loop with
     and without the call. This is the per-iteration price every hot
     loop pays for being cancellable (~a domain-local load, a
     decrement and a branch). *)
  let poll_ns =
    let n = 50_000_000 in
    let sink = ref 0 in
    let base =
      time_best (fun () -> for i = 1 to n do sink := !sink + i done)
    in
    let polled =
      time_best (fun () ->
          for i = 1 to n do
            sink := !sink + i;
            DL.poll ()
          done)
    in
    (polled -. base) /. float_of_int n *. 1e9
  in
  Printf.printf "  poll hook: %.2f ns/call (interval %d)\n" poll_ns
    DL.poll_interval;
  let corpus_size = 300 and corpus_seed = 42 in
  let corpus = G.mainnet ~seed:corpus_seed ~size:corpus_size () in
  let runtimes = List.map (fun (i : G.instance) -> i.G.i_runtime) corpus in
  let workers = S.default_workers () in
  let cores = Domain.recommended_domain_count () in
  (* uncached, so every sweep pays the full analysis the polls sit in *)
  P.set_cache_enabled false;
  let sweep () = ignore (S.analyze_corpus ~workers runtimes) in
  (* warm up the allocator and page cache, then alternate off/on pairs
     so slow drift (GC, the machine) hits both sides of each pair
     equally; the median per-pair ratio is robust to the odd
     perturbed run *)
  sweep ();
  let pairs = 16 in
  let timed enabled =
    DL.set_enabled enabled;
    let t0 = Unix.gettimeofday () in
    sweep ();
    Unix.gettimeofday () -. t0
  in
  let ratios =
    (* alternate which side runs first, so within-pair warmth/frequency
       drift doesn't systematically favor one side *)
    List.init pairs (fun i ->
        let off, on =
          if i mod 2 = 0 then
            let off = timed false in (off, timed true)
          else
            let on = timed true in (timed false, on)
        in
        (on /. off, off, on))
  in
  DL.set_enabled true;
  let sorted = List.sort compare ratios in
  let ratio_med, off_s, on_s = List.nth sorted (pairs / 2) in
  let overhead_pct = (ratio_med -. 1.0) *. 100.0 in
  Printf.printf
    "  corpus (n=%d, %d workers, %d cores): enforcement off %.3f s, on \
     %.3f s -> %+.2f%% overhead (median of %d pairs)\n"
    corpus_size workers cores off_s on_s overhead_pct pairs;
  (* the timeout tail: how long past its budget does a hostile input
     actually run? *)
  let adversarial_blocks = 20000 in
  let code = jump_chain_bytecode adversarial_blocks in
  let budget_s = 0.05 in
  let t0 = Unix.gettimeofday () in
  let r = P.run (P.request ~timeout_s:budget_s (P.Runtime code)) in
  let wall_s = Unix.gettimeofday () -. t0 in
  let ratio = wall_s /. budget_s in
  P.set_cache_enabled true;
  Printf.printf
    "  adversarial decompile (%d blocks, %.0f ms budget): timed_out %b, \
     returned in %.1f ms (%.2fx budget, bound 1.25x)\n"
    adversarial_blocks (budget_s *. 1000.0) r.P.timed_out (wall_s *. 1000.0)
    ratio;
  let oc = open_out "BENCH_pr4.json" in
  Printf.fprintf oc
    {|{
  "pr": 4,
  "machine_cores": %d,
  "workers": %d,
  "deadline_poll_overhead": {
    "corpus_size": %d,
    "corpus_seed": %d,
    "poll_interval": %d,
    "poll_ns_per_call": %.4f,
    "enforcement_disabled_s": %.6f,
    "enforcement_enabled_s": %.6f,
    "overhead_pct": %.4f
  },
  "timeout_tail": {
    "adversarial_blocks": %d,
    "budget_s": %.6f,
    "wall_s": %.6f,
    "ratio": %.4f,
    "timed_out": %b,
    "within_1_25x": %b
  }
}
|}
    cores workers corpus_size corpus_seed DL.poll_interval poll_ns off_s
    on_s overhead_pct adversarial_blocks budget_s wall_s ratio
    r.P.timed_out
    (r.P.timed_out && ratio <= 1.25);
  close_out oc;
  print_endline "  wrote BENCH_pr4.json"

(* ------------------------------------------------------------------ *)
(* PR5: compile-once query planner. (a) The PR 1 TC workload under all  *)
(* three strategies — compile-once planned (slot envs, static          *)
(* adornments, interned constants, delta indexes) vs the PR 1          *)
(* per-probe indexed evaluator vs naive scans. (b) The declarative     *)
(* ifspec pass re-run per strategy over pre-decompiled corpus facts,   *)
(* isolating the Datalog engine inside the real analysis. (c) A cold   *)
(* uncached end-to-end sweep at the PR 4 scale — directly comparable   *)
(* to BENCH_pr4.json's enforcement_enabled_s. Plus planner and         *)
(* intern-table counters. Emitted as BENCH_pr5.json.                   *)
(* ------------------------------------------------------------------ *)

let bench_pr5 () =
  let module DF = Ethainter_core.Datalog_frontend in
  let module F = Ethainter_core.Facts in
  let module I = Ethainter_runtime.Intern in
  print_endline "";
  print_endline "PR5 query planner (compile-once plans + interned constants):";
  (* (a) the PR 1 microbenchmark, for trajectory comparability *)
  let nodes = 250 and edges = 900 in
  let p, facts = tc_workload ~nodes ~edges in
  let naive_s =
    time_best (fun () -> ignore (D.solve ~strategy:D.Naive p facts))
  in
  let indexed_s =
    time_best (fun () -> ignore (D.solve ~strategy:D.Indexed p facts))
  in
  let planned_s =
    time_best (fun () -> ignore (D.solve ~strategy:D.Planned p facts))
  in
  let tc_vs_naive = naive_s /. planned_s in
  let tc_vs_indexed = indexed_s /. planned_s in
  Printf.printf
    "  datalog TC (%d nodes, %d edges): naive %.3f s, indexed %.3f s, \
     planned %.3f s -> %.2fx vs naive, %.2fx vs indexed\n"
    nodes edges naive_s indexed_s planned_s tc_vs_naive tc_vs_indexed;
  (* (b) the declarative pass of the real analysis, engine isolated:
     decompile + fact extraction happen once, outside the timers *)
  let corpus_size = 150 and corpus_seed = 42 in
  let corpus = G.mainnet ~seed:corpus_seed ~size:corpus_size () in
  let all_facts =
    List.map
      (fun (i : G.instance) ->
        F.compute (Ethainter_tac.Decomp.decompile i.G.i_runtime))
      corpus
  in
  let ifspec strategy =
    time_best (fun () ->
        List.iter (fun f -> ignore (DF.run ~strategy f)) all_facts)
  in
  let if_naive_s = ifspec D.Naive in
  let if_indexed_s = ifspec D.Indexed in
  let if_planned_s = ifspec D.Planned in
  let if_vs_indexed = if_indexed_s /. if_planned_s in
  Printf.printf
    "  ifspec pass (n=%d contracts, facts precomputed): naive %.3f s, \
     indexed %.3f s, planned %.3f s -> %.2fx vs indexed\n"
    corpus_size if_naive_s if_indexed_s if_planned_s if_vs_indexed;
  (* (c) cold uncached end-to-end sweep at the PR 4 scale; compare
     against enforcement_enabled_s in BENCH_pr4.json *)
  let e2e_size = 300 in
  let e2e = G.mainnet ~seed:corpus_seed ~size:e2e_size () in
  let runtimes = List.map (fun (i : G.instance) -> i.G.i_runtime) e2e in
  let workers = S.default_workers () in
  P.set_cache_enabled false;
  ignore (S.analyze_corpus ~workers runtimes);
  let cold_s = time_best (fun () -> ignore (S.analyze_corpus ~workers runtimes)) in
  P.set_cache_enabled true;
  let cps = float_of_int e2e_size /. cold_s in
  Printf.printf
    "  end-to-end cold sweep (n=%d, %d workers, uncached): %.3f s \
     (%.1f contracts/s; PR4-comparable)\n"
    e2e_size workers cold_s cps;
  let ds = D.stats () in
  let it = I.stats () in
  let total_lookups = it.I.local_hits + it.I.shared_hits + it.I.inserts in
  let local_rate =
    if total_lookups > 0 then
      float_of_int it.I.local_hits /. float_of_int total_lookups
    else 0.0
  in
  Printf.printf
    "  planner: %d plans built, %d cache reuses\n"
    ds.D.plans_built ds.D.plan_reuses;
  Printf.printf
    "  intern table: %d distinct symbols, %d lookups, %.1f%% served \
     lock-free from domain-local caches\n"
    it.I.interned total_lookups (100.0 *. local_rate);
  let oc = open_out "BENCH_pr5.json" in
  Printf.fprintf oc
    {|{
  "pr": 5,
  "machine_cores": %d,
  "datalog_tc": {
    "workload": "transitive_closure",
    "nodes": %d,
    "edges": %d,
    "naive_s": %.6f,
    "indexed_s": %.6f,
    "planned_s": %.6f,
    "planned_vs_naive": %.4f,
    "planned_vs_indexed": %.4f
  },
  "ifspec_sweep": {
    "corpus_size": %d,
    "corpus_seed": %d,
    "naive_s": %.6f,
    "indexed_s": %.6f,
    "planned_s": %.6f,
    "planned_vs_indexed": %.4f
  },
  "end_to_end": {
    "corpus_size": %d,
    "corpus_seed": %d,
    "workers": %d,
    "cold_sweep_s": %.6f,
    "contracts_per_s": %.4f,
    "comparable_to": "BENCH_pr4.json enforcement_enabled_s"
  },
  "planner": {
    "plans_built": %d,
    "plan_reuses": %d
  },
  "intern": {
    "interned": %d,
    "local_hits": %d,
    "shared_hits": %d,
    "inserts": %d,
    "local_hit_rate": %.4f
  }
}
|}
    (Domain.recommended_domain_count ())
    nodes edges naive_s indexed_s planned_s tc_vs_naive tc_vs_indexed
    corpus_size corpus_seed if_naive_s if_indexed_s if_planned_s if_vs_indexed
    e2e_size corpus_seed workers cold_s cps
    ds.D.plans_built ds.D.plan_reuses
    it.I.interned it.I.local_hits it.I.shared_hits it.I.inserts local_rate;
  close_out oc;
  print_endline "  wrote BENCH_pr5.json"

(* ------------------------------------------------------------------ *)
(* PR6: the serving daemon. Closed-loop capacity through the full      *)
(* protocol stack (frames, admission queue, domain pool) first, then   *)
(* open-loop points at ~0.5x / ~0.9x / 2x of that capacity — sustained *)
(* contracts/s, p50/p99 latency at each offered load, and the shed     *)
(* rate once offered load exceeds capacity (admission control working  *)
(* instead of latency collapsing). Emitted as BENCH_pr6.json.          *)
(* ------------------------------------------------------------------ *)

let bench_pr6 () =
  let module Server = Ethainter_serve.Server in
  let module Client = Ethainter_serve.Client in
  let module Proto = Ethainter_serve.Proto in
  let module Hex = Ethainter_word.Hex in
  print_endline "";
  print_endline "PR6 serving daemon (protocol stack + admission control):";
  let corpus_size = 120 and corpus_seed = 42 in
  let corpus = G.mainnet ~seed:corpus_seed ~size:corpus_size () in
  let hexes =
    Array.of_list
      (List.map (fun (i : G.instance) -> Hex.encode i.G.i_runtime) corpus)
  in
  let n_hexes = Array.length hexes in
  let workers = S.default_workers () in
  let queue_depth = 64 in
  (* every request must be real work: with the content-addressed cache
     on, a fixed-corpus load loop would collapse into cache hits and
     measure the codec, not the service *)
  let cache_was = P.cache_enabled () in
  P.set_cache_enabled false;
  let server = Server.create ~workers ~queue_depth () in
  let sock_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ethainterd_bench_%d.sock" (Unix.getpid ()))
  in
  let acceptor =
    Thread.create
      (fun () -> Server.serve_unix_socket server ~path:sock_path)
      ()
  in
  let rec connect tries =
    try Client.connect_unix sock_path
    with _ when tries > 0 ->
      Thread.delay 0.05;
      connect (tries - 1)
  in
  let quantiles samples =
    let a = Array.of_list samples in
    Array.sort compare a;
    let n = Array.length a in
    if n = 0 then (0.0, 0.0)
    else
      let at q =
        a.(min (n - 1) (int_of_float ((float_of_int (n - 1) *. q) +. 0.5)))
      in
      (at 0.5, at 0.99)
  in
  (* warm the protocol path and the per-domain state (intern caches,
     compiled plans) before measuring *)
  let probe = connect 100 in
  for k = 0 to min 29 (n_hexes - 1) do
    ignore (Client.analyze probe ~hex:hexes.(k) ())
  done;
  Client.close probe;
  (* ---- closed loop: capacity. As many always-busy clients as
     workers, each a sequential request loop — the sustained
     contracts/s the service can complete through the full stack. *)
  let closed_clients = workers and per_client = 25 in
  let closed_lat_mu = Mutex.create () in
  let closed_lat = ref [] in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init closed_clients (fun ci ->
        Thread.create
          (fun () ->
            let client = connect 10 in
            for k = 0 to per_client - 1 do
              let hex = hexes.(((ci * per_client) + k) mod n_hexes) in
              let t = Unix.gettimeofday () in
              (match Client.analyze client ~hex () with
              | Client.Result _ ->
                  let d = Unix.gettimeofday () -. t in
                  Mutex.lock closed_lat_mu;
                  closed_lat := d :: !closed_lat;
                  Mutex.unlock closed_lat_mu
              | _ -> ())
            done;
            Client.close client)
          ())
  in
  List.iter Thread.join threads;
  let closed_wall = Unix.gettimeofday () -. t0 in
  let closed_n = closed_clients * per_client in
  let closed_cps = float_of_int closed_n /. closed_wall in
  let closed_p50, closed_p99 = quantiles !closed_lat in
  Printf.printf
    "  closed loop: %d clients x %d reqs -> %.1f contracts/s (p50 %.1f ms, \
     p99 %.1f ms)\n%!"
    closed_clients per_client closed_cps (1000.0 *. closed_p50)
    (1000.0 *. closed_p99);
  (* ---- open loop: clients offer load at a fixed rate regardless of
     completions (the arrival process of a real deployment). Senders
     pace on an absolute schedule; a receiver thread per client stamps
     latency at true arrival. *)
  let open_loop_point ~offered_per_s ~duration_s =
    let n_clients = 4 in
    let interval = float_of_int n_clients /. offered_per_s in
    let lat_mu = Mutex.create () in
    let latencies = ref [] in
    let sent_total = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let shed = Atomic.make 0 in
    let run_client ci =
      let client = connect 10 in
      let pending = Hashtbl.create 256 in
      let pmu = Mutex.create () in
      let received = Atomic.make 0 in
      let target = Atomic.make max_int in
      let receiver =
        Thread.create
          (fun () ->
            try
              while Atomic.get received < Atomic.get target do
                let id, resp = Client.recv client in
                let t1 = Unix.gettimeofday () in
                (match resp with
                | Client.Result _ ->
                    Mutex.lock pmu;
                    let t_sent = Hashtbl.find_opt pending id in
                    Hashtbl.remove pending id;
                    Mutex.unlock pmu;
                    (match t_sent with
                    | Some t ->
                        Mutex.lock lat_mu;
                        latencies := (t1 -. t) :: !latencies;
                        Mutex.unlock lat_mu;
                        Atomic.incr completed
                    | None -> ())
                | Client.Error Proto.Overloaded -> Atomic.incr shed
                | _ -> ());
                Atomic.incr received
              done
            with _ -> ())
          ()
      in
      let start = Unix.gettimeofday () in
      let k = ref 0 in
      while Unix.gettimeofday () -. start < duration_s do
        let next = start +. (float_of_int !k *. interval) in
        let now = Unix.gettimeofday () in
        if next > now then Thread.delay (next -. now);
        let hex = hexes.((ci + (!k * 13)) mod n_hexes) in
        (* this thread is the client's only sender and ids are
           assigned sequentially from 1, so the id is known before the
           send — record the send time first, or a fast response could
           overtake the bookkeeping and be dropped from the stats *)
        let t = Unix.gettimeofday () in
        Mutex.lock pmu;
        Hashtbl.replace pending (!k + 1) t;
        Mutex.unlock pmu;
        let id = Client.send_analyze client ~hex () in
        assert (id = !k + 1);
        incr k
      done;
      Atomic.set target !k;
      ignore (Atomic.fetch_and_add sent_total !k);
      (* drain: every offered request gets an answer (result or shed);
         the bound is a safety net, not an expectation *)
      let drain_deadline = Unix.gettimeofday () +. 30.0 in
      while
        Atomic.get received < !k && Unix.gettimeofday () < drain_deadline
      do
        Thread.delay 0.005
      done;
      Client.close client;
      (try Thread.join receiver with _ -> ())
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init n_clients (fun ci -> Thread.create run_client ci) in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    let sent = Atomic.get sent_total in
    let comp = Atomic.get completed in
    let shed_n = Atomic.get shed in
    let p50, p99 = quantiles !latencies in
    let completed_per_s = float_of_int comp /. wall in
    let shed_rate =
      if sent = 0 then 0.0 else float_of_int shed_n /. float_of_int sent
    in
    Printf.printf
      "  open loop @ %7.1f/s offered: %7.1f/s completed, shed %d/%d \
       (%.1f%%), p50 %.1f ms, p99 %.1f ms\n%!"
      offered_per_s completed_per_s shed_n sent (100.0 *. shed_rate)
      (1000.0 *. p50) (1000.0 *. p99);
    (offered_per_s, completed_per_s, sent, comp, shed_n, shed_rate, p50, p99)
  in
  let duration_s = 6.0 in
  let points =
    List.map
      (fun factor ->
        open_loop_point ~offered_per_s:(factor *. closed_cps) ~duration_s)
      [ 0.5; 0.9; 2.0 ]
  in
  Server.stop server;
  (try Thread.join acceptor with _ -> ());
  P.set_cache_enabled cache_was;
  let cores = Domain.recommended_domain_count () in
  let point_json (offered, cps, sent, comp, shed_n, shed_rate, p50, p99) =
    Printf.sprintf
      {|    {
      "offered_per_s": %.2f,
      "completed_per_s": %.2f,
      "sent": %d,
      "completed": %d,
      "shed": %d,
      "shed_rate": %.4f,
      "p50_ms": %.3f,
      "p99_ms": %.3f
    }|}
      offered cps sent comp shed_n shed_rate (1000.0 *. p50) (1000.0 *. p99)
  in
  let oc = open_out "BENCH_pr6.json" in
  Printf.fprintf oc
    {|{
  "pr": 6,
  "machine_cores": %d,
  "workers": %d,
  "queue_depth": %d,
  "corpus_size": %d,
  "corpus_seed": %d,
  "closed_loop": {
    "clients": %d,
    "requests": %d,
    "wall_s": %.6f,
    "contracts_per_s": %.2f,
    "p50_ms": %.3f,
    "p99_ms": %.3f
  },
  "open_loop_duration_s": %.1f,
  "open_loop": [
%s
  ]
}
|}
    cores workers queue_depth corpus_size corpus_seed closed_clients
    closed_n closed_wall closed_cps (1000.0 *. closed_p50)
    (1000.0 *. closed_p99) duration_s
    (String.concat ",\n" (List.map point_json points));
  close_out oc;
  print_endline "  wrote BENCH_pr6.json"

(* ------------------------------------------------------------------ *)
(* PR7: the streaming index. The deploy/rotate/destroy scenario from   *)
(* lib/experiments against a live Index: block throughput, verdict     *)
(* lag, analyses and re-analyses (storage writes cost none), the       *)
(* zero-front-end telemetry claim, and the incremental==batch          *)
(* differential. Emitted as BENCH_pr7.json.                            *)
(* ------------------------------------------------------------------ *)

let bench_pr7 () =
  print_endline "";
  print_endline "PR7 streaming index (storage writes cost no analysis):";
  let contracts = 24 and rotations = 36 and noise = 18 and kills = 4 in
  let r = E.stream ~contracts ~rotations ~noise ~kills () in
  Printf.printf
    "  %d blocks (%d contracts, %d rotations, %d noise writes, %d kills): \
     %.1f blocks/s\n"
    r.E.st_blocks contracts rotations noise kills r.E.st_blocks_per_s;
  Printf.printf "  analyses: %d; re-analyses: %d (claim: 0)\n" r.E.st_analyses
    r.E.st_reanalyses;
  Printf.printf "  mean verdict lag: %.2f blocks\n" r.E.st_mean_lag_blocks;
  Printf.printf
    "  front-end recomputations: %d (claim: 0); incremental == batch: %b\n"
    r.E.st_frontend_recomputes r.E.st_incremental_eq_batch;
  let oc = open_out "BENCH_pr7.json" in
  Printf.fprintf oc
    {|{
  "pr": 7,
  "machine_cores": %d,
  "stream": {
    "contracts": %d,
    "rotations": %d,
    "noise_writes": %d,
    "kills": %d,
    "blocks": %d,
    "elapsed_s": %.6f,
    "blocks_per_s": %.4f,
    "analyses": %d,
    "reanalyses": %d,
    "mean_lag_blocks": %.4f,
    "frontend_recomputes": %d,
    "incremental_eq_batch": %b
  }
}
|}
    (Domain.recommended_domain_count ())
    contracts rotations noise kills r.E.st_blocks r.E.st_elapsed_s
    r.E.st_blocks_per_s r.E.st_analyses r.E.st_reanalyses
    r.E.st_mean_lag_blocks
    r.E.st_frontend_recomputes r.E.st_incremental_eq_batch;
  close_out oc;
  print_endline "  wrote BENCH_pr7.json"

(* ------------------------------------------------------------------ *)
(* PR8: pre-decoded basic-block EVM programs. Chain-replay throughput  *)
(* (tx/s over a ~20k-block replay of corpus contracts) under the       *)
(* per-byte Bytewise reference vs the Decoded engine, with the         *)
(* decode-once property measured over the replay window (program-      *)
(* cache counters), a receipt-stream identity check, and Ethainter-    *)
(* Kill campaign latency under both engines. Emitted as               *)
(* BENCH_pr8.json.                                                     *)
(* ------------------------------------------------------------------ *)

let bench_pr8 () =
  let module T = Ethainter_chain.Testnet in
  let module I = Ethainter_evm.Interp in
  let module Prog = Ethainter_evm.Program in
  let module K = Ethainter_kill.Kill in
  let module U = Ethainter_word.Uint256 in
  let module V = Ethainter_core.Vulns in
  print_endline "";
  print_endline "PR8 pre-decoded basic-block EVM programs:";
  (* ---- chain replay: decode-per-call vs decode-once ---- *)
  let n_contracts = 24 and target_txs = 20_000 in
  (* mainnet-realistic code sizes: real deployed runtimes are multi-KB,
     which is exactly the regime where the per-call jumpdest rescan of
     the decode-per-call engine hurts *)
  let insts = G.mainnet ~seed:77 ~fillers:(12, 20) ~size:n_contracts () in
  (* entry points are harvested once, outside the timed replays: the
     workload is the chain, not the decompiler *)
  let calldatas =
    List.map
      (fun (i : G.instance) ->
        let sels =
          K.harvest_selectors (Ethainter_tac.Decomp.decompile i.G.i_runtime)
        in
        let ds =
          match sels with
          | [] -> [ "" ]
          | l -> List.map (fun s -> K.selector_calldata s [ U.of_int 5 ]) l
        in
        Array.of_list ds)
      insts
    |> Array.of_list
  in
  let replay engine =
    let net = T.create ~engine () in
    let from = T.account_of_seed "replayer" in
    T.fund_account net from (U.of_string "0xffffffffffffffffffffffff");
    let t0 = Unix.gettimeofday () in
    let addrs =
      List.filter_map
        (fun (i : G.instance) ->
          (T.deploy net ~from ~value:i.G.i_eth_held i.G.i_deploy).T.created)
        insts
      |> Array.of_list
    in
    let n = Array.length addrs in
    (* aggregate receipt fingerprint: outcome tag + gas + effect and
       log counts per tx, folded — equal folds across engines =
       identical replay *)
    let fp = ref 0 in
    for tx = 0 to target_txs - 1 do
      let k = tx mod n in
      let datas = calldatas.(k) in
      let cd = datas.(tx / n mod Array.length datas) in
      let r = T.transact net ~from ~to_:addrs.(k) cd in
      fp :=
        !fp + r.T.gas_used + (1021 * List.length r.T.effects)
        + (7919 * List.length r.T.logs)
        + (match r.T.outcome with
          | I.Returned _ -> 1
          | I.Reverted _ -> 2
          | I.Failed _ -> 3)
    done;
    let dt = Unix.gettimeofday () -. t0 in
    (dt, float_of_int target_txs /. dt, !fp)
  in
  let by_s, by_tps, by_fp = replay I.Bytewise in
  let s0 = Prog.stats () in
  let de_s, de_tps, de_fp = replay I.Decoded in
  let s1 = Prog.stats () in
  let decodes = s1.Prog.decodes - s0.Prog.decodes in
  let hits = s1.Prog.hits - s0.Prog.hits in
  let speedup = de_tps /. by_tps in
  let identical = by_fp = de_fp in
  Printf.printf
    "  replay (%d contracts, %d txs): bytewise %.2fs (%.0f tx/s) vs decoded \
     %.2fs (%.0f tx/s) -> %.2fx\n"
    n_contracts target_txs by_s by_tps de_s de_tps speedup;
  Printf.printf
    "  decoded replay window: %d decodes, %d cache hits; receipt streams \
     identical: %b\n"
    decodes hits identical;
  (* ---- Ethainter-Kill verification latency ---- *)
  let corpus = G.ropsten ~seed:31 ~size:48 () in
  let kill engine =
    let net = T.create ~engine () in
    let deployer = T.account_of_seed "deployer" in
    let attacker = T.account_of_seed "attacker" in
    T.fund_account net deployer (U.of_string "0xffffffffffffffffffffffff");
    T.fund_account net attacker (U.of_string "0xffffffffffffffffffffffff");
    let deployed =
      List.filter_map
        (fun (i : G.instance) ->
          match (T.deploy net ~from:deployer i.G.i_deploy).T.created with
          | Some addr ->
              T.fund_account net addr i.G.i_eth_held;
              Some (i, addr)
          | None -> None)
        corpus
    in
    (* the static analysis is engine-independent (and pipeline-cached);
       only the on-chain verification campaign is timed *)
    let analyzed =
      S.analyze_corpus
        (List.map (fun ((i : G.instance), _) -> i.G.i_runtime) deployed)
      |> List.map2 (fun (_, addr) r -> (addr, r)) deployed
    in
    let targets =
      List.filter_map
        (fun (addr, r) ->
          if
            P.flags r V.AccessibleSelfdestruct
            || P.flags r V.TaintedSelfdestruct
          then Some (addr, r.P.reports)
          else None)
        analyzed
    in
    let t0 = Unix.gettimeofday () in
    let stats, _ = K.campaign net ~attacker targets in
    let dt = Unix.gettimeofday () -. t0 in
    (dt, stats.K.destroyed, stats.K.total_txs)
  in
  let kby_s, kby_destroyed, kby_txs = kill I.Bytewise in
  let kde_s, kde_destroyed, kde_txs = kill I.Decoded in
  let kill_speedup = kby_s /. kde_s in
  Printf.printf
    "  kill campaign (%d contracts): bytewise %.3fs vs decoded %.3fs \
     (%.2fx); destroyed %d/%d, %d txs\n"
    (List.length corpus) kby_s kde_s kill_speedup kde_destroyed kby_destroyed
    kde_txs;
  let oc = open_out "BENCH_pr8.json" in
  Printf.fprintf oc
    {|{
  "pr": 8,
  "machine_cores": %d,
  "replay": {
    "contracts": %d,
    "txs": %d,
    "bytewise_s": %.6f,
    "bytewise_tx_s": %.2f,
    "decoded_s": %.6f,
    "decoded_tx_s": %.2f,
    "speedup": %.4f,
    "replay_identical": %b,
    "decoded_window_decodes": %d,
    "decoded_window_cache_hits": %d
  },
  "kill": {
    "contracts": %d,
    "bytewise_s": %.6f,
    "decoded_s": %.6f,
    "speedup": %.4f,
    "destroyed_bytewise": %d,
    "destroyed_decoded": %d,
    "txs_bytewise": %d,
    "txs_decoded": %d
  }
}
|}
    (Domain.recommended_domain_count ())
    n_contracts target_txs by_s by_tps de_s de_tps speedup identical decodes
    hits (List.length corpus) kby_s kde_s kill_speedup kby_destroyed
    kde_destroyed kby_txs kde_txs;
  close_out oc;
  print_endline "  wrote BENCH_pr8.json"

(* ------------------------------------------------------------------ *)
(* PR9: crash-safe durability + supervised recovery. (a) Warm restart  *)
(* — recover from checkpoint+journal — vs a cold re-sweep of the same  *)
(* ~20k-block chain (claim: >= 5x faster, zero re-analysis). (b) The   *)
(* journal's overhead on steady-state streaming ingest (claim: < 5%).  *)
(* (c) Poison-pill containment: a fleet that keeps re-deploying a      *)
(* timeout-poison bytecode, with the quarantine breaker on vs off.     *)
(* Emitted as BENCH_pr9.json.                                          *)
(* ------------------------------------------------------------------ *)

let bench_pr9 () =
  let module T = Ethainter_chain.Testnet in
  let module Idx = Ethainter_index.Index in
  let module U = Ethainter_word.Uint256 in
  print_endline "";
  print_endline "PR9 durability + supervised recovery:";
  let tmp_root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ethainter_bench_pr9_%d" (Unix.getpid ()))
  in
  let fresh_dir name = Filename.concat tmp_root name in
  let rm_rf dir =
    (match Sys.readdir dir with
    | entries ->
        Array.iter (fun e -> try Sys.remove (Filename.concat dir e) with _ -> ())
          entries
    | exception _ -> ());
    (try Unix.rmdir dir with _ -> ())
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let iget stats k =
    match List.assoc_opt k stats with Some v -> int_of_float v | None -> 0
  in
  let funded seed =
    let net = T.create () in
    let boss = T.account_of_seed seed in
    T.fund_account net boss (U.of_string "0xffffffffffffffffffffffff");
    (net, boss)
  in
  (* ---- (a) warm recovery vs cold re-sweep ---- *)
  let n_contracts = 24 and n_blocks = 20_000 in
  let insts = G.mainnet ~seed:91 ~fillers:(8, 14) ~size:n_contracts () in
  let net, boss = funded "pr9-deployer" in
  let jdir = fresh_dir "recovery" in
  let bidx = Idx.recover ~journal_dir:jdir net in
  List.iter
    (fun (i : G.instance) -> ignore (T.deploy net ~from:boss i.G.i_deploy))
    insts;
  for _ = 1 to n_blocks do
    T.in_block net (fun () -> ())
  done;
  Idx.drain bidx;
  Idx.close bidx;
  let live = List.length (T.live_contracts net) in
  (* the cold baseline is a journal-less restart: a batch sweep that
     re-analyzes every live contract from cold pipeline caches (the
     chain kept no history while the index was attached, so there is
     nothing left to replay) *)
  P.cache_clear ();
  let cold_s, _ =
    time (fun () ->
        List.map
          (fun (_, code) -> S.analyze_request (P.request (P.Runtime code)))
          (T.live_contracts net))
  in
  (* the warm restart parses the checkpoint and re-subscribes from the
     persisted cursor — same cold pipeline caches, zero re-analysis *)
  P.cache_clear ();
  let rec_s, ridx =
    time (fun () ->
        let i = Idx.recover ~journal_dir:jdir net in
        Idx.drain i;
        i)
  in
  let rst = Idx.stats ridx in
  let recovered = iget rst "index_recovered_verdicts" in
  let rec_analyses = iget rst "index_analyses" in
  Idx.close ridx;
  rm_rf jdir;
  let rec_speedup = cold_s /. rec_s in
  Printf.printf
    "  restart after %d blocks, %d live contracts: cold re-sweep %.3f s vs \
     recovery %.3f s -> %.1fx (%d verdicts restored, %d re-analyses)\n"
    n_blocks live cold_s rec_s rec_speedup recovered rec_analyses;
  (* ---- (b) journal overhead on steady-state ingest ---- *)
  let owned_src tag =
    Printf.sprintf
      {|contract Owned {
  address owner;
  constructor() { owner = msg.sender; }
  function tag() public returns (uint256) { return %d; }
  function setOwner(address o) public {
    require(msg.sender == owner);
    owner = o;
  }
}|}
      tag
  in
  let ingest_blocks = 400 in
  let ingest_insts =
    (* distinct bytecodes, one deployment every other block: each costs
       a genuine cold analysis (caches are cleared per run), which is
       the real per-block work the journal's append must not noticeably
       slow down *)
    Array.of_list
      (G.mainnet ~seed:57 ~fillers:(12, 20) ~size:(ingest_blocks / 2) ())
  in
  let run_ingest = ref 0 in
  let ingest journaled =
    incr run_ingest;
    let net, boss = funded "pr9-ingest" in
    P.cache_clear ();
    let jd =
      if journaled then Some (fresh_dir (Printf.sprintf "ingest-%d" !run_ingest))
      else None
    in
    let idx =
      match jd with
      | Some d -> Idx.recover ~journal_dir:d net
      | None -> Idx.create net
    in
    let t0 = Unix.gettimeofday () in
    for b = 1 to ingest_blocks do
      if b mod 2 = 0 then
        ignore
          (T.deploy net ~from:boss ingest_insts.((b / 2) - 1).G.i_deploy)
      else T.in_block net (fun () -> ())
    done;
    Idx.drain idx;
    let dt = Unix.gettimeofday () -. t0 in
    let st = Idx.stats idx in
    (match jd with
    | Some d ->
        Idx.close idx;
        rm_rf d
    | None -> Idx.detach idx);
    (dt, st)
  in
  (* alternate sides within each pair so machine drift cancels; median
     per-pair ratio (the PR4 methodology) *)
  ignore (ingest false);
  let pairs = 5 in
  let ratios =
    List.init pairs (fun i ->
        let plain_s, j_s, jst =
          if i mod 2 = 0 then
            let p, _ = ingest false in
            let j, jst = ingest true in
            (p, j, jst)
          else
            let j, jst = ingest true in
            let p, _ = ingest false in
            (p, j, jst)
        in
        (j_s /. plain_s, plain_s, j_s, jst))
  in
  let sorted = List.sort compare ratios in
  let ratio_med, plain_s, journaled_s, jst = List.nth sorted (pairs / 2) in
  let overhead_pct = (ratio_med -. 1.0) *. 100.0 in
  Printf.printf
    "  ingest (%d blocks, a cold deployment analysis every other block): \
     ephemeral %.3f s vs journaled %.3f s -> %+.2f%% overhead (%d appends, \
     %d checkpoints; median of %d pairs)\n"
    ingest_blocks plain_s journaled_s overhead_pct
    (iget jst "journal_appends") (iget jst "journal_checkpoints") pairs;
  (* ---- (c) poison-pill containment ---- *)
  let poison = jump_chain_bytecode 20000 in
  let poison_rounds = 40 and healthy_n = 8 in
  let scenario breaker =
    S.Quarantine.clear ();
    S.Quarantine.set_enabled breaker;
    let net, boss = funded "pr9-poison" in
    P.cache_clear ();
    let idx = Idx.create ~timeout_s:0.05 net in
    let t0 = Unix.gettimeofday () in
    let fleet =
      Array.init healthy_n (fun k ->
          match
            (T.deploy net ~from:boss
               (Ethainter_minisol.Codegen.compile_source (owned_src (100 + k))))
              .T.created
          with
          | Some a -> (a, ref boss)
          | None -> failwith "bench_pr9: deployment failed")
    in
    Idx.drain idx;
    (* the adversary keeps re-deploying the same poison bytecode at
       fresh addresses while honest traffic continues: with the breaker
       every instance past the third is parked for free; without it
       every instance burns the full analysis timeout *)
    for r = 1 to poison_rounds do
      ignore (T.deploy_runtime net ~from:boss poison);
      let addr, owner = fleet.(r mod healthy_n) in
      let next = T.account_of_seed (Printf.sprintf "pr9-victim-%d" r) in
      T.fund_account net next (U.of_string "0xffffffff");
      if
        T.succeeded
          (T.call_fn net ~from:!owner ~to_:addr "setOwner(address)" [ next ])
      then owner := next;
      Idx.drain idx
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let st = Idx.stats idx in
    Idx.detach idx;
    (dt, st)
  in
  let with_s, wst = scenario true in
  let without_s, _ = scenario false in
  S.Quarantine.set_enabled true;
  S.Quarantine.clear ();
  rm_rf tmp_root;
  let containment = without_s /. with_s in
  Printf.printf
    "  poison fleet (%d instances of a %d ms-timeout bytecode + honest \
     traffic): breaker on %.3f s vs off %.3f s -> %.1fx contained (%d \
     parked, %d drops, %d probes)\n"
    poison_rounds 50 with_s without_s containment
    (iget wst "index_quarantined")
    (iget wst "index_quarantine_drops")
    (iget wst "index_quarantine_probes");
  let oc = open_out "BENCH_pr9.json" in
  Printf.fprintf oc
    {|{
  "pr": 9,
  "machine_cores": %d,
  "recovery": {
    "blocks": %d,
    "live_contracts": %d,
    "cold_resweep_s": %.6f,
    "recovery_s": %.6f,
    "speedup": %.4f,
    "recovered_verdicts": %d,
    "recovery_analyses": %d,
    "meets_5x": %b
  },
  "journal_overhead": {
    "deployments": %d,
    "blocks": %d,
    "ephemeral_s": %.6f,
    "journaled_s": %.6f,
    "overhead_pct": %.4f,
    "journal_appends": %d,
    "journal_checkpoints": %d,
    "under_5pct": %b
  },
  "quarantine": {
    "poison_instances": %d,
    "analysis_budget_s": 0.05,
    "breaker_on_s": %.6f,
    "breaker_off_s": %.6f,
    "containment": %.4f,
    "quarantined": %d,
    "drops": %d,
    "probes": %d
  }
}
|}
    (Domain.recommended_domain_count ())
    n_blocks live cold_s rec_s rec_speedup recovered rec_analyses
    (rec_speedup >= 5.0 && rec_analyses = 0)
    (ingest_blocks / 2) ingest_blocks plain_s journaled_s overhead_pct
    (iget jst "journal_appends")
    (iget jst "journal_checkpoints")
    (overhead_pct < 5.0) poison_rounds with_s without_s containment
    (iget wst "index_quarantined")
    (iget wst "index_quarantine_drops")
    (iget wst "index_quarantine_probes");
  close_out oc;
  print_endline "  wrote BENCH_pr9.json"

(* ------------------------------------------------------------------ *)
(* PR10: allocation-free EVM words + threaded dispatch. (a) Word-op    *)
(* microbenchmarks: ops/s and minor-heap words allocated per op for    *)
(* the retained boxed-int64 reference impl (Uint256_ref), the new      *)
(* int-limb pure ops, and the destructive _into variants (claim:       *)
(* ~0 words/op on the _into path). (b) The PR 8 chain replay (24       *)
(* contracts, 20k txs, same seeds) under the threaded-dispatch         *)
(* Decoded engine vs Bytewise, with the receipt-stream identity check  *)
(* and throughput against the BENCH_pr8.json decoded baseline (claim:  *)
(* >= 1.4x). (c) The PR 8 Kill campaign leg per engine, also against   *)
(* its BENCH_pr8.json baseline. Emitted as BENCH_pr10.json.            *)
(* ------------------------------------------------------------------ *)

let bench_pr10 () =
  let module T = Ethainter_chain.Testnet in
  let module I = Ethainter_evm.Interp in
  let module K = Ethainter_kill.Kill in
  let module U = Ethainter_word.Uint256 in
  let module R = Ethainter_word.Uint256_ref in
  let module V = Ethainter_core.Vulns in
  print_endline "";
  print_endline "PR10 allocation-free words + threaded dispatch:";
  (* ---- (a) word-op microbenchmarks: ref vs new vs _into ---- *)
  let n_words = 512 in
  let mask = n_words - 1 in
  let seeds =
    let st = Random.State.make [| 0x10CA7; 0x5EED |] in
    Array.init (2 * n_words) (fun _ ->
        String.init 32 (fun _ -> Char.chr (Random.State.int st 256)))
  in
  let xs = Array.init n_words (fun i -> U.of_bytes seeds.(i)) in
  let ys = Array.init n_words (fun i -> U.of_bytes seeds.(n_words + i)) in
  let rxs = Array.init n_words (fun i -> R.of_bytes seeds.(i)) in
  let rys = Array.init n_words (fun i -> R.of_bytes seeds.(n_words + i)) in
  (* warm-up run first so neither variant pays one-time costs inside
     the window; allocation measured in minor-heap words per op *)
  let measure iters f =
    f (max 1 (iters / 10));
    let m0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    f iters;
    let dt = Unix.gettimeofday () -. t0 in
    let dm = Gc.minor_words () -. m0 in
    (float_of_int iters /. dt, dm /. float_of_int iters)
  in
  let new2 op iters =
    for i = 0 to iters - 1 do
      ignore (Sys.opaque_identity (op xs.(i land mask) ys.(i land mask)))
    done
  and ref2 op iters =
    for i = 0 to iters - 1 do
      ignore (Sys.opaque_identity (op rxs.(i land mask) rys.(i land mask)))
    done
  and into2 op iters =
    let d = U.create () in
    for i = 0 to iters - 1 do
      op d xs.(i land mask) ys.(i land mask)
    done;
    ignore (Sys.opaque_identity d)
  in
  let fast = 2_000_000 and slow = 400_000 in
  let word_rows =
    [ ("add", fast, ref2 R.add, new2 U.add, Some (into2 U.add_into));
      ("sub", fast, ref2 R.sub, new2 U.sub, Some (into2 U.sub_into));
      ("mul", slow, ref2 R.mul, new2 U.mul, Some (into2 U.mul_into));
      ( "logand", fast, ref2 R.logand, new2 U.logand,
        Some (into2 U.logand_into) );
      ( "logxor", fast, ref2 R.logxor, new2 U.logxor,
        Some (into2 U.logxor_into) );
      ( "shift_left", fast,
        (fun iters ->
          for i = 0 to iters - 1 do
            ignore
              (Sys.opaque_identity
                 (R.shift_left rxs.(i land mask) (i land 255)))
          done),
        (fun iters ->
          for i = 0 to iters - 1 do
            ignore
              (Sys.opaque_identity (U.shift_left xs.(i land mask) (i land 255)))
          done),
        Some
          (fun iters ->
            let d = U.create () in
            for i = 0 to iters - 1 do
              U.shift_left_into d xs.(i land mask) (i land 255)
            done;
            ignore (Sys.opaque_identity d)) );
      ( "lt", fast,
        (fun iters ->
          for i = 0 to iters - 1 do
            ignore
              (Sys.opaque_identity (R.lt rxs.(i land mask) rys.(i land mask)))
          done),
        (fun iters ->
          for i = 0 to iters - 1 do
            ignore
              (Sys.opaque_identity (U.lt xs.(i land mask) ys.(i land mask)))
          done),
        None ) ]
  in
  let word_measured =
    List.map
      (fun (name, iters, fr, fn, fi) ->
        let r_ops, r_w = measure iters fr in
        let n_ops, n_w = measure iters fn in
        let into = Option.map (measure iters) fi in
        Printf.printf
          "  %-10s ref %6.1f Mop/s %5.1f w/op | new %6.1f Mop/s %5.1f w/op%s\n"
          name (r_ops /. 1e6) r_w (n_ops /. 1e6) n_w
          (match into with
          | Some (o, w) ->
              Printf.sprintf " | into %6.1f Mop/s %5.2f w/op" (o /. 1e6) w
          | None -> "");
        (name, iters, r_ops, r_w, n_ops, n_w, into))
      word_rows
  in
  (* ---- (b) the PR 8 chain replay, threaded engine ---- *)
  let n_contracts = 24 and target_txs = 20_000 in
  let insts = G.mainnet ~seed:77 ~fillers:(12, 20) ~size:n_contracts () in
  let calldatas =
    List.map
      (fun (i : G.instance) ->
        let sels =
          K.harvest_selectors (Ethainter_tac.Decomp.decompile i.G.i_runtime)
        in
        let ds =
          match sels with
          | [] -> [ "" ]
          | l -> List.map (fun s -> K.selector_calldata s [ U.of_int 5 ]) l
        in
        Array.of_list ds)
      insts
    |> Array.of_list
  in
  let replay_once engine =
    let net = T.create ~engine () in
    let from = T.account_of_seed "replayer" in
    T.fund_account net from (U.of_string "0xffffffffffffffffffffffff");
    let t0 = Unix.gettimeofday () in
    let addrs =
      List.filter_map
        (fun (i : G.instance) ->
          (T.deploy net ~from ~value:i.G.i_eth_held i.G.i_deploy).T.created)
        insts
      |> Array.of_list
    in
    let n = Array.length addrs in
    let fp = ref 0 in
    for tx = 0 to target_txs - 1 do
      let k = tx mod n in
      let datas = calldatas.(k) in
      let cd = datas.(tx / n mod Array.length datas) in
      let r = T.transact net ~from ~to_:addrs.(k) cd in
      fp :=
        !fp + r.T.gas_used + (1021 * List.length r.T.effects)
        + (7919 * List.length r.T.logs)
        + (match r.T.outcome with
          | I.Returned _ -> 1
          | I.Reverted _ -> 2
          | I.Failed _ -> 3)
    done;
    let dt = Unix.gettimeofday () -. t0 in
    (dt, float_of_int target_txs /. dt, !fp)
  in
  (* best of two back-to-back runs per engine: the window is short
     enough that transient machine load dominates single-shot numbers;
     the receipt fingerprint must not change between runs *)
  let replay engine =
    let ((s1, _, fp1) as r1) = replay_once engine in
    let ((s2, _, fp2) as r2) = replay_once engine in
    if fp1 <> fp2 then failwith "bench_pr10: replay fingerprint unstable";
    if s1 <= s2 then r1 else r2
  in
  let by_s, by_tps, by_fp = replay I.Bytewise in
  let de_s, de_tps, de_fp = replay I.Decoded in
  let speedup = de_tps /. by_tps in
  let identical = by_fp = de_fp in
  (* baselines: the committed BENCH_pr8.json, measured on the pre-PR-10
     decoded engine (variant-match dispatch, boxed words) *)
  let pr8_json =
    try
      let ic = open_in "BENCH_pr8.json" in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Some s
    with _ -> None
  in
  let num_after s key start =
    let kl = String.length key and n = String.length s in
    let rec find i =
      if i + kl > n then None
      else if String.sub s i kl = key then Some (i + kl)
      else find (i + 1)
    in
    match find start with
    | None -> None
    | Some j ->
        let k = ref j in
        while
          !k < n
          &&
          match s.[!k] with
          | '0' .. '9' | '.' | '-' | ' ' -> true
          | _ -> false
        do
          incr k
        done;
        Option.map
          (fun v -> (v, !k))
          (float_of_string_opt (String.trim (String.sub s j (!k - j))))
  in
  let pr8_replay_tx_s =
    Option.bind pr8_json (fun s ->
        Option.map fst (num_after s "\"decoded_tx_s\":" 0))
  in
  let pr8_kill_s =
    (* the kill object's decoded_s is the file's second occurrence *)
    Option.bind pr8_json (fun s ->
        Option.bind (num_after s "\"decoded_s\":" 0) (fun (_, k) ->
            Option.map fst (num_after s "\"decoded_s\":" k)))
  in
  let vs_pr8 =
    match pr8_replay_tx_s with
    | Some b when b > 0. -> Some (de_tps /. b)
    | _ -> None
  in
  Printf.printf
    "  replay (%d contracts, %d txs): bytewise %.2fs (%.0f tx/s) vs threaded \
     %.2fs (%.0f tx/s) -> %.2fx; receipts identical: %b\n"
    n_contracts target_txs by_s by_tps de_s de_tps speedup identical;
  (match (vs_pr8, pr8_replay_tx_s) with
  | Some x, Some b ->
      Printf.printf "  vs PR 8 decoded baseline (%.0f tx/s): %.2fx\n" b x
  | _ -> print_endline "  (no BENCH_pr8.json baseline found)");
  (* ---- (c) Ethainter-Kill campaign leg ---- *)
  let corpus = G.ropsten ~seed:31 ~size:48 () in
  let kill_once engine =
    let net = T.create ~engine () in
    let deployer = T.account_of_seed "deployer" in
    let attacker = T.account_of_seed "attacker" in
    T.fund_account net deployer (U.of_string "0xffffffffffffffffffffffff");
    T.fund_account net attacker (U.of_string "0xffffffffffffffffffffffff");
    let deployed =
      List.filter_map
        (fun (i : G.instance) ->
          match (T.deploy net ~from:deployer i.G.i_deploy).T.created with
          | Some addr ->
              T.fund_account net addr i.G.i_eth_held;
              Some (i, addr)
          | None -> None)
        corpus
    in
    let analyzed =
      S.analyze_corpus
        (List.map (fun ((i : G.instance), _) -> i.G.i_runtime) deployed)
      |> List.map2 (fun (_, addr) r -> (addr, r)) deployed
    in
    let targets =
      List.filter_map
        (fun (addr, r) ->
          if
            P.flags r V.AccessibleSelfdestruct
            || P.flags r V.TaintedSelfdestruct
          then Some (addr, r.P.reports)
          else None)
        analyzed
    in
    let t0 = Unix.gettimeofday () in
    let stats, _ = K.campaign net ~attacker targets in
    let dt = Unix.gettimeofday () -. t0 in
    (dt, stats.K.destroyed, stats.K.total_txs)
  in
  (* the campaign is a few milliseconds — best of three *)
  let kill engine =
    let runs = [ kill_once engine; kill_once engine; kill_once engine ] in
    List.fold_left
      (fun ((bs, _, _) as best) ((s, _, _) as r) ->
        if s < bs then r else best)
      (List.hd runs) (List.tl runs)
  in
  let kby_s, kby_destroyed, kby_txs = kill I.Bytewise in
  let kde_s, kde_destroyed, kde_txs = kill I.Decoded in
  let kill_identical = kby_destroyed = kde_destroyed && kby_txs = kde_txs in
  Printf.printf
    "  kill campaign (%d contracts): bytewise %.3fs vs threaded %.3fs \
     (%.2fx); destroyed %d, %d txs, engines agree: %b\n"
    (List.length corpus) kby_s kde_s (kby_s /. kde_s) kde_destroyed kde_txs
    kill_identical;
  (* ---- emit ---- *)
  let fopt fmt = function
    | Some v -> Printf.sprintf fmt v
    | None -> "null"
  in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\n  \"pr\": 10,\n  \"machine_cores\": %d,\n"
    (Domain.recommended_domain_count ());
  Buffer.add_string buf "  \"word_ops\": [\n";
  let last = List.length word_measured - 1 in
  List.iteri
    (fun i (name, iters, r_ops, r_w, n_ops, n_w, into) ->
      Printf.bprintf buf
        "    {\"op\": %S, \"iters\": %d, \"ref_ops_s\": %.1f, \
         \"ref_words_per_op\": %.3f, \"new_ops_s\": %.1f, \
         \"new_words_per_op\": %.3f, \"into_ops_s\": %s, \
         \"into_words_per_op\": %s}%s\n"
        name iters r_ops r_w n_ops n_w
        (fopt "%.1f" (Option.map fst into))
        (fopt "%.4f" (Option.map snd into))
        (if i = last then "" else ",")
    )
    word_measured;
  Buffer.add_string buf "  ],\n";
  Printf.bprintf buf
    "  \"replay\": {\n\
    \    \"contracts\": %d,\n\
    \    \"txs\": %d,\n\
    \    \"bytewise_s\": %.6f,\n\
    \    \"bytewise_tx_s\": %.2f,\n\
    \    \"decoded_s\": %.6f,\n\
    \    \"decoded_tx_s\": %.2f,\n\
    \    \"speedup_vs_bytewise\": %.4f,\n\
    \    \"replay_identical\": %b,\n\
    \    \"pr8_decoded_tx_s\": %s,\n\
    \    \"speedup_vs_pr8_decoded\": %s\n\
    \  },\n"
    n_contracts target_txs by_s by_tps de_s de_tps speedup identical
    (fopt "%.2f" pr8_replay_tx_s)
    (fopt "%.4f" vs_pr8);
  Printf.bprintf buf
    "  \"kill\": {\n\
    \    \"contracts\": %d,\n\
    \    \"bytewise_s\": %.6f,\n\
    \    \"decoded_s\": %.6f,\n\
    \    \"speedup\": %.4f,\n\
    \    \"destroyed\": %d,\n\
    \    \"txs\": %d,\n\
    \    \"engines_agree\": %b,\n\
    \    \"pr8_decoded_s\": %s,\n\
    \    \"speedup_vs_pr8_decoded\": %s\n\
    \  }\n}\n"
    (List.length corpus) kby_s kde_s (kby_s /. kde_s) kde_destroyed kde_txs
    kill_identical
    (fopt "%.6f" pr8_kill_s)
    (fopt "%.4f"
       (match pr8_kill_s with
       | Some b when kde_s > 0. -> Some (b /. kde_s)
       | _ -> None));
  let oc = open_out "BENCH_pr10.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  print_endline "  wrote BENCH_pr10.json"

let () =
  let has f = Array.exists (fun a -> a = f) Sys.argv in
  let tables_only = has "--tables-only" in
  let pr1_only = has "--pr1-only" in
  let pr2_only = has "--pr2-only" in
  let pr3_only = has "--pr3-only" in
  let pr4_only = has "--pr4-only" in
  let pr5_only = has "--pr5-only" in
  let pr6_only = has "--pr6-only" in
  let pr7_only = has "--pr7-only" in
  let pr8_only = has "--pr8-only" in
  let pr9_only = has "--pr9-only" in
  let pr10_only = has "--pr10-only" in
  if pr1_only then bench_pr1 ()
  else if pr2_only then bench_pr2 ()
  else if pr3_only then bench_pr3 ()
  else if pr4_only then bench_pr4 ()
  else if pr5_only then bench_pr5 ()
  else if pr6_only then bench_pr6 ()
  else if pr7_only then bench_pr7 ()
  else if pr8_only then bench_pr8 ()
  else if pr9_only then bench_pr9 ()
  else if pr10_only then bench_pr10 ()
  else begin
    if not tables_only then begin
      print_endline "Bechamel benchmarks (one per reproduced table/figure):";
      benchmark ()
    end;
    bench_pr1 ();
    bench_pr2 ();
    bench_pr3 ();
    bench_pr4 ();
    bench_pr5 ();
    bench_pr6 ();
    bench_pr7 ();
    bench_pr8 ();
    bench_pr9 ();
    bench_pr10 ();
    print_endline "";
    print_endline "Reproduced tables and figures (full scale):";
    (* run_all keeps the cache warm across its overlapping sweeps —
       that reuse is the point of the cache, and results are identical
       either way *)
    E.run_all ()
  end
