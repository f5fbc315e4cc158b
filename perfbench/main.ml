(* perfbench: the repository's benchmark. One workload per invocation:

     main.exe --workload sweep|chain|serve --seed N --seconds S --trace 0|1

   prints the run's stamp, each metric by name with its unit, and as its
   last line one JSON object: {"correct", "attempted", "failed",
   "metrics"}; it exits 1 when an operation or a run-level check failed.
   With --trace 0 the metrics are the end-to-end ones, measured with
   tracing off; with --trace 1 they are the per-layer ones, and the spans
   are written to .perfbench/spans-<workload>-<seed>.jsonl.

     main.exe --self-check

   runs every workload at a tiny size, checks that every metric of
   BENCHMARK.json is reported with its unit, and that a deliberately
   wrong expected verdict is reported as a failed operation and makes
   the run exit non-zero. *)

open Common

(* The metrics of BENCHMARK.json, in its order. A workload reports 0
   for a layer it never calls. *)
let end_to_end =
  [ ("throughput_per_s", "1/s"); ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms"); ("setup_s", "s"); ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("evm.decode_ms", "ms"); ("tac.decompile_ms", "ms"); ("tac.stmts", "count");
    ("facts.compute_ms", "ms"); ("analysis.run_ms", "ms");
    ("analysis.rounds", "count"); ("analysis.detect_ms", "ms");
    ("pipeline.self_ms", "ms"); ("crypto.keccak_ms", "ms");
    ("evm.decodes", "count"); ("cache.fe_misses", "count");
    ("cache.be_misses", "count"); ("cache.evictions", "count");
    ("cache.hit_share", "share"); ("scheduler.busy_share", "share");
    ("runtime.intern_local_hit_share", "share");
    ("gc.minor_words_per_op", "words"); ("gc.major_collections", "count");
    ("gc.live_mb", "MB"); ("chain.transact_us", "us"); ("chain.seal_ms", "ms");
    ("evm.gas_per_tx", "gas"); ("index.ingest_ms", "ms");
    ("index.invalidations", "count"); ("index.reanalyses", "count");
    ("index.fe_recomputes", "count"); ("journal.appends", "count");
    ("journal.wal_bytes", "bytes"); ("journal.checkpoints", "count");
    ("journal.recover_ms", "ms"); ("gc.live_bytes_per_tx", "bytes");
    ("serve.hit_ms", "ms"); ("serve.fresh_ms", "ms"); ("serve.service_ms", "ms");
    ("scheduler.queue_depth_mean", "count"); ("scheduler.running_mean", "count");
    ("serve.generator_late_ms", "ms"); ("trace.overhead_share", "share");
    ("trace.accounted_share", "share") ]

let workloads = [ ("sweep", Sweep.run); ("chain", Chain.run); ("serve", Serve.run) ]

(* The metrics a run prints: the declared list in order, each with the
   workload's value, or 0 for a layer the workload does not exercise. *)
let complete declared (reported : metric list) =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) reported with
      | Some x -> x
      | None -> m name unit_ 0.0)
    declared

let run_workload ~f s =
  Atomic.set Trace.on false;
  let o = f s in
  let metrics =
    if s.trace then complete per_layer o.layers else complete end_to_end o.e2e
  in
  (o, metrics, o.failed = 0 && o.checks_ok)

(* A run with a failed operation or a failed run-level check prints its
   result and exits non-zero. *)
let exit_code (_, _, correct) = if correct then 0 else 1

let print_result name (o, metrics, correct) =
  Printf.printf "%s: %d operations attempted, %d failed, checks %s\n" name
    o.attempted o.failed (if o.checks_ok then "passed" else "FAILED");
  List.iter
    (fun x -> Printf.printf "  %-32s %14.4f %s\n" x.name x.value x.unit_)
    metrics;
  print_endline
    (result_line ~correct ~attempted:o.attempted ~failed:o.failed metrics)

let settings ~seed ~seconds ~trace ~tiny ~sabotage name =
  { seed; seconds; trace; tiny; sabotage;
    workers = Ethainter_core.Scheduler.default_workers ();
    run_dir = make_run_dir name }

(* ---------------- self-check ---------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let self_check () =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun msg -> problems := msg :: !problems) fmt in
  (match read_file "BENCHMARK.json" with
  | exception Sys_error e -> fail "cannot read BENCHMARK.json: %s" e
  | json ->
      List.iter
        (fun (n, u) ->
          if not (contains json (Printf.sprintf "\"name\": %S, \"unit\": %S" n u))
          then fail "BENCHMARK.json does not declare %s in %s" n u)
        (end_to_end @ per_layer));
  (* a reported metric must carry its declared unit; [needed] ones must
     all be reported *)
  let check name what (o, _, correct) reported ~needed =
    if not correct then
      fail "%s (%s): not correct, %d of %d failed" name what o.failed o.attempted;
    List.iter
      (fun (n, u) ->
        match List.find_opt (fun x -> x.name = n) reported with
        | Some x when x.unit_ <> u -> fail "%s: %s in %s, not %s" name n x.unit_ u
        | Some _ -> ()
        | None -> if needed then fail "%s (%s): %s not reported" name what n)
      (if needed then end_to_end else per_layer)
  in
  let layers_seen = ref [] in
  List.iter
    (fun (name, f) ->
      (* each run on a seed of its own: the decoded-program cache
         outlives a run, and a sweep must meet only new contracts *)
      let seed = ref 2 in
      let go ~trace ~sabotage =
        Trace.reset ();
        incr seed;
        let s = settings ~seed:!seed ~seconds:1.0 ~trace ~tiny:true ~sabotage name in
        let r = run_workload ~f s in
        rm_rf s.run_dir;
        r
      in
      let ((o, _, _) as plain) = go ~trace:false ~sabotage:false in
      check name "trace 0" plain o.e2e ~needed:true;
      let ((o, _, _) as traced) = go ~trace:true ~sabotage:false in
      check name "trace 1" traced o.layers ~needed:false;
      layers_seen := List.map (fun x -> x.name) o.layers @ !layers_seen;
      let ((o, _, _) as sabotaged) = go ~trace:false ~sabotage:true in
      if exit_code sabotaged = 0 || o.failed < 1 || (name = "chain" && o.checks_ok)
      then fail "%s: a wrong expected verdict was not reported as a failure" name;
      Printf.printf "self-check %s: done\n%!" name)
    workloads;
  List.iter
    (fun (n, _) ->
      if not (List.mem n !layers_seen) then fail "no workload measures %s" n)
    per_layer;
  match !problems with
  | [] ->
      print_endline "self-check: ok";
      exit 0
  | ps ->
      List.iter (fun p -> Printf.printf "self-check FAILED: %s\n" p) (List.rev ps);
      exit 1

(* ---------------- command line ---------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload sweep|chain|serve --seed N --seconds S --trace 0|1\n\
    \       main.exe --self-check";
  exit 2

let () =
  refuse_tainted_environment ();
  (* leave through [exit] so that the run directory is removed *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--self-check" ] then self_check ();
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let name = get "workload" in
  let f = match List.assoc_opt name workloads with Some f -> f | None -> usage () in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  let s =
    settings ~seed ~seconds:(fi seconds) ~trace:(trace = 1) ~tiny:false
      ~sabotage:false name
  in
  Printf.printf "perfbench %s trace=%d %s\n%!" name trace (stamp s);
  let r = run_workload ~f s in
  if s.trace then begin
    mkdir_p out_root;
    Trace.write
      (Filename.concat out_root (Printf.sprintf "spans-%s-%d.jsonl" name seed))
  end;
  print_result name r;
  exit (exit_code r)
