(* ethainterd — the analysis-as-a-service daemon.

   Serves Pipeline analysis requests over the length-prefixed binary
   protocol (lib/serve) from a Unix-domain socket (--socket PATH) or
   stdin/stdout (--stdio), multiplexing them onto a persistent domain
   pool with a bounded admission queue. The intern table, compiled
   Datalog plans and both phase-split cache tiers stay warm across
   requests for the life of the process.

   --watch additionally attaches a streaming analysis index (lib/index)
   fed by an in-process chain simulator under a continuous synthetic
   deploy/rotate/destroy workload; clients query per-contract verdicts
   with the watch request and the index's counters with index-stats.
   Index analyses run on the same worker pool and admission queue as
   client requests. --journal-dir makes the index durable: verdicts
   survive a crash or kill and are recovered (not recomputed) at the
   next start; shutdown writes a clean final checkpoint.

   The health request reports Ready / Degraded (open quarantine
   breakers, degraded disk cache, journal write failures) / Draining
   for supervisors and load balancers.

   --selftest runs a smoke cycle against an in-process server (no
   socket, no network) — analysis, stats, health, a watch-mode
   attach/lookup/detach round, and a durable-index close/recover
   roundtrip — and exits nonzero on any failure: usable as a container
   healthcheck. *)

open Cmdliner
module U = Ethainter_word.Uint256
module P = Ethainter_core.Pipeline
module Serve = Ethainter_serve.Server
module Client = Ethainter_serve.Client
module Proto = Ethainter_serve.Proto
module T = Ethainter_chain.Testnet
module Idx = Ethainter_index.Index

(* ------------------------------------------------------------------ *)
(* Watch mode                                                          *)
(* ------------------------------------------------------------------ *)

let watch_status_of : Idx.status -> Proto.watch_status = function
  | Idx.Unknown -> Proto.Watch_unknown
  | Idx.Pending b -> Proto.Watch_pending b
  | Idx.Destroyed -> Proto.Watch_destroyed
  | Idx.Quarantined n -> Proto.Watch_quarantined n
  | Idx.Indexed v ->
      Proto.Watch_indexed
        { wi_deployed = v.Idx.v_deployed_block;
          wi_indexed = v.Idx.v_indexed_block;
          wi_result = v.Idx.v_result }

let index_handlers idx =
  { Serve.h_watch =
      (fun addr_hex ->
        match U.of_hex (String.trim addr_hex) with
        | addr -> watch_status_of (Idx.lookup idx addr)
        | exception _ -> Proto.Watch_unknown);
    Serve.h_index_stats = (fun () -> Idx.stats idx) }

(* One contract per tag, each with a distinct constant baked into its
   runtime so bytecodes (and cache keys) never collide; the owner slot
   is the only storage its guards read. *)
let watch_source tag =
  Printf.sprintf
    {|contract Watched {
  address owner;
  constructor() { owner = msg.sender; }
  function tag() public returns (uint256) { return %d; }
  function setOwner(address o) public {
    require(msg.sender == owner);
    owner = o;
  }
  function kill() public {
    require(msg.sender == owner);
    selfdestruct(owner);
  }
}|}
    tag

(* Attach a streaming index (on the server's own pool) to a fresh chain
   simulator and drive a rolling synthetic workload — each tick deploys
   a contract, rotates an existing contract's admin key, and, once the
   fleet is large enough, destroys the oldest — until the server stops.
   Returns the joinable driver thread.

   With [journal_dir] the index is durable: it recovers the previous
   run's verdicts from the journal, then the chain is advanced to the
   persisted cursor so the fresh simulator's block numbers continue
   where the dead process stopped (blocks sealed during the advance
   are below the cursor and ignored by the index's monotonic guard).
   Shutdown goes through [Idx.close] for a clean final checkpoint. *)
let start_watch ?(tick_s = 0.25) ?(fleet_cap = 24) ?journal_dir server =
  let net = T.create ~name:"watch" () in
  let deployer = T.account_of_seed "watch-deployer" in
  T.fund_account net deployer (U.of_string "0xffffffffffffffffffffffff");
  let idx =
    match journal_dir with
    | None -> Idx.create ~pool:(Serve.pool server) net
    | Some dir ->
        let idx = Idx.recover ~pool:(Serve.pool server) ~journal_dir:dir net in
        T.advance_to_block net (Idx.last_block idx);
        Printf.eprintf
          "ethainterd: recovered index from %s (cursor %d, %d contracts)\n%!"
          dir (Idx.last_block idx)
          (List.length (Idx.contents idx));
        idx
  in
  Serve.set_index_handlers server (Some (index_handlers idx));
  Thread.create
    (fun () ->
      let fleet = Queue.create () in
      let k = ref 0 in
      while not (Serve.stopped server) do
        (try
           let initcode =
             Ethainter_minisol.Codegen.compile_source
               (watch_source (1000 + !k))
           in
           (match (T.deploy net ~from:deployer initcode).T.created with
           | Some addr ->
               Queue.push (addr, ref deployer) fleet;
               Printf.eprintf "ethainterd: watch block %d deployed %s\n%!"
                 (T.block_number net) (U.to_hex addr)
           | None -> ());
           (* rotate a mid-fleet admin key: a write to the slot the
              contract's guard reads, which costs the index nothing —
              the verdict depends on the bytecode alone *)
           (if Queue.length fleet > 1 then
              let arr = Array.of_seq (Queue.to_seq fleet) in
              let addr, owner = arr.(!k mod Array.length arr) in
              let next =
                T.account_of_seed (Printf.sprintf "watch-owner-%d" !k)
              in
              T.fund_account net next (U.of_string "0xffffffff");
              if
                T.succeeded
                  (T.call_fn net ~from:!owner ~to_:addr "setOwner(address)"
                     [ next ])
              then owner := next);
           if Queue.length fleet > fleet_cap then begin
             let addr, owner = Queue.pop fleet in
             ignore (T.call_fn net ~from:!owner ~to_:addr "kill()" [])
           end
         with _ -> ());
        incr k;
        (* sleep in short slices so shutdown is prompt *)
        let slept = ref 0.0 in
        while !slept < tick_s && not (Serve.stopped server) do
          Thread.delay 0.05;
          slept := !slept +. 0.05
        done
      done;
      (* close = detach + drain (+ final checkpoint when journaled);
         for an ephemeral index it degrades to exactly the old detach
         semantics *)
      Idx.close idx)
    ()

(* ------------------------------------------------------------------ *)
(* Selftest                                                            *)
(* ------------------------------------------------------------------ *)

(* PUSH1 0; PUSH1 0; RETURN — the smallest runtime bytecode the whole
   pipeline (decompile, facts, fixpoint, detectors) accepts cleanly. *)
let selftest_hex = "60006000f3"

let fail_selftest fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ethainterd selftest: FAIL: " ^ msg);
      exit 1)
    fmt

let selftest ~workers ~queue_depth ~timeout_s () =
  let server = Serve.create ?workers ~queue_depth ~default_timeout_s:timeout_s () in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let reader = Thread.create (fun () -> Serve.serve_connection server a) () in
  let client = Client.of_fd b in
  (if not (Client.ping client) then fail_selftest "no pong");
  (match Client.health client with
  | Proto.Ready -> ()
  | Proto.Degraded r -> fail_selftest "daemon degraded at startup: %s" r
  | Proto.Draining -> fail_selftest "daemon draining at startup");
  (match Client.analyze client ~hex:selftest_hex () with
  | Client.Result r ->
      if r.P.error <> None then
        fail_selftest "analysis error: %s"
          (match r.P.error with Some e -> e | None -> "")
  | Client.Error e -> fail_selftest "protocol error: %s" (Proto.error_code e)
  | _ -> fail_selftest "unexpected response to analyze");
  (* the warm-state claim, one request deep: an identical request must
     be answered from the back-end cache *)
  (match Client.analyze client ~hex:selftest_hex () with
  | Client.Result r when r.P.error = None -> ()
  | _ -> fail_selftest "repeat analyze failed");
  let st = Client.stats client in
  let get k =
    match List.assoc_opt k st with
    | Some v -> v
    | None -> fail_selftest "stats missing %s" k
  in
  if get "cache_be_hits" < 1.0 then
    fail_selftest "repeat request missed the back-end cache";
  if get "served_ok" < 2.0 then fail_selftest "served_ok < 2";
  (* watch-mode smoke cycle: refused before an index is attached,
     end-to-end verdict lookup after *)
  (match Client.watch client ~addr_hex:"0xdead" with
  | Client.Error (Proto.Malformed _) -> ()
  | _ -> fail_selftest "watch without an index was not refused");
  let net = T.create ~name:"selftest" () in
  let deployer = T.account_of_seed "selftest-deployer" in
  T.fund_account net deployer (U.of_string "0xffffffffffffffff");
  let idx = Idx.create ~pool:(Serve.pool server) net in
  Serve.set_index_handlers server (Some (index_handlers idx));
  let addr =
    match
      (T.deploy_runtime net ~from:deployer
         (Ethainter_word.Hex.decode selftest_hex))
        .T.created
    with
    | Some a -> a
    | None -> fail_selftest "watch deployment failed"
  in
  Idx.drain idx;
  (match Client.watch client ~addr_hex:(U.to_hex addr) with
  | Client.Watch (Proto.Watch_indexed w) ->
      if w.wi_result.P.error <> None then
        fail_selftest "watched verdict carries an error"
  | _ -> fail_selftest "watch did not return an indexed verdict");
  (match
     Client.watch client ~addr_hex:(U.to_hex (T.account_of_seed "nobody"))
   with
  | Client.Watch Proto.Watch_unknown -> ()
  | _ -> fail_selftest "unknown address did not answer Watch_unknown");
  (match Client.index_stats client with
  | Ok st when (match List.assoc_opt "index_contracts" st with
               | Some v -> v >= 1.0
               | None -> false) -> ()
  | Ok _ -> fail_selftest "index stats missing index_contracts >= 1"
  | Stdlib.Error e ->
      fail_selftest "index_stats refused: %s" (Proto.error_code e));
  Idx.detach idx;
  (* durable-index roundtrip: deploy + analyze under a journal, close
     (final checkpoint), recover into a second instance and verify the
     verdict is served from disk with zero re-analysis *)
  let jdir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ethainterd-selftest-journal-%d" (Unix.getpid ()))
  in
  let jnet = T.create ~name:"selftest-journal" () in
  let jdep = T.account_of_seed "selftest-journal-deployer" in
  T.fund_account jnet jdep (U.of_string "0xffffffffffffffff");
  let jidx = Idx.recover ~journal_dir:jdir jnet in
  let jaddr =
    match
      (T.deploy_runtime jnet ~from:jdep
         (Ethainter_word.Hex.decode selftest_hex))
        .T.created
    with
    | Some a -> a
    | None -> fail_selftest "journal deployment failed"
  in
  Idx.drain jidx;
  Idx.close jidx;
  let jnet2 = T.create ~name:"selftest-journal-2" () in
  let jidx2 = Idx.recover ~journal_dir:jdir jnet2 in
  (match Idx.lookup jidx2 jaddr with
  | Idx.Indexed v ->
      if v.Idx.v_result.P.error <> None then
        fail_selftest "recovered verdict carries an error"
  | _ -> fail_selftest "recovery did not restore the indexed verdict");
  let jst = Idx.stats jidx2 in
  let jget k =
    match List.assoc_opt k jst with
    | Some v -> v
    | None -> fail_selftest "recovered index stats missing %s" k
  in
  if jget "index_recovered_verdicts" < 1.0 then
    fail_selftest "no verdict counted as recovered";
  if jget "index_analyses" > 0.0 then
    fail_selftest "recovery recomputed a clean contract";
  Idx.close jidx2;
  (match Sys.readdir jdir with
  | files ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat jdir f) with _ -> ())
        files
  | exception _ -> ());
  (try Unix.rmdir jdir with _ -> ());
  Client.close client;
  (* join before closing [a]: the reader owns the fd until
     serve_connection returns (having drained in-flight jobs) *)
  (try Thread.join reader with _ -> ());
  (try Unix.close a with _ -> ());
  Serve.stop server;
  print_endline "ethainterd selftest: OK";
  exit 0

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)
(* ------------------------------------------------------------------ *)

let cache_term =
  let no_cache =
    Arg.(value & flag
         & info [ "no-cache" ]
             ~doc:"Disable the content-addressed analysis cache (every \
                   request recomputes).")
  in
  let cache_dir =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Persist analysis results under $(docv) (overrides \
                   ETHAINTER_CACHE_DIR), so a restarted daemon starts \
                   disk-warm.")
  in
  Term.(
    const (fun nc dir ->
        if nc then P.set_cache_enabled false;
        match dir with
        | Some d -> P.set_cache_dir (Some d)
        | None -> ())
    $ no_cache $ cache_dir)

let faults_term =
  let spec =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:"Arm deterministic fault injection \
                   ($(i,site=rate,...:seed), overrides ETHAINTER_FAULTS). \
                   For robustness testing only.")
  in
  Term.(
    const (function
      | Some s -> Ethainter_core.Fault.configure (Some s)
      | None -> ())
    $ spec)

let run socket stdio workers queue_depth timeout_s watch journal_dir
    selftest_flag () () =
  if selftest_flag then selftest ~workers ~queue_depth ~timeout_s ();
  if journal_dir <> None && not watch then begin
    prerr_endline "ethainterd: --journal-dir requires --watch";
    exit 2
  end;
  match (socket, stdio) with
  | None, false ->
      prerr_endline
        "ethainterd: one of --socket PATH, --stdio or --selftest is required";
      exit 2
  | Some _, true ->
      prerr_endline "ethainterd: --socket and --stdio are exclusive";
      exit 2
  | Some path, false ->
      let server =
        Serve.create ?workers ~queue_depth ~default_timeout_s:timeout_s ()
      in
      let driver =
        if watch then Some (start_watch ?journal_dir server) else None
      in
      (* a client hanging up mid-response must not kill the daemon *)
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
      (* the handler runs at a safe point on an arbitrary thread — one
         that may hold the very mutex a full shutdown would take, so
         it must only flag and wake (request_stop); the joins happen
         below, on the main thread, after the serve loop returns *)
      let on_signal _ = Serve.request_stop server in
      (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
       with _ -> ());
      (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
       with _ -> ());
      Printf.eprintf "ethainterd: listening on %s (queue depth %d%s)\n%!" path
        queue_depth (if watch then ", watch mode" else "");
      Serve.serve_unix_socket server ~path;
      Serve.stop server;
      (* the driver observes the stopped flag; index job submissions
         refused by the drained pool fall back to running inline on the
         driver thread, so the join is bounded *)
      (match driver with
      | Some d -> (try Thread.join d with _ -> ())
      | None -> ())
  | None, true ->
      let server =
        Serve.create ?workers ~queue_depth ~default_timeout_s:timeout_s ()
      in
      let driver =
        if watch then Some (start_watch ?journal_dir server) else None
      in
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
      Serve.serve_stdio server;
      Serve.stop server;
      (match driver with
      | Some d -> (try Thread.join d with _ -> ())
      | None -> ())

let main =
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix-domain socket at $(docv) (an existing \
                   socket file is replaced).")
  in
  let stdio =
    Arg.(value & flag
         & info [ "stdio" ]
             ~doc:"Serve a single connection over stdin/stdout (one frame \
                   stream; exits at EOF).")
  in
  let workers =
    Arg.(value & opt (some int) None
         & info [ "workers" ] ~docv:"N"
             ~doc:"Analysis worker domains (default: ETHAINTER_WORKERS or \
                   the machine's recommended domain count).")
  in
  let queue_depth =
    Arg.(value & opt int 64
         & info [ "queue-depth" ] ~docv:"N"
             ~doc:"Admission-control bound: requests arriving while $(docv) \
                   jobs are queued are refused immediately with the \
                   $(i,overloaded) protocol error instead of queueing \
                   unboundedly.")
  in
  let timeout_s =
    Arg.(value & opt float 120.0
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Per-request deadline cap (requests asking for more are \
                   clamped). The paper's combined cutoff is 120 s.")
  in
  let watch =
    Arg.(value & flag
         & info [ "watch" ]
             ~doc:"Attach a streaming analysis index fed by an in-process \
                   chain simulator under a continuous synthetic workload; \
                   serve per-contract verdicts via the watch request and \
                   index counters via index-stats.")
  in
  let journal_dir =
    Arg.(value & opt (some string) None
         & info [ "journal-dir" ] ~docv:"DIR"
             ~doc:"Make the $(b,--watch) index durable: journal every block \
                   observation and verdict under $(docv) (write-ahead log + \
                   periodic checkpoints), recover the previous run's \
                   verdicts at startup, and write a clean final checkpoint \
                   on shutdown. A killed daemon restarted with the same \
                   $(docv) re-analyzes only contracts dirty at the crash.")
  in
  let selftest =
    Arg.(value & flag
         & info [ "selftest" ]
             ~doc:"Run a smoke cycle (analysis, stats, watch-mode \
                   attach/lookup/detach) against an in-process server and \
                   exit (0 on success) — a healthcheck.")
  in
  let doc = "Ethainter analysis-as-a-service daemon" in
  Cmd.v
    (Cmd.info "ethainterd" ~version:"1.0.0" ~doc)
    Term.(
      const run $ socket $ stdio $ workers $ queue_depth $ timeout_s
      $ watch $ journal_dir $ selftest $ cache_term $ faults_term)

let () = exit (Cmd.eval main)
