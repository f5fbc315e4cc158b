(* Durability + supervised-recovery tests: the PR 9 acceptance
   criteria.

   Journal layer:
   - a fresh directory recovers empty; close writes a checkpoint that
     recovers with zero replay;
   - appends without a checkpoint (the crash shape) replay in order;
   - a torn tail — the writer died mid-write(2) — is detected,
     truncated away, and appending resumes cleanly;
   - a bit-flipped newest checkpoint falls back to the previous
     generation and replays both generations' journals: corrupt state
     is never served;
   - recovery is idempotent (recover twice, same answer);
   - a directory written at another format version is refused with
     every file left byte-identical.

   Index layer:
   - close/recover restores every verdict with ZERO re-analysis;
   - an outage window (blocks sealed while no index was attached)
     costs one analysis per contract deployed in it and nothing for
     its storage writes, with zero front-end recomputations for
     anything previously seen;
   - kill -9 mid-stream (a forked child dying at a seeded crash/torn
     fault site inside the journal) followed by recovery over a
     deterministic replay of the same chain yields verdicts identical
     to a never-crashed batch sweep;
   - the poison-pill breaker quarantines a contract after 3
     consecutive failed analyses and short-circuits further jobs for
     the same bytecode;
   - a failed analysis is retried by the per-block probe scan alone,
     until the breaker opens.

   The fork-based test runs FIRST, before anything in this binary has
   spawned pools or domains, so the child is a plain single-threaded
   process. Indexes here run without a pool (jobs inline on the
   sealing thread) for determinism. *)

module U = Ethainter_word.Uint256
module P = Ethainter_core.Pipeline
module S = Ethainter_core.Scheduler
module F = Ethainter_core.Fault
module T = Ethainter_chain.Testnet
module J = Ethainter_index.Journal
module Idx = Ethainter_index.Index

let normalize (r : P.result) = { r with P.elapsed_s = 0.0 }

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ethainter_journal_%d_%d" (Unix.getpid ()) !counter)

(* Same Owned shape as the index tests: guards read only [owner]
   (slot 0); distinct tag constants keep bytecodes (and breaker keys)
   distinct across tests. *)
let source tag =
  Printf.sprintf
    {|contract Owned {
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

let compile tag = Ethainter_minisol.Codegen.compile_source (source tag)

let funded seed =
  let net = T.create () in
  let boss = T.account_of_seed seed in
  T.fund_account net boss (U.of_string "0xffffffffffffffffffffffff");
  (net, boss)

let deploy_tag net boss tag =
  match (T.deploy net ~from:boss (compile tag)).T.created with
  | Some a -> a
  | None -> Alcotest.fail "deployment failed"

let get stats k =
  match List.assoc_opt k stats with
  | Some v -> v
  | None -> Alcotest.failf "stats missing %s" k

(* ---------- deterministic workload (shared by child and parent of
   the kill test: byte-identical chains on both sides) ---------- *)

let drive_tick net boss fleet i =
  let a = deploy_tag net boss (700 + i) in
  fleet := !fleet @ [ (a, ref boss) ];
  (if i mod 2 = 1 && !fleet <> [] then begin
     let addr, owner = List.nth !fleet (i / 2 mod List.length !fleet) in
     let next = T.account_of_seed (Printf.sprintf "jr-owner-%d" i) in
     T.fund_account net next (U.of_string "0xffffffff");
     if
       T.succeeded
         (T.call_fn net ~from:!owner ~to_:addr "setOwner(address)" [ next ])
     then owner := next
   end);
  if List.length !fleet > 8 then
    match !fleet with
    | (addr, owner) :: rest ->
        ignore (T.call_fn net ~from:!owner ~to_:addr "kill()" []);
        fleet := rest
    | [] -> ()

(* ---------- kill -9 mid-stream differential ---------- *)

(* The child arms crash + torn-write faults on the journal's append
   path and drives the workload until one fires; [Fault.Crashed] at a
   write boundary leaves the same bytes on disk as kill -9 at that
   instruction, so exiting there IS the kill. The parent then replays
   the identical chain (all addresses derive from seeds and nonces),
   recovers, and the recovered index must match a never-crashed batch
   sweep contract for contract. *)
let test_kill_and_restart () =
  let jdir = temp_dir () in
  let ticks = 40 in
  (match Unix.fork () with
  | 0 ->
      let code =
        try
          F.configure (Some "crash=0.08,torn_write=0.2:1234");
          let net, boss = funded "jr-kill" in
          let idx = Idx.recover ~journal_dir:jdir net in
          let fleet = ref [] in
          (try
             for i = 0 to ticks - 1 do
               drive_tick net boss fleet i
             done;
             ignore idx;
             (* no fault fired: inconclusive, fail loudly *)
             64
           with F.Crashed _ -> 70)
        with _ -> 65
      in
      Unix._exit code
  | pid ->
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool)
        (Printf.sprintf "child died at an injected crash site (%s)"
           (match status with
           | Unix.WEXITED n -> Printf.sprintf "exit %d" n
           | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
           | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n))
        true
        (status = Unix.WEXITED 70);
      (* the journal must hold something: the child got past genesis *)
      Alcotest.(check bool) "journal directory is non-empty" true
        (Array.length (Sys.readdir jdir) > 0);
      let net, boss = funded "jr-kill" in
      let idx = Idx.recover ~journal_dir:jdir net in
      let fleet = ref [] in
      for i = 0 to ticks - 1 do
        drive_tick net boss fleet i
      done;
      Idx.drain idx;
      let live = T.live_contracts net in
      let batch =
        List.map
          (fun (_, code) -> S.analyze_request (P.request (P.Runtime code)))
          live
      in
      let incremental = Idx.contents idx in
      Alcotest.(check int) "same population" (List.length live)
        (List.length incremental);
      List.iter2
        (fun (ia, ic, ir) ((la, lc), br) ->
          Alcotest.(check bool) "same address" true (U.equal ia la);
          Alcotest.(check bool) "same bytecode" true (String.equal ic lc);
          Alcotest.(check bool) "recovered == never-crashed" true
            (normalize ir = normalize br))
        incremental
        (List.combine live batch);
      Idx.close idx)

(* ---------- journal layer ---------- *)

let obs_fixture n =
  { J.o_number = n;
    o_deployed = [ (U.of_int (100 + n), Printf.sprintf "code-%d" n) ];
    o_destroyed = [ U.of_int (90 + n) ] }

let verdict_fixture =
  lazy (P.run (P.request (P.Runtime (compile 42))))

let event_fixtures () =
  let r = Lazy.force verdict_fixture in
  [ J.Ev_block (obs_fixture 1);
    J.Ev_verdict
      { ev_addr = U.of_int 101; ev_indexed_block = 1; ev_runs = 1;
        ev_result = r };
    J.Ev_block (obs_fixture 2) ]

let check_events msg expected actual =
  Alcotest.(check int) (msg ^ ": event count") (List.length expected)
    (List.length actual);
  List.iter2
    (fun e a ->
      match (e, a) with
      | J.Ev_block o, J.Ev_block o' ->
          Alcotest.(check bool) (msg ^ ": block event") true (o = o')
      | ( J.Ev_verdict { ev_addr; ev_indexed_block; ev_runs; ev_result },
          J.Ev_verdict
            { ev_addr = ev_addr'; ev_indexed_block = ev_indexed_block';
              ev_runs = ev_runs'; ev_result = ev_result' } ) ->
          Alcotest.(check bool) (msg ^ ": verdict event") true
            (U.equal ev_addr ev_addr'
            && ev_indexed_block = ev_indexed_block'
            && ev_runs = ev_runs'
            && normalize ev_result = normalize ev_result')
      | _ -> Alcotest.fail (msg ^ ": event kind mismatch"))
    expected actual

let test_fresh_then_close_roundtrip () =
  (* a missing (even nested) directory starts fresh *)
  let jdir = Filename.concat (temp_dir ()) "nested" in
  let t, r = J.recover ~dir:jdir in
  Alcotest.(check bool) "fresh: no snapshot" true (r.J.r_snapshot = None);
  Alcotest.(check bool) "fresh: no events" true (r.J.r_events = []);
  Alcotest.(check bool) "fresh: no fallback" false r.J.r_checkpoint_fallback;
  Alcotest.(check bool) "fresh: no torn tail" false r.J.r_torn_tail;
  List.iter (J.append t) (event_fixtures ());
  let verdict = Lazy.force verdict_fixture in
  let snap =
    { J.s_cursor = 2;
      s_entries =
        [ { J.e_addr = U.of_int 101; e_code = "code-1"; e_deployed_block = 1;
            e_queued_block = 1; e_runs = 1;
            e_state = J.S_indexed (verdict, 1) };
          { J.e_addr = U.of_int 102; e_code = "code-2"; e_deployed_block = 2;
            e_queued_block = 2; e_runs = 0; e_state = J.S_pending } ] }
  in
  J.close t snap;
  let _, r2 = J.recover ~dir:jdir in
  (match r2.J.r_snapshot with
  | Some s ->
      Alcotest.(check int) "cursor restored" 2 s.J.s_cursor;
      Alcotest.(check int) "entries restored" 2 (List.length s.J.s_entries);
      List.iter2
        (fun e e' ->
          Alcotest.(check bool) "entry fields" true
            (U.equal e.J.e_addr e'.J.e_addr
            && e.J.e_code = e'.J.e_code
            && e.J.e_deployed_block = e'.J.e_deployed_block
            && e.J.e_queued_block = e'.J.e_queued_block
            && e.J.e_runs = e'.J.e_runs);
          match (e.J.e_state, e'.J.e_state) with
          | J.S_pending, J.S_pending | J.S_destroyed, J.S_destroyed -> ()
          | J.S_indexed (v, b), J.S_indexed (v', b') ->
              Alcotest.(check int) "indexed block" b b';
              Alcotest.(check bool) "verdict payload" true
                (normalize v = normalize v')
          | _ -> Alcotest.fail "entry state mismatch")
        snap.J.s_entries s.J.s_entries
  | None -> Alcotest.fail "checkpoint did not recover");
  Alcotest.(check bool) "closed cleanly: zero replay" true
    (r2.J.r_events = []);
  Alcotest.(check bool) "no fallback" false r2.J.r_checkpoint_fallback;
  Alcotest.(check bool) "no torn tail" false r2.J.r_torn_tail

let test_appends_without_checkpoint_replay () =
  (* the crash shape: records appended, no checkpoint, process gone *)
  let jdir = temp_dir () in
  let t, _ = J.recover ~dir:jdir in
  let evs = event_fixtures () in
  List.iter (J.append t) evs;
  (* no close: simply abandon [t], as a dead process would *)
  let _, r = J.recover ~dir:jdir in
  Alcotest.(check bool) "no snapshot yet" true (r.J.r_snapshot = None);
  check_events "uncheckpointed replay" evs r.J.r_events;
  Alcotest.(check bool) "no torn tail" false r.J.r_torn_tail

let test_torn_tail_truncated () =
  let jdir = temp_dir () in
  let t, _ = J.recover ~dir:jdir in
  let evs = event_fixtures () in
  List.iter (J.append t) evs;
  (* tear the log exactly as a mid-write(2) death would: a few bytes
     that parse as no valid record *)
  let wal = Filename.concat jdir "wal-000000000.ethj" in
  Alcotest.(check bool) "wal file exists" true (Sys.file_exists wal);
  let oc =
    open_out_gen [ Open_binary; Open_append; Open_wronly ] 0o644 wal
  in
  output_string oc "ETJR\x01B\x00\x00";
  close_out oc;
  let t2, r = J.recover ~dir:jdir in
  Alcotest.(check bool) "torn tail detected" true r.J.r_torn_tail;
  check_events "valid prefix survives" evs r.J.r_events;
  (* the tail was truncated: appending resumes and the next recovery
     is clean — double-recovery idempotence *)
  J.append t2 (J.Ev_block (obs_fixture 3));
  let _, r2 = J.recover ~dir:jdir in
  Alcotest.(check bool) "clean after truncation" false r2.J.r_torn_tail;
  check_events "appended past the truncation point"
    (evs @ [ J.Ev_block (obs_fixture 3) ])
    r2.J.r_events

let test_corrupt_checkpoint_falls_back () =
  let jdir = temp_dir () in
  let t, _ = J.recover ~dir:jdir in
  let snap1 = { J.s_cursor = 1; s_entries = [] } in
  J.checkpoint t snap1;
  let ev_mid = J.Ev_block (obs_fixture 2) in
  J.append t ev_mid;
  let snap2 = { J.s_cursor = 2; s_entries = [] } in
  J.checkpoint t snap2;
  let ev_late = J.Ev_block (obs_fixture 3) in
  J.append t ev_late;
  (* flip one bit in the newest checkpoint: its frame digest must
     refuse the whole file, and recovery must fall back a generation *)
  let ckpt2 = Filename.concat jdir "ckpt-000000002.ethj" in
  Alcotest.(check bool) "newest checkpoint exists" true
    (Sys.file_exists ckpt2);
  let fd = Unix.openfile ckpt2 [ Unix.O_RDWR ] 0 in
  let pos = 25 in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x10));
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let _, r = J.recover ~dir:jdir in
  Alcotest.(check bool) "fallback reported" true r.J.r_checkpoint_fallback;
  (match r.J.r_snapshot with
  | Some s -> Alcotest.(check int) "previous generation served" 1 s.J.s_cursor
  | None -> Alcotest.fail "fallback generation not recovered");
  (* both generations' journals replay: nothing between checkpoint 1
     and the crash is lost *)
  check_events "both wal generations replayed" [ ev_mid; ev_late ]
    r.J.r_events;
  (* the corrupt file is gone; a second recovery no longer reports a
     fallback (idempotence) *)
  Alcotest.(check bool) "corrupt checkpoint deleted" false
    (Sys.file_exists ckpt2);
  let _, r2 = J.recover ~dir:jdir in
  Alcotest.(check bool) "second recovery clean" false
    r2.J.r_checkpoint_fallback;
  check_events "second recovery same events" [ ev_mid; ev_late ]
    r2.J.r_events

(* A record as format version 1 framed it: the same header layout and
   FNV-64 digest as today's, with version byte 1. *)
let v1_record kind payload =
  let len = String.length payload in
  let h = ref 0x3bf29ce484222325 in
  let step b = h := (!h lxor b) * 0x100000001b3 in
  List.iter step
    [ 1; Char.code kind; (len lsr 24) land 0xff; (len lsr 16) land 0xff;
      (len lsr 8) land 0xff; len land 0xff ];
  String.iter (fun c -> step (Char.code c)) payload;
  let b = Bytes.create (18 + len) in
  Bytes.blit_string "ETJR" 0 b 0 4;
  Bytes.set b 4 '\001';
  Bytes.set b 5 kind;
  Bytes.set_int32_be b 6 (Int32.of_int len);
  Bytes.set_int64_be b 10 (Int64.of_int !h);
  Bytes.blit_string payload 0 b 18 len;
  Bytes.to_string b

let read_all path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let test_other_version_refused () =
  let jdir = temp_dir () in
  Unix.mkdir jdir 0o755;
  (* a version-1 directory: a checkpoint at cursor 3 and the WAL after
     it, whose block record still lists its storage writes *)
  let files =
    [ ( "ckpt-000000001.ethj",
        v1_record 'K' "ethainter.index.ckpt.v1\ncursor 3\nentries 0\n" );
      ( "wal-000000001.ethj",
        v1_record 'B' "block 4 0 1 0\nw 0x10 0x0\n" ) ]
  in
  List.iter
    (fun (name, bytes) ->
      Out_channel.with_open_bin (Filename.concat jdir name) (fun oc ->
          output_string oc bytes))
    files;
  let net = T.create () in
  (match Idx.recover ~journal_dir:jdir net with
  | idx ->
      Idx.close idx;
      Alcotest.fail "a version-1 journal directory was opened"
  | exception Failure msg ->
      Alcotest.(check bool) "error names the directory" true
        (contains msg jdir);
      Alcotest.(check bool) "error names both versions" true
        (contains msg "version 1" && contains msg "version 2"));
  Alcotest.(check (list string)) "no file added or removed"
    (List.sort compare (List.map fst files))
    (List.sort compare (Array.to_list (Sys.readdir jdir)));
  List.iter
    (fun (name, bytes) ->
      Alcotest.(check bool) (name ^ " byte-identical") true
        (read_all (Filename.concat jdir name) = bytes))
    files

(* ---------- index layer ---------- *)

let test_close_recover_zero_reanalysis () =
  let jdir = temp_dir () in
  let net, boss = funded "jr-roundtrip" in
  let idx = Idx.recover ~journal_dir:jdir net in
  let addrs = Array.init 3 (fun i -> deploy_tag net boss (800 + i)) in
  Idx.drain idx;
  let before = Idx.contents idx in
  Idx.close idx;
  (* recover onto a fresh chain: the journal alone must carry every
     verdict (the cursor is ahead of the empty chain, so nothing
     replays from the chain side) *)
  let net2 = T.create () in
  let idx2 = Idx.recover ~journal_dir:jdir net2 in
  let st = Idx.stats idx2 in
  Alcotest.(check int) "all verdicts recovered" 3
    (int_of_float (get st "index_recovered_verdicts"));
  Alcotest.(check int) "zero re-analyses" 0
    (int_of_float (get st "index_analyses"));
  Array.iter
    (fun a ->
      match Idx.lookup idx2 a with
      | Idx.Indexed v ->
          Alcotest.(check bool) "recovered verdict clean" true
            (v.Idx.v_result.P.error = None)
      | _ -> Alcotest.fail "verdict lost across close/recover")
    addrs;
  List.iter2
    (fun (a, c, r) (a', c', r') ->
      Alcotest.(check bool) "same address" true (U.equal a a');
      Alcotest.(check bool) "same bytecode" true (String.equal c c');
      Alcotest.(check bool) "same verdict" true
        (normalize r = normalize r'))
    before (Idx.contents idx2);
  Idx.close idx2

let test_outage_analyzes_only_new () =
  let jdir = temp_dir () in
  let net, boss = funded "jr-outage" in
  P.cache_clear ();
  let idx = Idx.recover ~journal_dir:jdir net in
  let a = deploy_tag net boss 900 in
  let _b = deploy_tag net boss 901 in
  let _c = deploy_tag net boss 902 in
  Idx.drain idx;
  (* outage: the index stops observing (detach, not close — no final
     checkpoint, like a crash), and the chain moves on without it *)
  Idx.detach idx;
  let next = T.account_of_seed "jr-outage-next" in
  T.fund_account net next (U.of_string "0xffffffff");
  Alcotest.(check bool) "rotation during outage succeeded" true
    (T.succeeded (T.call_fn net ~from:boss ~to_:a "setOwner(address)" [ next ]));
  let d = deploy_tag net boss 903 in
  let fe0 = (P.frontend_cache_stats ()).Ethainter_core.Cache.misses in
  let idx2 = Idx.recover ~journal_dir:jdir net in
  Idx.drain idx2;
  let st = Idx.stats idx2 in
  (* the rotation cost nothing: every verdict came back from the
     journal, and only the new deployment was analyzed *)
  Alcotest.(check int) "three verdicts recovered, not recomputed" 3
    (int_of_float (get st "index_recovered_verdicts"));
  Alcotest.(check int) "exactly 1 analysis (the new contract)" 1
    (int_of_float (get st "index_analyses"));
  Alcotest.(check bool) "the rotated contract keeps its verdict" true
    (match Idx.lookup idx2 a with Idx.Indexed _ -> true | _ -> false);
  (* front-end recomputation only for the genuinely new bytecode *)
  let fe1 = (P.frontend_cache_stats ()).Ethainter_core.Cache.misses in
  Alcotest.(check int) "one front-end miss (the new contract)" 1 (fe1 - fe0);
  (match Idx.lookup idx2 d with
  | Idx.Indexed _ -> ()
  | _ -> Alcotest.fail "outage-window deployment not indexed");
  (* and the recovered view equals a batch sweep of the final chain *)
  let live = T.live_contracts net in
  let batch =
    List.map
      (fun (_, code) -> S.analyze_request (P.request (P.Runtime code)))
      live
  in
  List.iter2
    (fun (ia, ic, ir) ((la, lc), br) ->
      Alcotest.(check bool) "same address" true (U.equal ia la);
      Alcotest.(check bool) "same bytecode" true (String.equal ic lc);
      Alcotest.(check bool) "incremental == batch after recovery" true
        (normalize ir = normalize br))
    (Idx.contents idx2)
    (List.combine live batch);
  Idx.close idx2

(* ---------- quarantine ---------- *)

let test_quarantine_breaker_unit () =
  S.Quarantine.clear ();
  let k = "poison" in
  let now = 1000.0 in
  Alcotest.(check bool) "fresh key admitted" true
    (S.Quarantine.check ~now k = S.Quarantine.Admit);
  S.Quarantine.record ~now k ~ok:false;
  S.Quarantine.record ~now k ~ok:false;
  Alcotest.(check bool) "below threshold still admitted" true
    (S.Quarantine.check ~now k = S.Quarantine.Admit);
  Alcotest.(check int) "two failures on record" 2 (S.Quarantine.failures k);
  S.Quarantine.record ~now k ~ok:false;
  (match S.Quarantine.check ~now k with
  | S.Quarantine.Reject { r_failures; r_retry_in_s } ->
      Alcotest.(check int) "threshold failures" S.Quarantine.threshold
        r_failures;
      Alcotest.(check bool) "positive backoff" true (r_retry_in_s > 0.0)
  | S.Quarantine.Admit -> Alcotest.fail "breaker did not open at threshold");
  Alcotest.(check bool) "is_open concurs" true
    (S.Quarantine.is_open ~now k);
  (* first trip backs off 0.25 s: closed again just past it *)
  let later = now +. 0.3 in
  Alcotest.(check bool) "backoff expired -> closed" false
    (S.Quarantine.is_open ~now:later k);
  Alcotest.(check bool) "probe admitted" true
    (S.Quarantine.check ~now:later k = S.Quarantine.Admit);
  (* a failed probe re-opens with doubled backoff *)
  S.Quarantine.record ~now:later k ~ok:false;
  Alcotest.(check bool) "re-opened" true (S.Quarantine.is_open ~now:later k);
  Alcotest.(check bool) "0.5 s backoff: still open at +0.3" true
    (S.Quarantine.is_open ~now:(later +. 0.3) k);
  Alcotest.(check bool) "closed past doubled backoff" false
    (S.Quarantine.is_open ~now:(later +. 0.6) k);
  (* success closes and forgets *)
  S.Quarantine.record ~now:(later +. 0.6) k ~ok:true;
  Alcotest.(check int) "forgotten after success" 0 (S.Quarantine.failures k);
  Alcotest.(check bool) "admitted after success" true
    (S.Quarantine.check ~now:(later +. 0.6) k = S.Quarantine.Admit);
  S.Quarantine.clear ()

let status_name = function
  | Idx.Indexed _ -> "Indexed"
  | Idx.Pending _ -> "Pending"
  | Idx.Destroyed -> "Destroyed"
  | Idx.Unknown -> "Unknown"
  | Idx.Quarantined _ -> "Quarantined"

let test_quarantine_in_index () =
  S.Quarantine.clear ();
  let net, boss = funded "jr-quarantine" in
  let idx = Idx.create net in
  let a = deploy_tag net boss 950 in
  Idx.drain idx;
  let code =
    match
      List.find_opt (fun (addr, _) -> U.equal addr a) (T.live_contracts net)
    with
    | Some (_, c) -> c
    | None -> Alcotest.fail "deployed contract missing from the chain"
  in
  let analyses0 = int_of_float (get (Idx.stats idx) "index_analyses") in
  (* Trip the breaker on this runtime bytecode directly — three
     consecutive failures, exactly what three crashed/timed-out
     analyses would have reported. (Fault-injected failures only fire
     at deadline poll sites, which this tiny contract's analysis never
     reaches, so the deterministic route is to feed the breaker the
     outcomes itself; real failed analyses are covered by the retry
     test below.) *)
  S.Quarantine.record code ~ok:false;
  S.Quarantine.record code ~ok:false;
  S.Quarantine.record code ~ok:false;
  (* the same bytecode redeployed: the job hits the open breaker and
     parks the new entry as Quarantined without burning any pool time *)
  let a2 = deploy_tag net boss 950 in
  Idx.drain idx;
  (match Idx.lookup idx a2 with
  | Idx.Quarantined n ->
      Alcotest.(check bool) "threshold consecutive failures" true
        (n >= S.Quarantine.threshold)
  | st -> Alcotest.failf "expected Quarantined, got %s" (status_name st));
  let st = Idx.stats idx in
  Alcotest.(check int) "one entry parked" 1
    (int_of_float (get st "index_quarantined"));
  (* a third instance: short-circuited before any analysis runs *)
  let a3 = deploy_tag net boss 950 in
  Idx.drain idx;
  let st2 = Idx.stats idx in
  Alcotest.(check bool) "third instance parked too" true
    (match Idx.lookup idx a3 with Idx.Quarantined _ -> true | _ -> false);
  Alcotest.(check int) "jobs short-circuited, not analyzed" analyses0
    (int_of_float (get st2 "index_analyses"));
  Alcotest.(check bool) "drops counted" true
    (get st2 "index_quarantine_drops" >= 2.0);
  Alcotest.(check bool) "the first instance keeps its verdict" true
    (match Idx.lookup idx a with Idx.Indexed _ -> true | _ -> false);
  (* after the backoff (0.25 s on a first trip) the next sealed block
     queues probe jobs; with no failures injected the probes succeed,
     close the breaker, and both parked instances become Indexed *)
  Thread.delay 0.3;
  ignore (deploy_tag net boss 951);
  Idx.drain idx;
  let st3 = Idx.stats idx in
  Alcotest.(check bool) "probe re-analysis attempted" true
    (get st3 "index_quarantine_probes" >= 1.0);
  Alcotest.(check int) "nothing left quarantined" 0
    (int_of_float (get st3 "index_quarantined"));
  Alcotest.(check bool) "probed entries re-indexed" true
    (List.for_all
       (fun x -> match Idx.lookup idx x with Idx.Indexed _ -> true | _ -> false)
       [ a2; a3 ]);
  Idx.detach idx;
  S.Quarantine.clear ()

(* A timed-out analysis is retried by the per-block probe scan, with no
   storage write anywhere: one probe per sealed block while the breaker
   is below its threshold, none while it is open. *)
let test_failed_analysis_retries () =
  S.Quarantine.clear ();
  let net, boss = funded "jr-retry" in
  let idx = Idx.create ~timeout_s:0.0 net in
  let a = deploy_tag net boss 960 in
  let analyses () = int_of_float (get (Idx.stats idx) "index_analyses") in
  let parked () =
    match Idx.lookup idx a with
    | Idx.Quarantined n -> n
    | st -> Alcotest.failf "expected Quarantined, got %s" (status_name st)
  in
  Alcotest.(check int) "deployment analyzed once" 1 (analyses ());
  Alcotest.(check int) "parked after one failure" 1 (parked ());
  let empty_block () = T.in_block net (fun () -> ()) in
  empty_block ();
  Alcotest.(check int) "next block retries" 2 (analyses ());
  Alcotest.(check int) "parked after two failures" 2 (parked ());
  empty_block ();
  Alcotest.(check int) "and the next" 3 (analyses ());
  Alcotest.(check int) "breaker opens at the threshold"
    S.Quarantine.threshold (parked ());
  empty_block ();
  empty_block ();
  Alcotest.(check int) "no retry while the breaker is open" 3 (analyses ());
  Alcotest.(check int) "the two retries were probes" 2
    (int_of_float (get (Idx.stats idx) "index_quarantine_probes"));
  Idx.detach idx;
  S.Quarantine.clear ()

let () =
  Alcotest.run "journal"
    [ (* fork first: no pools/domains exist yet in this process *)
      ( "kill-restart",
        [ Alcotest.test_case "kill -9 mid-stream == never crashed" `Quick
            test_kill_and_restart ] );
      ( "journal",
        [ Alcotest.test_case "fresh dir, close, zero-replay recover" `Quick
            test_fresh_then_close_roundtrip;
          Alcotest.test_case "uncheckpointed appends replay" `Quick
            test_appends_without_checkpoint_replay;
          Alcotest.test_case "torn tail truncated, appends resume" `Quick
            test_torn_tail_truncated;
          Alcotest.test_case "bit-flipped checkpoint falls back" `Quick
            test_corrupt_checkpoint_falls_back;
          Alcotest.test_case "other format version refused, untouched"
            `Quick test_other_version_refused ] );
      ( "recovery",
        [ Alcotest.test_case "close/recover: zero re-analysis" `Quick
            test_close_recover_zero_reanalysis;
          Alcotest.test_case "outage re-analyzes only new deployments"
            `Quick test_outage_analyzes_only_new ] );
      ( "quarantine",
        [ Alcotest.test_case "breaker unit semantics" `Quick
            test_quarantine_breaker_unit;
          Alcotest.test_case "poison pill parks in the index" `Quick
            test_quarantine_in_index;
          Alcotest.test_case "failed analysis retried by probes" `Quick
            test_failed_analysis_retries ] ) ]
