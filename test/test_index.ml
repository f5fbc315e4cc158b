(* Streaming-index tests: the PR 7 acceptance criteria.

   - deployments enter the index and get verdicts;
   - the incremental view equals a cold batch sweep of the final chain
     state (incremental == batch differential);
   - invalidation precision: K dirty contracts cost exactly K back-end
     re-analyses and ZERO front-end recomputations, proven via
     Telemetry counter diffs;
   - non-dependency writes invalidate nothing;
   - self-destructs drop verdicts;
   - the telemetry codec roundtrips;
   - watch/index-stats end-to-end over a socketpair daemon.

   Indexes here run without a pool (jobs inline on the sealing thread)
   so every block's consequences are observable deterministically right
   after the transaction returns; the socketpair test uses the server's
   real pool. *)

module U = Ethainter_word.Uint256
module P = Ethainter_core.Pipeline
module S = Ethainter_core.Scheduler
module Tel = Ethainter_core.Telemetry
module Cache = Ethainter_core.Cache
module T = Ethainter_chain.Testnet
module Idx = Ethainter_index.Index
module Server = Ethainter_serve.Server
module Client = Ethainter_serve.Client
module Proto = Ethainter_serve.Proto

(* Distinct constant per tag => distinct runtime bytecode => distinct
   cache keys (identical sources would alias front/back-end entries and
   void the precision accounting). Guards read only [owner] (slot 0);
   [beacon] (slot 1) is deliberate noise. *)
let source tag =
  Printf.sprintf
    {|contract Owned {
  address owner;
  uint256 beacon;
  constructor() { owner = msg.sender; }
  function tag() public returns (uint256) { return %d; }
  function ping() public { beacon = beacon + 1; }
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

let normalize (r : P.result) = { r with P.elapsed_s = 0.0 }

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
  | None -> Alcotest.failf "index stats missing %s" k

(* ---------- basic lifecycle ---------- *)

let test_deploy_to_indexed () =
  let net, boss = funded "idx-basic" in
  let idx = Idx.create net in
  let addr = deploy_tag net boss 1 in
  Idx.drain idx;
  (match Idx.lookup idx addr with
  | Idx.Indexed v ->
      Alcotest.(check bool) "verdict has no error" true (v.Idx.v_result.P.error = None);
      Alcotest.(check int) "deployed at block 1" 1 v.Idx.v_deployed_block
  | _ -> Alcotest.fail "deployed contract not Indexed");
  Alcotest.(check bool) "unknown address is Unknown" true
    (Idx.lookup idx (T.account_of_seed "nobody") = Idx.Unknown);
  Alcotest.(check int) "one contract in contents" 1
    (List.length (Idx.contents idx));
  Idx.detach idx

let test_catchup_then_tail () =
  (* blocks sealed before create are replayed; later ones tail in *)
  let net, boss = funded "idx-catchup" in
  let a1 = deploy_tag net boss 1 in
  let idx = Idx.create net in
  let a2 = deploy_tag net boss 2 in
  Idx.drain idx;
  Alcotest.(check bool) "pre-create deployment indexed" true
    (match Idx.lookup idx a1 with Idx.Indexed _ -> true | _ -> false);
  Alcotest.(check bool) "post-create deployment indexed" true
    (match Idx.lookup idx a2 with Idx.Indexed _ -> true | _ -> false);
  Idx.detach idx

let test_selfdestruct_drops_verdict () =
  let net, boss = funded "idx-kill" in
  let idx = Idx.create net in
  let addr = deploy_tag net boss 1 in
  let keep = deploy_tag net boss 2 in
  Idx.drain idx;
  let r = T.call_fn net ~from:boss ~to_:addr "kill()" [] in
  Alcotest.(check bool) "kill succeeded" true (T.succeeded r);
  Idx.drain idx;
  Alcotest.(check bool) "destroyed status" true
    (Idx.lookup idx addr = Idx.Destroyed);
  (match Idx.contents idx with
  | [ (a, _, _) ] -> Alcotest.(check bool) "survivor kept" true (U.equal a keep)
  | l -> Alcotest.failf "expected 1 survivor, got %d" (List.length l));
  Alcotest.(check int) "destroyed counted" 1
    (int_of_float (get (Idx.stats idx) "index_destroyed"));
  Idx.detach idx

(* ---------- invalidation precision (the telemetry claim) ---------- *)

let test_invalidation_precision () =
  let net, boss = funded "idx-precision" in
  P.cache_clear ();
  let idx = Idx.create net in
  let n = 5 and k = 3 in
  let addrs = Array.init n (fun i -> deploy_tag net boss (100 + i)) in
  Idx.drain idx;
  let tel0 = Tel.capture () in
  let st0 = Idx.stats idx in
  (* rotate the admin key of exactly [k] contracts *)
  for i = 0 to k - 1 do
    let next = T.account_of_seed (Printf.sprintf "next-owner-%d" i) in
    let r =
      T.call_fn net ~from:boss ~to_:addrs.(i) "setOwner(address)" [ next ]
    in
    Alcotest.(check bool) "rotation succeeded" true (T.succeeded r)
  done;
  Idx.drain idx;
  let d = Tel.diff (Tel.capture ()) tel0 in
  let st1 = Idx.stats idx in
  let delta key = int_of_float (get st1 key -. get st0 key) in
  Alcotest.(check int) "exactly K verdicts invalidated" k
    (delta "index_invalidations");
  Alcotest.(check int) "exactly K re-analyses" k (delta "index_reanalyses");
  (* the acceptance claim: K dirty contracts cost exactly K back-end
     fixpoints and ZERO front-end recomputations *)
  Alcotest.(check int) "zero front-end recomputations" 0
    d.Tel.cache_fe.Cache.misses;
  Alcotest.(check int) "K front-end cache hits" k d.Tel.cache_fe.Cache.hits;
  Alcotest.(check int) "exactly K back-end re-runs" k
    d.Tel.cache_be.Cache.misses;
  Idx.detach idx

let test_noise_writes_do_not_invalidate () =
  let net, boss = funded "idx-noise" in
  let idx = Idx.create net in
  let n = 3 in
  let addrs = Array.init n (fun i -> deploy_tag net boss (200 + i)) in
  Idx.drain idx;
  let st0 = Idx.stats idx in
  (* slot 1 (beacon) is written, but no guard slice reads it *)
  Array.iter
    (fun addr -> ignore (T.call_fn net ~from:boss ~to_:addr "ping()" []))
    addrs;
  Idx.drain idx;
  let st1 = Idx.stats idx in
  Alcotest.(check int) "no invalidations from non-dependency writes" 0
    (int_of_float (get st1 "index_invalidations" -. get st0 "index_invalidations"));
  Alcotest.(check int) "no re-analyses either" 0
    (int_of_float (get st1 "index_analyses" -. get st0 "index_analyses"));
  Idx.detach idx

(* ---------- incremental == batch differential ---------- *)

let test_incremental_equals_batch () =
  let net, boss = funded "idx-diff" in
  let idx = Idx.create net in
  let n = 6 in
  let addrs = Array.init n (fun i -> deploy_tag net boss (300 + i)) in
  let owners = Array.make n boss in
  (* churn: rotations, noise, a batched block, a kill *)
  for k = 0 to 7 do
    let i = k mod n in
    let next = T.account_of_seed (Printf.sprintf "diff-owner-%d" k) in
    T.fund_account net next (U.of_string "0xffffffff");
    if
      T.succeeded
        (T.call_fn net ~from:owners.(i) ~to_:addrs.(i) "setOwner(address)"
           [ next ])
    then owners.(i) <- next
  done;
  T.in_block net (fun () ->
      ignore (T.call_fn net ~from:boss ~to_:addrs.(0) "ping()" []);
      ignore (T.call_fn net ~from:boss ~to_:addrs.(1) "ping()" []));
  ignore (T.call_fn net ~from:owners.(n - 1) ~to_:addrs.(n - 1) "kill()" []);
  Idx.drain idx;
  let live = T.live_contracts net in
  let batch = S.analyze_corpus (List.map snd live) in
  let incremental = Idx.contents idx in
  Alcotest.(check int) "same population" (List.length live)
    (List.length incremental);
  List.iter2
    (fun (ia, ic, ir) ((la, lc), br) ->
      Alcotest.(check bool) "same address" true (U.equal ia la);
      Alcotest.(check bool) "same bytecode" true (String.equal ic lc);
      Alcotest.(check bool) "same verdict" true
        (normalize ir = normalize br))
    incremental
    (List.combine live batch);
  Idx.detach idx

(* ---------- bounded history ---------- *)

let refused f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_bounded_history () =
  let net, boss = funded "idx-bounded" in
  let addr = deploy_tag net boss 700 in
  let idx = Idx.create net in
  for _ = 1 to 1000 do
    ignore (T.call_fn net ~from:boss ~to_:addr "ping()" [])
  done;
  Idx.drain idx;
  Alcotest.(check int) "index followed every block" (T.block_number net)
    (Idx.last_block idx);
  (* the index has received every block, so the chain kept none *)
  Alcotest.(check bool) "subscribing from genesis refused" true
    (refused (fun () -> T.subscribe net ~cursor:0 (fun _ -> ())));
  Idx.detach idx

let test_closed_index_collectable () =
  let net, boss = funded "idx-gc" in
  let w = Weak.create 1 in
  let[@inline never] attach_and_close () =
    let idx = Idx.create net in
    ignore (deploy_tag net boss 701);
    Idx.drain idx;
    Idx.close idx;
    Weak.set w 0 (Some idx)
  in
  attach_and_close ();
  (* the chain lives on and keeps sealing blocks *)
  ignore (deploy_tag net boss 702);
  Gc.full_major ();
  Alcotest.(check bool) "closed index collected" false (Weak.check w 0);
  Alcotest.(check int) "chain still alive" 2 (T.block_number net)

(* ---------- telemetry codec ---------- *)

let test_telemetry_codec_roundtrip () =
  (* a live snapshot with a registered source, exercised end to end *)
  let net, boss = funded "idx-codec" in
  let idx = Idx.create net in
  ignore (deploy_tag net boss 400);
  Idx.drain idx;
  let snap = Tel.capture () in
  Alcotest.(check bool) "index source sampled" true
    (List.mem_assoc "index" snap.Tel.extras);
  let enc = Tel.encode snap in
  (match Tel.decode enc with
  | Some snap' ->
      Alcotest.(check bool) "roundtrip exact" true (snap = snap')
  | None -> Alcotest.fail "snapshot failed to decode");
  List.iter
    (fun junk ->
      Alcotest.(check bool) "corrupt payload rejected" true
        (Tel.decode junk = None))
    [ ""; "garbage"; String.sub enc 0 (String.length enc / 2); enc ^ "x" ];
  Idx.detach idx

(* ---------- watch protocol end-to-end ---------- *)

let watch_status_of = function
  | Idx.Unknown -> Proto.Watch_unknown
  | Idx.Pending b -> Proto.Watch_pending b
  | Idx.Destroyed -> Proto.Watch_destroyed
  | Idx.Quarantined n -> Proto.Watch_quarantined n
  | Idx.Indexed v ->
      Proto.Watch_indexed
        { wi_deployed = v.Idx.v_deployed_block;
          wi_indexed = v.Idx.v_indexed_block;
          wi_result = v.Idx.v_result }

let test_watch_status_codec () =
  let result = P.run (P.request (P.Runtime (compile 500))) in
  List.iter
    (fun st ->
      Alcotest.(check bool) "watch status roundtrips" true
        (Proto.decode_watch_status (Proto.encode_watch_status st) = Some st))
    [ Proto.Watch_unknown; Proto.Watch_pending 7; Proto.Watch_destroyed;
      Proto.Watch_quarantined 3;
      Proto.Watch_indexed
        { wi_deployed = 3; wi_indexed = 9; wi_result = result } ];
  Alcotest.(check bool) "garbage rejected" true
    (Proto.decode_watch_status "nonsense" = None)

let test_watch_over_socketpair () =
  let server = Server.create ~workers:2 ~queue_depth:8 () in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let reader = Thread.create (fun () -> Server.serve_connection server a) () in
  let client = Client.of_fd b in
  (* no index attached: refused, connection intact *)
  (match Client.watch client ~addr_hex:"0x1234" with
  | Client.Error (Proto.Malformed _) -> ()
  | _ -> Alcotest.fail "watch without index not refused");
  (match Client.index_stats client with
  | Stdlib.Error (Proto.Malformed _) -> ()
  | _ -> Alcotest.fail "index_stats without index not refused");
  let net, boss = funded "idx-serve" in
  let idx = Idx.create ~pool:(Server.pool server) net in
  Server.set_index_handlers server
    (Some
       { Server.h_watch =
           (fun hex ->
             match U.of_hex (String.trim hex) with
             | addr -> watch_status_of (Idx.lookup idx addr)
             | exception _ -> Proto.Watch_unknown);
         h_index_stats = (fun () -> Idx.stats idx) });
  let addr = deploy_tag net boss 600 in
  let doomed = deploy_tag net boss 601 in
  Idx.drain idx;
  (match Client.watch client ~addr_hex:(U.to_hex addr) with
  | Client.Watch (Proto.Watch_indexed w) ->
      Alcotest.(check bool) "verdict clean" true (w.wi_result.P.error = None);
      (* the wire verdict is the in-process verdict, codec included *)
      (match Idx.lookup idx addr with
      | Idx.Indexed v ->
          Alcotest.(check bool) "wire == index" true
            (normalize w.wi_result = normalize v.Idx.v_result)
      | _ -> Alcotest.fail "index lost the verdict")
  | _ -> Alcotest.fail "no indexed verdict over the wire");
  ignore (T.call_fn net ~from:boss ~to_:doomed "kill()" []);
  Idx.drain idx;
  (match Client.watch client ~addr_hex:(U.to_hex doomed) with
  | Client.Watch Proto.Watch_destroyed -> ()
  | _ -> Alcotest.fail "destroyed contract not reported destroyed");
  (match Client.watch client ~addr_hex:(U.to_hex (T.account_of_seed "ghost")) with
  | Client.Watch Proto.Watch_unknown -> ()
  | _ -> Alcotest.fail "unknown address not reported unknown");
  (match Client.index_stats client with
  | Ok st ->
      Alcotest.(check bool) "index_contracts over the wire" true
        (get st "index_contracts" >= 1.0)
  | _ -> Alcotest.fail "index_stats refused with index attached");
  (* detaching restores the refusal *)
  Server.set_index_handlers server None;
  (match Client.watch client ~addr_hex:(U.to_hex addr) with
  | Client.Error (Proto.Malformed _) -> ()
  | _ -> Alcotest.fail "watch after detach not refused");
  Idx.detach idx;
  Client.close client;
  (try Thread.join reader with _ -> ());
  (try Unix.close a with _ -> ());
  Server.stop server

let () =
  Alcotest.run "index"
    [ ( "lifecycle",
        [ Alcotest.test_case "deploy to indexed" `Quick test_deploy_to_indexed;
          Alcotest.test_case "catchup then tail" `Quick test_catchup_then_tail;
          Alcotest.test_case "selfdestruct drops verdict" `Quick
            test_selfdestruct_drops_verdict ] );
      ( "invalidation",
        [ Alcotest.test_case "precision: K dirty -> K back ends, 0 front ends"
            `Quick test_invalidation_precision;
          Alcotest.test_case "noise writes invalidate nothing" `Quick
            test_noise_writes_do_not_invalidate ] );
      ( "differential",
        [ Alcotest.test_case "incremental == batch" `Quick
            test_incremental_equals_batch ] );
      ( "history",
        [ Alcotest.test_case "bounded: nothing kept behind the index" `Quick
            test_bounded_history;
          Alcotest.test_case "closed index is collectable" `Quick
            test_closed_index_collectable ] );
      ( "telemetry",
        [ Alcotest.test_case "codec roundtrip" `Quick
            test_telemetry_codec_roundtrip ] );
      ( "watch",
        [ Alcotest.test_case "status codec" `Quick test_watch_status_codec;
          Alcotest.test_case "end-to-end over socketpair" `Quick
            test_watch_over_socketpair ] ) ]
