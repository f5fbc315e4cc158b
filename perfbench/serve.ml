(* serve: the daemon under independent users. An in-process [Server]
   with [nproc] workers listens on a Unix socket in the run directory;
   one connection carries the load. After set-up, the run repeats
   [rounds] rounds of three phases, so that each phase's figure pools
   samples spread over the whole run rather than one stretch of it: the
   host's speed moves by ~10% from one second to the next.

   - An open loop at the fixed absolute [rate], from one sender thread
     and one receiver thread, each request timed from its due send
     time. Every fourth request is a fresh unique contract; the other
     three repeat a bytecode primed in set-up and are cache hits. The
     99th percentile falls among the fresh analyses, well inside their
     mode: latency_p99_ms. At this rate the two workers are idle most
     of the time on a 2-vCPU box.

   - Repeat requests one at a time, each sent and awaited on the same
     thread: latency_p50_ms is their median. A cache hit takes ~0.1 ms,
     half of it thread wake-ups. Timed in the open loop, where the
     sender, the receiver and the server's reader thread share one
     runtime lock and the sender wakes from a timer, its median was
     twice as long and moved 36% between two sets of runs while the
     host's CPU speed moved 12%.

   - A closed loop of the mix, [window] requests in flight, sent and
     received on one thread: throughput_per_s is the median rate over
     windows of [per_window] completions, the daemon's capacity for the
     mix. At a fixed offered rate the completion rate only echoes the
     rate. The workers never wait for work here, so the figure follows
     the analyses' speed; a closed loop of cache hits alone, which
     leaves them waking for every request, moved 20% between two sets
     of runs.

   Every fresh contract is new to the process: the open loop's come
   from the run's seed, the closed loop's from another. *)

open Common
module G = Ethainter_corpus.Generator
module P = Ethainter_core.Pipeline
module S = Ethainter_core.Scheduler
module Tel = Ethainter_core.Telemetry
module Server = Ethainter_serve.Server
module Client = Ethainter_serve.Client
module Hex = Ethainter_word.Hex

let rate = 300.0

(* Per second of --seconds: the open loop runs [open_share] of it; the
   other two phases send a fixed number of requests. *)
let open_share = 0.6
let sync_per_second = 1000
let closed_per_second = 240

type input = { inst : G.instance; hex : string }

type env = {
  server : Server.t;
  acceptor : Thread.t;
  client : Client.t;
  mutable sent : int;  (* requests sent on [client]; its ids are 1, 2, ... *)
  hits : input array;
  fresh : input array;  (* the open loop's *)
}

let rounds s = if s.tiny then 2 else 10
let n_hits s = if s.tiny then 8 else 64
let n_warm s = if s.tiny then 4 else 64
let n_service s = if s.tiny then 4 else 100
let window s = 8 * s.workers

(* Requests per round of each phase. *)
let open_requests s =
  max 4 (int_of_float (rate *. open_share *. s.seconds) / rounds s)

let sync_requests s =
  (if s.tiny then 50 else sync_per_second * int_of_float s.seconds) / rounds s

let closed_requests s =
  (if s.tiny then 40 else closed_per_second * int_of_float s.seconds) / rounds s

let inputs ~seed ~size =
  Array.map
    (fun (i : G.instance) -> { inst = i; hex = Hex.encode i.G.i_runtime })
    (Sweep.mainnet ~seed ~size)

let analyze env (x : input) =
  env.sent <- env.sent + 1;
  match Client.analyze env.client ~hex:x.hex () with
  | Client.Result r -> Sweep.verdict_ok x.inst r
  | _ -> false

let pick_hit env st = env.hits.(Random.State.int st (Array.length env.hits))

let rep = ref 0

let teardown env =
  Client.close env.client;
  Server.stop env.server;
  Thread.join env.acceptor

(* Set-up: inputs, server start, a warm-up on contracts of a disjoint
   seed, then one request per hit contract so that it is cached. *)
let setup s () =
  P.cache_clear ();
  incr rep;
  let fresh = inputs ~seed:s.seed ~size:(rounds s * open_requests s / 4) in
  let hits = inputs ~seed:(s.seed lxor 0x40000000) ~size:(n_hits s) in
  let warm = inputs ~seed:(-1 - s.seed) ~size:(n_warm s) in
  let server = Server.create ~workers:s.workers () in
  let path = Filename.concat s.run_dir (Printf.sprintf "serve-%d.sock" !rep) in
  let acceptor = Thread.create (fun () -> Server.serve_unix_socket server ~path) () in
  let rec connect tries =
    try Client.connect_unix path
    with Unix.Unix_error _ when tries > 0 ->
      Thread.delay 0.001;
      connect (tries - 1)
  in
  let client = connect 5000 in
  let env = { server; acceptor; client; sent = 0; hits; fresh } in
  if not (Array.for_all (analyze env) warm && Array.for_all (analyze env) hits)
  then begin
    teardown env;
    failwith "serve: a warm-up or priming verdict is wrong"
  end;
  env

type open_result = {
  lat : float array;      (* from the due send time, seconds *)
  covered : float array;  (* the time each request's spans cover *)
  fresh_req : bool array;
  ok : bool array;
  late : float array;     (* how late the sender sent each request *)
  depth : float array;    (* the pool's queue depth at each send *)
  running : float array;  (* the pool's running jobs at each send *)
}

(* One stretch of the open loop: [open_requests] requests from the
   run's [k0]-th, request [k] fresh when [k mod 4 = 3], else a random
   hit. *)
let open_loop s env st ~k0 =
  let n = open_requests s in
  let first_id = env.sent + 1 in
  let due = Array.make n 0.0 and fresh_req = Array.make n false in
  let inst = Array.make n env.hits.(0) in
  let sent_at = Array.make n 0.0 and sent_end = Array.make n 0.0 in
  let arrival = Array.make n 0.0 and ok = Array.make n false in
  let depth = Array.make n 0.0 and running = Array.make n 0.0 in
  let received = Atomic.make 0 in
  let receiver =
    Thread.create
      (fun () ->
        try
          for _ = 1 to n do
            let id, resp = Client.recv env.client in
            let t = now () in
            let k = id - first_id in
            if k >= 0 && k < n then begin
              arrival.(k) <- t;
              ok.(k) <-
                (match resp with
                | Client.Result r ->
                    Sweep.verdict_ok ~wrong:(s.sabotage && k0 + k = 0) inst.(k).inst r
                | _ -> false)
            end;
            Atomic.incr received
          done
        with Client.Protocol _ -> ())
      ()
  in
  let t0 = now () +. 0.01 in
  for k = 0 to n - 1 do
    let d = t0 +. (fi k /. rate) in
    let g = k0 + k in
    let x = if g mod 4 = 3 then env.fresh.(g / 4) else pick_hit env st in
    due.(k) <- d;
    fresh_req.(k) <- g mod 4 = 3;
    inst.(k) <- x;
    let wait = d -. now () in
    if wait > 0.0 then Thread.delay wait;
    let ps = S.Pool.stats (Server.pool env.server) in
    depth.(k) <- fi ps.S.Pool.p_depth;
    running.(k) <- fi ps.S.Pool.p_running;
    let a = now () in
    sent_at.(k) <- a;
    env.sent <- env.sent + 1;
    let id = Client.send_analyze env.client ~hex:x.hex () in
    sent_end.(k) <- now ();
    if id <> first_id + k then failwith "serve: unexpected request id"
  done;
  (* every request is answered (a result or a refusal); the bound only
     guards against a server that stops answering *)
  let give_up = now () +. 60.0 in
  while Atomic.get received < n && now () < give_up do
    Thread.delay 0.001
  done;
  if Atomic.get received < n then Client.close env.client;
  Thread.join receiver;
  (* The spans of a request tile its latency: the sender's lateness, the
     send call, then the wait for the response (the server's part). They
     are recorded after the loop from the times every request takes, so
     a traced request does the same work as an untraced one. *)
  let covered = Array.make n 0.0 in
  for k = 0 to n - 1 do
    if arrival.(k) > 0.0 then begin
      let t = Float.min sent_end.(k) arrival.(k) in
      let span name t0 t1 =
        Trace.record ~name ~t0 ~t1 ~parent:0 ~req:(k0 + k);
        covered.(k) <- covered.(k) +. t1 -. t0
      in
      span "serve.late" due.(k) sent_at.(k);
      span "serve.send" sent_at.(k) t;
      span (if fresh_req.(k) then "serve.fresh" else "serve.hit") t arrival.(k)
    end
  done;
  let lat =
    Array.init n (fun k -> if arrival.(k) > 0.0 then arrival.(k) -. due.(k) else infinity)
  in
  let late = Array.init n (fun k -> sent_at.(k) -. due.(k)) in
  { lat; covered; fresh_req; ok; late; depth; running }

(* One stretch of repeat requests, one at a time, each sent and awaited
   on this thread. Returns the latencies and the number of wrong
   answers. *)
let sync_loop s env st =
  let n = sync_requests s in
  let lat = Array.make n 0.0 and wrong = ref 0 in
  for k = 0 to n - 1 do
    let x = pick_hit env st in
    let a = now () in
    let resp = Client.analyze env.client ~hex:x.hex () in
    lat.(k) <- now () -. a;
    env.sent <- env.sent + 1;
    match resp with
    | Client.Result r when Sweep.verdict_ok x.inst r -> ()
    | _ -> incr wrong
  done;
  (lat, !wrong)

(* One stretch of the closed loop on this thread: [closed_requests]
   requests from the run's [k0]-th, [window] in flight, request [k]
   fresh (from [fresh]) when [k mod 4 = 3]. Adds the rate of every
   [per_window] completions to [rates]; returns the number of wrong
   answers. *)
let per_window = 120

let closed_loop s env st ~fresh ~k0 ~rates =
  let n = closed_requests s in
  let pending : (int, input) Hashtbl.t = Hashtbl.create 64 in
  let sent = ref 0 and completed = ref 0 and wrong = ref 0 in
  let send () =
    let g = k0 + !sent in
    let x = if g mod 4 = 3 then fresh.(g / 4) else pick_hit env st in
    incr sent;
    env.sent <- env.sent + 1;
    Hashtbl.replace pending (Client.send_analyze env.client ~hex:x.hex ()) x
  in
  let w_start = ref (now ()) in
  let receive () =
    let id, resp = Client.recv env.client in
    (match (resp, Hashtbl.find_opt pending id) with
    | Client.Result r, Some x when Sweep.verdict_ok x.inst r -> ()
    | _ -> incr wrong);
    Hashtbl.remove pending id;
    incr completed;
    if !completed mod per_window = 0 then begin
      let t = now () in
      Samples.add rates (fi per_window /. (t -. !w_start));
      w_start := t
    end
  in
  while !sent < min n (window s) do send () done;
  while !completed < n do
    receive ();
    if !sent < n then send ()
  done;
  !wrong

let run s =
  let setup_s, env = repeat_setup ~k:setup_reps ~discard:teardown (setup s) in
  let st = rng s 1 in
  (* the closed loop's fresh contracts, generated before the clock starts *)
  let closed_fresh =
    inputs ~seed:(s.seed lxor 0x10000000) ~size:(rounds s * closed_requests s / 4)
  in
  let opens = ref [] and syncs = ref [] and wrong = ref 0 in
  let rates = Samples.create () in
  (* the open loop's share of the counters *)
  let words = ref 0.0 and be_hits = ref 0 and be_misses = ref 0 in
  let t_start = now () in
  for r = 0 to rounds s - 1 do
    let tel0 = Tel.capture () and words0 = gc_minor_words () in
    Atomic.set Trace.on s.trace;
    let o = open_loop s env st ~k0:(r * open_requests s) in
    Atomic.set Trace.on false;
    let tel = Tel.diff (Tel.capture ()) tel0 in
    words := !words +. gc_minor_words () -. words0;
    be_hits := !be_hits + tel.Tel.cache_be.hits;
    be_misses := !be_misses + tel.Tel.cache_be.misses;
    opens := o :: !opens;
    let lat, w = sync_loop s env st in
    syncs := lat :: !syncs;
    wrong := !wrong + w;
    wrong :=
      !wrong + closed_loop s env st ~fresh:closed_fresh ~k0:(r * closed_requests s) ~rates
  done;
  let wall = now () -. t_start in
  let peak_rss = peak_rss_mb () in
  teardown env;
  let opens = List.rev !opens in
  let cat f = Array.concat (List.map f opens) in
  let lat = cat (fun o -> o.lat) and fresh_req = cat (fun o -> o.fresh_req) in
  let ok = cat (fun o -> o.ok) in
  let sync_lat = Array.concat !syncs in
  let n = Array.length lat in
  let failed = Array.fold_left (fun acc ok -> if ok then acc else acc + 1) !wrong ok in
  let rates = Samples.to_array rates in
  let e2e =
    [ m "throughput_per_s" "1/s"
        (if rates = [||] then fi (rounds s * closed_requests s) /. wall else median rates);
      m "latency_p50_ms" "ms" (1000.0 *. percentile 0.5 sync_lat);
      m "latency_p99_ms" "ms" (1000.0 *. percentile 0.99 lat);
      m "setup_s" "s" setup_s;
      m "peak_rss_mb" "MB" peak_rss ]
  in
  let layers =
    if not s.trace then []
    else begin
      let pick f = Array.of_list (List.filteri (fun k _ -> f k) (Array.to_list lat)) in
      (* contracts this process has never decoded, straight into the
         scheduler on cold caches *)
      let service = inputs ~seed:(s.seed lxor 0x20000000) ~size:(n_service s) in
      P.cache_clear ();
      let ts =
        Array.map
          (fun x ->
            let a = now () in
            ignore (S.analyze_request (P.request (P.Runtime x.inst.G.i_runtime)));
            now () -. a)
          service
      in
      let sum a = Array.fold_left ( +. ) 0.0 a in
      let mean a = ratio (sum a) (fi (Array.length a)) in
      [ m "serve.hit_ms" "ms" (1000.0 *. median (pick (fun k -> not fresh_req.(k))));
        m "serve.fresh_ms" "ms" (1000.0 *. median (pick (fun k -> fresh_req.(k))));
        m "serve.service_ms" "ms" (1000.0 *. median ts);
        m "scheduler.queue_depth_mean" "count" (mean (cat (fun o -> o.depth)));
        m "scheduler.running_mean" "count" (mean (cat (fun o -> o.running)));
        m "cache.be_misses" "count" (ratio (fi !be_misses) (fi n));
        m "cache.hit_share" "share" (ratio (fi !be_hits) (fi (!be_hits + !be_misses)));
        m "gc.minor_words_per_op" "words" (ratio !words (fi n));
        m "serve.generator_late_ms" "ms"
          (1000.0 *. Array.fold_left Float.max 0.0 (cat (fun o -> o.late)));
        m "trace.accounted_share" "share" (ratio (sum (cat (fun o -> o.covered))) (sum lat)) ]
    end
  in
  { attempted = n + Array.length sync_lat + (rounds s * closed_requests s);
    failed; checks_ok = true; e2e; layers }
