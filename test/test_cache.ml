(* Tests for the content-addressed analysis cache (PR 2): the generic
   Cache module (LRU memory tier + disk tier), the result codec, the
   Config fingerprint, and the Pipeline.run request API — including
   the differential guarantee that caching is observationally
   transparent (cached == uncached, byte-identical reports). *)

module P = Ethainter_core.Pipeline
module S = Ethainter_core.Scheduler
module C = Ethainter_core.Config
module Cache = Ethainter_core.Cache
module G = Ethainter_corpus.Generator

(* identical up to wall-clock: everything but elapsed_s *)
let normalize (r : P.result) = { r with P.elapsed_s = 0.0 }

let compile = Ethainter_minisol.Codegen.compile_source_runtime

let src_victim = {|
contract Victim {
  address owner;
  constructor() { owner = msg.sender; }
  function claim(address who) public { owner = who; }
  function kill() public {
    require(msg.sender == owner);
    selfdestruct(owner);
  }
}|}

(* A fresh private temp directory per call. *)
let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ethainter_cache_test_%d_%d" (Unix.getpid ())
           !counter)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

(* a trivial self-validating string codec for the generic-cache tests *)
let str_cache ?capacity ?dir () =
  Cache.create ?capacity ?dir
    ~encode:(fun v -> "S1\n" ^ v)
    ~decode:(fun s ->
      if String.length s >= 3 && String.sub s 0 3 = "S1\n" then
        Some (String.sub s 3 (String.length s - 3))
      else None)
    ()

(* Run [f] with the pipeline cache in a known state, restoring the
   previous enabled/dir state afterwards so tests don't interfere. *)
let with_pipeline_cache ?dir f =
  let was_enabled = P.cache_enabled () in
  P.set_cache_enabled true;
  P.set_cache_dir dir;  (* also clears the memory tier *)
  P.cache_clear ();
  Fun.protect
    ~finally:(fun () ->
      P.set_cache_enabled was_enabled;
      P.set_cache_dir None)
    f

(* ---------- generic cache: memory tier ---------- *)

let test_hit_miss_counters () =
  let c = str_cache () in
  Alcotest.(check (option string)) "initial miss" None (Cache.find c "k1");
  Cache.add c "k1" "v1";
  Alcotest.(check (option string)) "hit" (Some "v1") (Cache.find c "k1");
  Alcotest.(check (option string)) "other key misses" None (Cache.find c "k2");
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 2 s.Cache.misses;
  Alcotest.(check int) "size" 1 s.Cache.size;
  Alcotest.(check bool) "hit rate 1/3" true
    (abs_float (Cache.hit_rate s -. (1.0 /. 3.0)) < 1e-9);
  Cache.reset_stats c;
  let s = Cache.stats c in
  Alcotest.(check int) "reset hits" 0 s.Cache.hits;
  Alcotest.(check int) "reset misses" 0 s.Cache.misses;
  Alcotest.(check int) "reset keeps entries" 1 s.Cache.size

let test_find_or_compute () =
  let c = str_cache () in
  let computes = ref 0 in
  let get k =
    Cache.find_or_compute c ~key:k (fun () ->
        incr computes;
        "computed-" ^ k)
  in
  Alcotest.(check string) "computed" "computed-a" (get "a");
  Alcotest.(check string) "cached" "computed-a" (get "a");
  Alcotest.(check int) "computed once" 1 !computes;
  (* cacheable gate: value returned but never stored *)
  let v =
    Cache.find_or_compute c ~key:"b"
      ~cacheable:(fun _ -> false)
      (fun () -> "transient")
  in
  Alcotest.(check string) "uncacheable returned" "transient" v;
  Alcotest.(check (option string)) "uncacheable not stored" None
    (Cache.find c "b")

let test_lru_eviction () =
  let c = str_cache ~capacity:2 () in
  Cache.add c "a" "1";
  Cache.add c "b" "2";
  Cache.add c "c" "3";
  (* a is least-recently-used -> evicted *)
  Alcotest.(check (option string)) "a evicted" None (Cache.find c "a");
  Alcotest.(check (option string)) "b kept" (Some "2") (Cache.find c "b");
  Alcotest.(check (option string)) "c kept" (Some "3") (Cache.find c "c");
  Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.evictions;
  (* recency: touching b makes c the eviction victim *)
  ignore (Cache.find c "b");
  Cache.add c "d" "4";
  Alcotest.(check (option string)) "c evicted after touch" None
    (Cache.find c "c");
  Alcotest.(check (option string)) "b survived" (Some "2") (Cache.find c "b");
  (* re-adding an existing key must not grow the table *)
  Cache.add c "b" "2'";
  Alcotest.(check (option string)) "value refreshed" (Some "2'")
    (Cache.find c "b");
  Alcotest.(check int) "size bounded" 2 (Cache.stats c).Cache.size;
  Cache.clear c;
  Alcotest.(check int) "clear empties" 0 (Cache.stats c).Cache.size;
  Alcotest.(check (option string)) "clear forgets" None (Cache.find c "d")

let test_key_derivation () =
  let k = Cache.key ~version:"1" ~fingerprint:"cfg:a" "\x00\x01bytecode" in
  Alcotest.(check int) "64 hex chars" 64 (String.length k);
  Alcotest.(check bool) "filename-safe hex" true
    (String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       k);
  Alcotest.(check string) "deterministic" k
    (Cache.key ~version:"1" ~fingerprint:"cfg:a" "\x00\x01bytecode");
  let distinct =
    [ Cache.key ~version:"2" ~fingerprint:"cfg:a" "\x00\x01bytecode";
      Cache.key ~version:"1" ~fingerprint:"cfg:b" "\x00\x01bytecode";
      Cache.key ~version:"1" ~fingerprint:"cfg:a" "\x00\x01bytecodf" ]
  in
  List.iter
    (fun k' -> Alcotest.(check bool) "key separates inputs" true (k <> k'))
    distinct

(* Pipeline.run hashes a request's code once and derives both its keys
   from that digest; the keys must be the ones [key] has always given,
   or every disk entry written before would miss. *)
let test_key_of_hash () =
  let code = "\x00\x01bytecode" in
  let code_hash = Ethainter_crypto.Keccak.hash code in
  List.iter
    (fun (fingerprint, expected) ->
      let k = Cache.key ~version:"8" ~fingerprint code in
      Alcotest.(check string) ("key_of_hash = key, " ^ fingerprint) k
        (Cache.key_of_hash ~version:"8" ~fingerprint code_hash);
      Alcotest.(check string) ("key unchanged, " ^ fingerprint) expected k)
    [ ( C.fingerprint C.default,
        "c138bb87eb9f3f66005a416bad194cbcbaa672e9dd77415381f0e83180e13067" );
      ( "frontend",
        "edb444b7368293206a3bbc0d7dcd6aaa4747dc677ebe59ee02dca5ab87e9041f" )
    ]

(* ---------- generic cache: disk tier ---------- *)

let test_disk_roundtrip () =
  let dir = temp_dir () in
  let c1 = str_cache ~dir () in
  Cache.add c1 "deadbeef" "persisted";
  Alcotest.(check int) "written to disk" 1
    (Cache.stats c1).Cache.disk_writes;
  (* a second cache over the same directory sees the entry *)
  let c2 = str_cache ~dir () in
  Alcotest.(check (option string)) "disk hit" (Some "persisted")
    (Cache.find c2 "deadbeef");
  let s = Cache.stats c2 in
  Alcotest.(check int) "counted as disk hit" 1 s.Cache.disk_hits;
  Alcotest.(check int) "promoted to memory" 1 s.Cache.size;
  (* second lookup is a memory hit *)
  ignore (Cache.find c2 "deadbeef");
  Alcotest.(check int) "memory hit after promotion" 1
    (Cache.stats c2).Cache.hits

let test_corrupt_disk_entry_is_miss () =
  let dir = temp_dir () in
  let c1 = str_cache ~dir () in
  Cache.add c1 "cafe" "good";
  let path = Filename.concat dir "cafe.cache" in
  Alcotest.(check bool) "entry file exists" true (Sys.file_exists path);
  (* truncate/garble the entry *)
  let oc = open_out_bin path in
  output_string oc "XX garbage, wrong magic";
  close_out oc;
  let c2 = str_cache ~dir () in
  Alcotest.(check (option string)) "corrupt entry is a miss" None
    (Cache.find c2 "cafe");
  Alcotest.(check int) "counted as miss" 1 (Cache.stats c2).Cache.misses;
  Alcotest.(check bool) "corrupt file deleted" false (Sys.file_exists path)

let test_decoder_exception_is_miss () =
  let dir = temp_dir () in
  let good = str_cache ~dir () in
  Cache.add good "k" "v";
  let evil =
    Cache.create ~dir
      ~encode:(fun v -> v)
      ~decode:(fun _ -> failwith "decoder bug")
      ()
  in
  Alcotest.(check (option string)) "raising decoder is a miss" None
    (Cache.find evil "k")

let test_unsafe_keys_skip_disk () =
  let dir = temp_dir () in
  let c = str_cache ~dir () in
  (* a hostile key must not escape the cache directory *)
  Cache.add c "../escape" "v";
  Alcotest.(check bool) "no file outside dir" false
    (Sys.file_exists (Filename.concat (Filename.dirname dir) "escape.cache"));
  Alcotest.(check (option string)) "memory tier still works" (Some "v")
    (Cache.find c "../escape")

(* ---------- config fingerprint + builders ---------- *)

let test_config_fingerprint () =
  Alcotest.(check string) "stable encoding" "cfg:g1.s1.c0.r100"
    (C.fingerprint C.default);
  let variants =
    [ C.default; C.no_storage_model; C.no_guard_model; C.conservative;
      C.(default |> with_max_fixpoint_rounds 7) ]
  in
  let fps = List.map C.fingerprint variants in
  Alcotest.(check int) "fingerprint injective on variants"
    (List.length variants)
    (List.length (List.sort_uniq compare fps));
  List.iter
    (fun v ->
      Alcotest.(check string) "deterministic" (C.fingerprint v)
        (C.fingerprint v))
    variants

let test_config_builders () =
  let built =
    C.(default
       |> with_model_guards false
       |> with_storage_taint false
       |> with_conservative_storage true
       |> with_max_fixpoint_rounds 5)
  in
  Alcotest.(check bool) "guards" false built.C.model_guards;
  Alcotest.(check bool) "storage" false built.C.storage_taint;
  Alcotest.(check bool) "conservative" true built.C.conservative_storage;
  Alcotest.(check int) "rounds" 5 built.C.max_fixpoint_rounds;
  Alcotest.(check bool) "presets are builder-equal" true
    (C.no_guard_model = C.(default |> with_model_guards false))

(* ---------- result codec ---------- *)

let test_codec_roundtrip () =
  let roundtrip r =
    match P.decode_result (P.encode_result r) with
    | Some r' -> Alcotest.(check bool) "roundtrip exact" true (r = r')
    | None -> Alcotest.fail "decode of encode failed"
  in
  roundtrip P.empty_result;
  roundtrip
    { P.empty_result with
      P.timed_out = true; elapsed_s = 1.234567891234 };
  roundtrip
    { P.empty_result with
      P.error = Some "multi\nline error: with \"spaces\" and bytes \x00\x01" };
  (* a real analysis result, reports included *)
  roundtrip (P.run (P.request (P.Runtime (compile src_victim))))

let test_codec_rejects_garbage () =
  let good =
    P.encode_result (P.run (P.request (P.Runtime (compile src_victim))))
  in
  Alcotest.(check bool) "sanity: good decodes" true
    (P.decode_result good <> None);
  let bad =
    [ ""; "garbage"; "ethainter.result.v999\nmeta 0 0 0 0x0p+0 false\n";
      (* truncation *)
      String.sub good 0 (String.length good / 2);
      (* trailing junk *)
      good ^ "extra" ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) "corrupt payload rejected" true
        (P.decode_result s = None))
    bad

(* ---------- pipeline request API ---------- *)

let test_odd_hex_is_clean_error () =
  (* the PR1 CLI special case moved into the library: no exception,
     error field set *)
  List.iter
    (fun hex ->
      let r = P.run (P.request (P.Hex hex)) in
      Alcotest.(check bool) ("error set for " ^ hex) true (r.P.error <> None);
      Alcotest.(check int) "no reports" 0 (List.length r.P.reports))
    [ "abc"; "0xabc"; "0x60zz"; "nothex!" ]

let test_hex_input_agrees_with_runtime () =
  with_pipeline_cache (fun () ->
      let runtime = compile src_victim in
      let hex = Ethainter_word.Hex.encode runtime in
      let via_run = P.run (P.request (P.Runtime runtime)) in
      let via_hex = P.run (P.request (P.Hex hex)) in
      let via_hex0x = P.run (P.request (P.Hex ("0x" ^ hex))) in
      Alcotest.(check bool) "hex input == runtime input" true
        (normalize via_run = normalize via_hex);
      Alcotest.(check bool) "0x-prefixed hex agrees" true
        (normalize via_run = normalize via_hex0x);
      Alcotest.(check bool) "victim actually flagged" true
        (via_run.P.reports <> []))

let test_pipeline_cache_hit () =
  with_pipeline_cache (fun () ->
      let runtime = compile src_victim in
      let r1 = P.run (P.request (P.Runtime runtime)) in
      let s1 = P.cache_stats () in
      let r2 = P.run (P.request (P.Runtime runtime)) in
      let s2 = P.cache_stats () in
      Alcotest.(check bool) "identical result" true (r1 = r2);
      Alcotest.(check int) "first was a miss" 1 s1.Cache.misses;
      Alcotest.(check int) "second was a hit" (s1.Cache.hits + 1)
        s2.Cache.hits)

(* guarded-safe contract: clean under the default analysis, flagged
   once guard modeling is ablated — so serving one config's entry for
   the other would be visibly wrong *)
let src_guarded_safe = {|
contract C {
  address owner;
  constructor() { owner = msg.sender; }
  function setOwner(address o) public { require(msg.sender == owner); owner = o; }
  function kill() public { require(msg.sender == owner); selfdestruct(owner); }
}|}

let test_config_change_invalidates () =
  with_pipeline_cache (fun () ->
      let runtime = compile src_guarded_safe in
      let r_default = P.run (P.request ~cfg:C.default (P.Runtime runtime)) in
      let misses_before = (P.cache_stats ()).Cache.misses in
      (* same bytecode, different ablation: must be a fresh computation *)
      let r_ablated =
        P.run (P.request ~cfg:C.no_guard_model (P.Runtime runtime))
      in
      let misses_after = (P.cache_stats ()).Cache.misses in
      Alcotest.(check int) "ablated config misses" (misses_before + 1)
        misses_after;
      Alcotest.(check int) "default: clean" 0
        (List.length r_default.P.reports);
      Alcotest.(check bool) "no-guard ablation: flagged" true
        (r_ablated.P.reports <> []))

let test_timeouts_not_cached () =
  with_pipeline_cache (fun () ->
      let runtime = compile src_victim in
      let r = P.run (P.request ~timeout_s:0.0 (P.Runtime runtime)) in
      Alcotest.(check bool) "times out" true r.P.timed_out;
      Alcotest.(check int) "timed-out result not stored" 0
        (P.cache_stats ()).Cache.size;
      (* cache a full result, then ask again with a zero budget: the
         hit must NOT be served (that budget would have timed out) *)
      let full = P.run (P.request (P.Runtime runtime)) in
      Alcotest.(check bool) "full run cached" true
        ((P.cache_stats ()).Cache.size = 1 && not full.P.timed_out);
      let tight = P.run (P.request ~timeout_s:0.0 (P.Runtime runtime)) in
      Alcotest.(check bool) "tight budget still times out" true
        tight.P.timed_out)

let test_scheduler_cached_equals_uncached () =
  (* the PR acceptance differential: a warm parallel re-sweep returns
     byte-identical results (modulo wall-clock) to an uncached run *)
  let corpus = G.mainnet ~seed:77 ~size:60 () in
  let runtimes =
    List.map (fun (i : G.instance) -> i.G.i_runtime) corpus
    @ [ ""; "\xfe\x01\x02garbage" ]
  in
  let baseline =
    P.set_cache_enabled false;
    Fun.protect
      ~finally:(fun () -> P.set_cache_enabled true)
      (fun () -> S.analyze_corpus ~workers:4 runtimes)
  in
  with_pipeline_cache (fun () ->
      let cold = S.analyze_corpus ~workers:4 runtimes in
      let warm = S.analyze_corpus ~workers:4 runtimes in
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "cold == uncached" true
            (normalize a = normalize b))
        cold baseline;
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "warm == uncached" true
            (normalize a = normalize b))
        warm baseline;
      let s = P.cache_stats () in
      Alcotest.(check bool) "warm sweep actually hit" true
        (s.Cache.hits >= List.length runtimes))

let test_pipeline_disk_tier () =
  let dir = temp_dir () in
  with_pipeline_cache ~dir (fun () ->
      let runtime = compile src_victim in
      let r1 = P.run (P.request (P.Runtime runtime)) in
      Alcotest.(check bool) "persisted" true
        ((P.cache_stats ()).Cache.disk_writes >= 1);
      (* drop the memory tier; the disk tier must answer *)
      P.cache_clear ();
      let r2 = P.run (P.request (P.Runtime runtime)) in
      Alcotest.(check bool) "disk hit served" true
        ((P.cache_stats ()).Cache.disk_hits = 1);
      Alcotest.(check bool) "disk result identical" true (r1 = r2);
      (* corrupt every entry: analysis must transparently recompute *)
      Array.iter
        (fun f ->
          let oc = open_out_bin (Filename.concat dir f) in
          output_string oc "not a result";
          close_out oc)
        (Sys.readdir dir);
      P.cache_clear ();
      let r3 = P.run (P.request (P.Runtime runtime)) in
      Alcotest.(check bool) "recomputed past corruption" true
        (normalize r1 = normalize r3))

(* ---------- memory: nothing outlives a shard ---------- *)

(* Distinct contracts go through Pipeline.run in shards, with the
   analysis caches cleared and the heap compacted after each shard. What
   stays live must not grow with the number of contracts analysed: a
   process-wide table of decoded programs, say, would keep one entry
   (tens of KB) per contract seen. *)
let test_live_heap_flat_across_shards () =
  let shards = 4 and per_shard = 60 in
  let seen = Hashtbl.create 512 in
  let distinct =
    List.filter_map
      (fun (i : G.instance) ->
        if Hashtbl.mem seen i.G.i_runtime then None
        else begin
          Hashtbl.add seen i.G.i_runtime ();
          Some i.G.i_runtime
        end)
      (G.mainnet ~seed:2024 ~fillers:(12, 20)
         ~size:((shards * per_shard) + 60) ())
  in
  Hashtbl.reset seen;
  if List.length distinct < shards * per_shard then
    Alcotest.fail "corpus has too few distinct contracts";
  let live_words () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let after =
    List.init shards (fun k ->
        List.iteri
          (fun i code ->
            if i / per_shard = k then
              ignore (P.run (P.request (P.Runtime code))))
          distinct;
        P.cache_clear ();
        live_words ())
  in
  let first = List.hd after and last = List.nth after (shards - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "live words after the last shard (%d) within 10%% of \
                     those after the first (%d)" last first)
    true
    (float_of_int last <= 1.1 *. float_of_int first)

let () =
  Alcotest.run "cache"
    [ ( "memory-tier",
        [ Alcotest.test_case "hit/miss counters" `Quick test_hit_miss_counters;
          Alcotest.test_case "find_or_compute" `Quick test_find_or_compute;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "key derivation" `Quick test_key_derivation;
          Alcotest.test_case "key from a code hash" `Quick test_key_of_hash ] );
      ( "disk-tier",
        [ Alcotest.test_case "roundtrip" `Quick test_disk_roundtrip;
          Alcotest.test_case "corrupt entry -> miss" `Quick
            test_corrupt_disk_entry_is_miss;
          Alcotest.test_case "raising decoder -> miss" `Quick
            test_decoder_exception_is_miss;
          Alcotest.test_case "unsafe keys skip disk" `Quick
            test_unsafe_keys_skip_disk ] );
      ( "config",
        [ Alcotest.test_case "fingerprint" `Quick test_config_fingerprint;
          Alcotest.test_case "builders" `Quick test_config_builders ] );
      ( "codec",
        [ Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_codec_rejects_garbage ] );
      ( "pipeline",
        [ Alcotest.test_case "odd hex is clean error" `Quick
            test_odd_hex_is_clean_error;
          Alcotest.test_case "hex input agrees with runtime input" `Quick
            test_hex_input_agrees_with_runtime;
          Alcotest.test_case "cache hit" `Quick test_pipeline_cache_hit;
          Alcotest.test_case "config change invalidates" `Quick
            test_config_change_invalidates;
          Alcotest.test_case "timeouts not cached" `Quick
            test_timeouts_not_cached;
          Alcotest.test_case "cached == uncached (parallel)" `Quick
            test_scheduler_cached_equals_uncached;
          Alcotest.test_case "disk tier end-to-end" `Quick
            test_pipeline_disk_tier;
          Alcotest.test_case "live heap flat across shards" `Quick
            test_live_heap_flat_across_shards ] ) ]
