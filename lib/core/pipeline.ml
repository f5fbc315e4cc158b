(** End-to-end analysis pipeline: bytecode → decompile → facts →
    fixpoint → reports. This is the per-contract unit of work that the
    paper runs over the whole blockchain (§6: "a combined cutoff of 120
    seconds for decompilation and the information flow analysis").

    {!run} is the single entry point; see pipeline.mli for the request
    and caching contract. *)

(* Coarse failure taxonomy, stable across codec versions: corpus
   reports need to distinguish "ran out of budget" from "hostile
   bytecode" from "the machine failed us". *)
type error_kind = Timeout | Decode | Decompile | Analysis | Io | Fatal

let error_kind_id = function
  | Timeout -> "timeout"
  | Decode -> "decode"
  | Decompile -> "decompile"
  | Analysis -> "analysis"
  | Io -> "io"
  | Fatal -> "fatal"

let error_kind_of_id = function
  | "timeout" -> Some Timeout
  | "decode" -> Some Decode
  | "decompile" -> Some Decompile
  | "analysis" -> Some Analysis
  | "io" -> Some Io
  | "fatal" -> Some Fatal
  | _ -> None

type result = {
  reports : Vulns.report list;
  tac_loc : int;          (** 3-address statements (paper's corpus unit) *)
  blocks : int;
  analysis_rounds : int;
  elapsed_s : float;
  timed_out : bool;
  error : string option;  (** per-contract failure, if any *)
  error_kind : error_kind option;
      (** classification of the failure; [Some Timeout] iff
          [timed_out] *)
}

let empty_result =
  { reports = []; tac_loc = 0; blocks = 0; analysis_rounds = 0;
    elapsed_s = 0.0; timed_out = false; error = None; error_kind = None }

(* The exceptions a malformed contract is expected to produce while
   being decompiled and analyzed. Anything else — Out_of_memory,
   Stack_overflow, Assert_failure, ... — is a bug or a resource
   failure and must propagate to the caller (the scheduler isolates it
   per contract). *)
let expected_failure = function
  | Ethainter_evm.Interp.Evm_error _
  | Ethainter_evm.Bytecode.Asm_error _
  | Ethainter_datalog.Datalog.Datalog_error _
  | Invalid_argument _ | Failure _ | Not_found -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The two analysis phases                                             *)
(* ------------------------------------------------------------------ *)

(* The pipeline is split where the config dependence begins. The
   front end (decompile → Facts.compute) sees only the bytecode: its
   artifact can be shared by every ablation config, which is what lets
   the Fig. 8 four-config sweep decompile each contract exactly once.
   The back end (fixpoint + detectors) is the only part that reruns
   per config. *)

type frontend = {
  fe_facts : (Facts.t, error_kind * string) Stdlib.result;
      (* Error = deterministic decompile/facts failure for this
         bytecode — cached like any other artifact *)
  fe_tac_loc : int;
  fe_blocks : int;
  fe_elapsed_s : float;  (* front-end cost, charged against the budget
                            of every request that reuses the artifact *)
}

(* Phase 1. [Error r] is a mid-phase timeout: [r] is the final
   timed-out result, carrying the real elapsed time and whatever phase
   stats were completed — it depends on wall clock, so it is never
   cached. [timeout_s] is the paper's cutoff, enforced two ways: a
   {!Deadline} installed for the whole phase cuts the decompiler
   worklist (and any Datalog evaluation inside fact extraction)
   mid-loop, and the cheap [over] checks at phase boundaries catch the
   degenerate budgets (e.g. 0) that expire before the first poll. *)
let compute_frontend ~(timeout_s : float) (runtime : string) :
    (frontend, result) Stdlib.result =
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let over () = elapsed () > timeout_s in
  Deadline.with_deadline (t0 +. timeout_s) @@ fun () ->
  match Ethainter_tac.Decomp.decompile runtime with
  | exception Deadline.Expired ->
      Error { empty_result with elapsed_s = elapsed (); timed_out = true;
              error_kind = Some Timeout }
  | exception e when expected_failure e ->
      Ok { fe_facts = Error (Decompile, Printexc.to_string e);
           fe_tac_loc = 0; fe_blocks = 0; fe_elapsed_s = elapsed () }
  | p ->
      let fe_tac_loc = Ethainter_tac.Tac.loc p in
      let fe_blocks = List.length (Ethainter_tac.Tac.blocks p) in
      let timed_out () =
        Error { empty_result with tac_loc = fe_tac_loc; blocks = fe_blocks;
                elapsed_s = elapsed (); timed_out = true;
                error_kind = Some Timeout }
      in
      if over () then timed_out ()
      else
        match Facts.compute p with
        | exception Deadline.Expired -> timed_out ()
        | exception e when expected_failure e ->
            Ok { fe_facts = Error (Analysis, Printexc.to_string e);
                 fe_tac_loc; fe_blocks; fe_elapsed_s = elapsed () }
        | facts ->
            if over () then timed_out ()
            else
              Ok { fe_facts = Ok facts; fe_tac_loc; fe_blocks;
                   fe_elapsed_s = elapsed () }

(* Phase 2: fixpoint + detectors under [cfg]. The artifact may be
   shared by concurrent domains (it comes out of the front-end cache),
   so this phase must not mutate it — see Facts.slice_of. The
   result's [elapsed_s] is the *sum* of the front end's recorded cost
   and the back-end run, so budget accounting holds even when the
   front end was a cache hit. *)
(* [timeout_s] is the request's whole-pipeline budget: the back end
   gets what the front end left of it ([timeout_s - fe_elapsed_s]),
   enforced by a {!Deadline} inside the fixpoint/detector loops — so a
   pathological fixpoint on a cached artifact still returns within the
   budget. [None] (the bench harness measuring raw phase cost) runs
   unbounded, as before. *)
let backend ~(cfg : Config.t) ?(timeout_s : float option) (fe : frontend) :
    result =
  match fe.fe_facts with
  | Error (kind, msg) ->
      { empty_result with tac_loc = fe.fe_tac_loc; blocks = fe.fe_blocks;
        elapsed_s = fe.fe_elapsed_s; error = Some msg;
        error_kind = Some kind }
  | Ok facts -> (
      let t0 = Unix.gettimeofday () in
      let run_phase () =
        match
          let a = Analysis.run ~cfg facts in
          (a, Analysis.detect a)
        with
        | exception Deadline.Expired ->
            (* mid-fixpoint (or mid-detector) expiry: a final result
               with real elapsed time and the completed front-end
               stats; wall-clock dependent, so never cached *)
            { empty_result with tac_loc = fe.fe_tac_loc;
              blocks = fe.fe_blocks;
              elapsed_s = fe.fe_elapsed_s +. (Unix.gettimeofday () -. t0);
              timed_out = true; error_kind = Some Timeout }
        | exception e when expected_failure e ->
            { empty_result with tac_loc = fe.fe_tac_loc;
              blocks = fe.fe_blocks;
              elapsed_s = fe.fe_elapsed_s +. (Unix.gettimeofday () -. t0);
              error = Some (Printexc.to_string e);
              error_kind = Some Analysis }
        | a, reports ->
            { reports; tac_loc = fe.fe_tac_loc; blocks = fe.fe_blocks;
              analysis_rounds = a.Analysis.rounds;
              elapsed_s = fe.fe_elapsed_s +. (Unix.gettimeofday () -. t0);
              timed_out = false; error = None; error_kind = None }
      in
      match timeout_s with
      | None -> run_phase ()
      | Some budget ->
          Deadline.with_deadline (t0 +. (budget -. fe.fe_elapsed_s))
            run_phase)

(* The uncached analysis is the two phases composed under one
   budget. *)
let analyze_uncached ~(cfg : Config.t) ~(timeout_s : float)
    (runtime : string) : result =
  match compute_frontend ~timeout_s runtime with
  | Error timed_out -> timed_out
  | Ok fe -> backend ~cfg ~timeout_s fe

(* ------------------------------------------------------------------ *)
(* Result codec (disk-tier serialization)                              *)
(* ------------------------------------------------------------------ *)

(* A versioned, self-validating text format: a keccak digest line over
   the whole body, a header line, the scalar fields, then
   length-prefixed strings for the fields that may contain arbitrary
   bytes (error messages, report notes). [decode_result] is total —
   any deviation is [None], which the cache treats as a miss.

   v2 added the digest (and the error-kind token). The digest is what
   makes silent disk corruption — a flipped bit that still parses —
   impossible to serve: without it, a damaged numeric field could
   decode into a plausible but wrong result. The chaos suite's
   [corrupt] injection drives exactly that path.

   v3 added a [deps] line (a storage footprint for write-driven
   re-analysis); v4 drops it again, so v3 entries must miss. *)

let codec_magic = "ethainter.result.v4"

let digest_hex body =
  Ethainter_word.Hex.encode (Ethainter_crypto.Keccak.hash body)

let encode_result (r : result) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b codec_magic;
  Buffer.add_char b '\n';
  Printf.bprintf b "meta %d %d %d %h %b %s\n" r.tac_loc r.blocks
    r.analysis_rounds r.elapsed_s r.timed_out
    (match r.error_kind with None -> "-" | Some k -> error_kind_id k);
  (match r.error with
  | None -> Buffer.add_string b "error -1\n"
  | Some e -> Printf.bprintf b "error %d\n%s\n" (String.length e) e);
  Printf.bprintf b "reports %d\n" (List.length r.reports);
  List.iter
    (fun (rep : Vulns.report) ->
      Printf.bprintf b "report %s %d %d %b %b %d\n%s\n"
        (Vulns.kind_id rep.Vulns.r_kind)
        rep.Vulns.r_pc rep.Vulns.r_block rep.Vulns.r_orphan
        rep.Vulns.r_composite
        (String.length rep.Vulns.r_note)
        rep.Vulns.r_note)
    r.reports;
  let body = Buffer.contents b in
  digest_hex body ^ "\n" ^ body

let decode_result (s : string) : result option =
  let pos = ref 0 in
  let fail () = raise Exit in
  let line () =
    match String.index_from_opt s !pos '\n' with
    | None -> fail ()
    | Some i ->
        let l = String.sub s !pos (i - !pos) in
        pos := i + 1;
        l
  in
  (* an [n]-byte string followed by its terminating newline *)
  let sized n =
    if n < 0 || !pos + n + 1 > String.length s then fail ();
    let x = String.sub s !pos n in
    if s.[!pos + n] <> '\n' then fail ();
    pos := !pos + n + 1;
    x
  in
  let words l = String.split_on_char ' ' l in
  let int_of w = match int_of_string_opt w with Some n -> n | None -> fail () in
  let float_of w =
    match float_of_string_opt w with Some f -> f | None -> fail ()
  in
  let bool_of w = match bool_of_string_opt w with Some x -> x | None -> fail () in
  try
    (* digest first: everything after the first newline must hash to
       the first line, or the entry is corrupt *)
    let digest = line () in
    let body = String.sub s !pos (String.length s - !pos) in
    if digest <> digest_hex body then fail ();
    if line () <> codec_magic then fail ();
    let tac_loc, blocks, analysis_rounds, elapsed_s, timed_out, error_kind =
      match words (line ()) with
      | [ "meta"; a; b; c; d; e; k ] ->
          let kind =
            if k = "-" then None
            else
              match error_kind_of_id k with
              | Some _ as ek -> ek
              | None -> fail ()
          in
          (int_of a, int_of b, int_of c, float_of d, bool_of e, kind)
      | _ -> fail ()
    in
    let error =
      match words (line ()) with
      | [ "error"; "-1" ] -> None
      | [ "error"; n ] -> Some (sized (int_of n))
      | _ -> fail ()
    in
    let nreports =
      match words (line ()) with
      | [ "reports"; n ] -> int_of n
      | _ -> fail ()
    in
    if nreports < 0 then fail ();
    let reports =
      List.init nreports (fun _ ->
          match words (line ()) with
          | [ "report"; kid; pc; block; orphan; composite; notelen ] ->
              let r_kind =
                match Vulns.kind_of_id kid with
                | Some k -> k
                | None -> fail ()
              in
              { Vulns.r_kind; r_pc = int_of pc; r_block = int_of block;
                r_orphan = bool_of orphan; r_composite = bool_of composite;
                r_note = sized (int_of notelen) }
          | _ -> fail ())
    in
    if !pos <> String.length s then fail ();
    Some { reports; tac_loc; blocks; analysis_rounds; elapsed_s; timed_out;
           error; error_kind }
  with _ -> None

(* ------------------------------------------------------------------ *)
(* Front-end artifact codec (disk-tier serialization)                  *)
(* ------------------------------------------------------------------ *)

(* The artifact is a deep object graph (TAC program + fact tables,
   with internal sharing) for which a hand-rolled field codec would be
   both large and slow, so the payload is [Marshal] output — guarded,
   because unmarshalling arbitrary bytes is unsafe, by a header that
   must fully validate first: magic+version, the compiler version
   (Marshal's format is build-dependent), the payload length and a
   keccak digest of the payload. Any deviation is [None] (a cache
   miss); [Marshal.from_string] only ever sees byte-identical payloads
   of our own [encode_frontend]. *)

let frontend_magic = "ethainter.frontend.v2"

let encode_frontend (fe : frontend) : string =
  let payload = Marshal.to_string fe [] in
  Printf.sprintf "%s %s %d %s\n%s" frontend_magic Sys.ocaml_version
    (String.length payload)
    (Ethainter_word.Hex.encode (Ethainter_crypto.Keccak.hash payload))
    payload

let decode_frontend (s : string) : frontend option =
  match String.index_opt s '\n' with
  | None -> None
  | Some i -> (
      let header = String.sub s 0 i in
      let payload = String.sub s (i + 1) (String.length s - i - 1) in
      match String.split_on_char ' ' header with
      | [ magic; compiler; len; digest ]
        when magic = frontend_magic
             && compiler = Sys.ocaml_version
             && int_of_string_opt len = Some (String.length payload)
             && digest
                = Ethainter_word.Hex.encode
                    (Ethainter_crypto.Keccak.hash payload) -> (
          try Some (Marshal.from_string payload 0 : frontend)
          with _ -> None)
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* The process-wide phase-split cache                                  *)
(* ------------------------------------------------------------------ *)

(* Stamped into every cache key (front- and back-end): bump on any
   change to decompilation, facts, the fixpoint or the detectors.
   "6" = results gained the storage-dependency footprint (codec v3);
   older entries lack it and must miss.
   "7" = Uint256 switched to int-limb representation; marshalled
   payloads embedding the old boxed-int64 record layout must miss.
   "8" = Dominators.t and Facts.t changed layout (preorder intervals,
   precomputed guard reads); a Marshal header cannot tell one record
   layout from another, so v7 front-end entries must miss. *)
let analysis_version = "8"

(* The front-end key's stand-in for a config fingerprint: the front
   end does not depend on any ablation switch, so its entries are
   keyed by [keccak(bytecode) × analysis_version] only. The constant
   is distinct from every [Config.fingerprint] (those are
   "cfg:..."-prefixed), so the two key spaces cannot collide even
   though both tiers share one directory. *)
let frontend_fingerprint = "frontend"

let cache_capacity_default = 8192

(* Lazily created so [set_cache_dir] / env vars take effect before the
   first analysis; the mutex makes first-use from concurrent scheduler
   domains safe. [cache_on] is read on every request from every
   scheduler domain without the mutex, hence Atomic; [cache_dir_ref]
   by contrast is only ever touched with [cache_mu] held. *)
let cache_mu = Mutex.create ()
let cache_on = Atomic.make (Sys.getenv_opt "ETHAINTER_NO_CACHE" = None)
let cache_dir_ref = ref (Sys.getenv_opt "ETHAINTER_CACHE_DIR")
let caches_ref : (frontend Cache.t * result Cache.t) option ref = ref None

let with_cache_mu f =
  Mutex.lock cache_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_mu) f

(* Two cache instances — config-independent front-end artifacts
   ([*.fe] disk entries) and per-config back-end results ([*.cache]) —
   sharing one directory and one capacity knob. *)
let caches () =
  with_cache_mu (fun () ->
      match !caches_ref with
      | Some c -> c
      | None ->
          let capacity =
            match Sys.getenv_opt "ETHAINTER_CACHE_CAPACITY" with
            | Some s -> (
                match int_of_string_opt (String.trim s) with
                | Some n when n >= 1 -> n
                | _ -> cache_capacity_default)
            | None -> cache_capacity_default
          in
          let dir = !cache_dir_ref in
          let c =
            ( Cache.create ~capacity ?dir ~ext:"fe"
                ~encode:encode_frontend ~decode:decode_frontend (),
              Cache.create ~capacity ?dir
                ~encode:encode_result ~decode:decode_result () )
          in
          caches_ref := Some c;
          c)

let frontend_cache () = fst (caches ())
let result_cache () = snd (caches ())

let cache_enabled () = Atomic.get cache_on
let set_cache_enabled b = Atomic.set cache_on b

let set_cache_dir d =
  with_cache_mu (fun () ->
      cache_dir_ref := d;
      caches_ref := None)

let cache_stats () = Cache.stats (result_cache ())
let frontend_cache_stats () = Cache.stats (frontend_cache ())

(* Health probe: has either tier's disk side been switched off after
   repeated I/O failures? Reads the lazily-created instances without
   forcing them — before the first analysis nothing can be degraded. *)
let disk_cache_degraded () =
  match with_cache_mu (fun () -> !caches_ref) with
  | None -> false
  | Some (fe, be) -> Cache.disk_degraded fe || Cache.disk_degraded be

let cache_clear () =
  Cache.clear (frontend_cache ());
  Cache.clear (result_cache ())

(* Daemon-start hook: force both cache instances (and the disk tier's
   stale-tmp sweep) to exist now, on the caller's schedule, instead of
   lazily under the first request's latency. *)
let prewarm () = ignore (caches ())

let pp_cache_stats fmt () =
  Format.fprintf fmt "front-end %a@\nback-end %a"
    Cache.pp_stats (frontend_cache_stats ())
    Cache.pp_stats (cache_stats ())

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type input = Runtime of string | Hex of string

type request = {
  code : input;
  cfg : Config.t;
  timeout_s : float;
}

let request ?(cfg = Config.default) ?(timeout_s = 120.0) code =
  { code; cfg; timeout_s }

let resolve_input = function
  | Runtime code -> Ok code
  | Hex hex -> (
      match Ethainter_word.Hex.decode (String.trim hex) with
      | code -> Ok code
      | exception Invalid_argument msg -> Error msg)

let run (req : request) : result =
  match resolve_input req.code with
  | Error msg ->
      { empty_result with error = Some msg; error_kind = Some Decode }
  | Ok runtime ->
      (* Bind this domain's fault-injection context to the request so
         any injected faults fire at per-contract-deterministic
         points (a no-op unless ETHAINTER_FAULTS is armed). *)
      Fault.set_context ~key:runtime;
      if not (cache_enabled ()) then
        analyze_uncached ~cfg:req.cfg ~timeout_s:req.timeout_s runtime
      else
        let fe_cache, res_cache = caches () in
        (* one hash of the code per request: both keys derive from it *)
        let code_hash = Ethainter_crypto.Keccak.hash runtime in
        let key fingerprint =
          Cache.key_of_hash ~version:analysis_version ~fingerprint code_hash
        in
        let res_key = key (Config.fingerprint req.cfg) in
        (* A back-end hit is only valid if this request's budget
           exceeds the recorded total (front-end + back-end) cost — a
           tighter budget might have timed out, and the timeout tests
           rely on that. An entry refused here counts as [rejected],
           not a hit: we are about to recompute. *)
        match
          Cache.find_valid res_cache res_key
            ~valid:(fun r -> r.elapsed_s < req.timeout_s)
        with
        | Some r -> r
        | None -> (
            let fe_key = key frontend_fingerprint in
            (* A front-end hit stands in for actually running the
               front end, so its recorded cost must itself fit the
               budget (an uncached run would have timed out right
               after this phase otherwise). *)
            let fe =
              match
                Cache.find_valid fe_cache fe_key
                  ~valid:(fun fe -> fe.fe_elapsed_s <= req.timeout_s)
              with
              | Some fe -> Ok fe
              | None -> (
                  match
                    compute_frontend ~timeout_s:req.timeout_s runtime
                  with
                  | Ok fe ->
                      Cache.add fe_cache fe_key fe;
                      Ok fe
                  | Error _ as timed_out ->
                      (* mid-front-end timeout: wall-clock dependent,
                         never cached *)
                      timed_out)
            in
            match fe with
            | Error timed_out -> timed_out
            | Ok fe ->
                let r = backend ~cfg:req.cfg ~timeout_s:req.timeout_s fe in
                (* Timed-out results depend on wall-clock and machine
                   load, not content — never cache them. *)
                if not r.timed_out then Cache.add res_cache res_key r;
                r)

let flagged_kinds (r : result) : Vulns.kind list =
  List.sort_uniq compare (List.map (fun x -> x.Vulns.r_kind) r.reports)

let flags (r : result) (k : Vulns.kind) : bool =
  List.exists (fun x -> x.Vulns.r_kind = k) r.reports
