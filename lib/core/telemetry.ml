(* The one telemetry surface. See telemetry.mli for the contract. *)

module D = Ethainter_datalog.Datalog
module I = Ethainter_runtime.Intern

type snapshot = {
  cache_fe : Cache.stats;
  cache_be : Cache.stats;
  intern_interned : int;
  intern_local_hits : int;
  intern_shared_hits : int;
  intern_inserts : int;
  datalog_plans_built : int;
  datalog_plan_reuses : int;
  scheduler_retries : int;
  scheduler_quarantine_trips : int;
  scheduler_quarantine_rejections : int;
  scheduler_quarantine_open : int;
  extras : (string * (string * float) list) list;
}

(* ---------------- sources ---------------- *)

(* Registered by subsystems above lib/core (the streaming index, a
   daemon); sampled at capture time. Replace semantics: a rebuilt
   subsystem re-registers under the same name and the old thunk —
   which may close over dead state — is dropped. *)
let sources_mu = Mutex.create ()

let sources : (string, unit -> (string * float) list) Hashtbl.t =
  Hashtbl.create 8

let register_source name f =
  Mutex.lock sources_mu;
  Hashtbl.replace sources name f;
  Mutex.unlock sources_mu

let unregister_source name =
  Mutex.lock sources_mu;
  Hashtbl.remove sources name;
  Mutex.unlock sources_mu

(* The program decoder lives below this layer (lib/evm), which must
   not depend on telemetry; register its counter from here so every
   consumer sees a built-in "evm_program" source. *)
let () =
  register_source "evm_program" (fun () ->
      Ethainter_evm.Program.telemetry_pairs ())

let capture () =
  let it = I.stats () in
  let ds = D.stats () in
  let thunks =
    (* snapshot the registry under the mutex, run the thunks outside
       it: a slow source must not block concurrent (un)registration *)
    Mutex.lock sources_mu;
    let l = Hashtbl.fold (fun k f acc -> (k, f) :: acc) sources [] in
    Mutex.unlock sources_mu;
    List.sort (fun (a, _) (b, _) -> compare a b) l
  in
  let extras =
    List.map (fun (name, f) -> (name, (try f () with _ -> []))) thunks
  in
  let qs = Scheduler.Quarantine.stats () in
  { cache_fe = Pipeline.frontend_cache_stats ();
    cache_be = Pipeline.cache_stats ();
    intern_interned = it.I.interned;
    intern_local_hits = it.I.local_hits;
    intern_shared_hits = it.I.shared_hits;
    intern_inserts = it.I.inserts;
    datalog_plans_built = ds.D.plans_built;
    datalog_plan_reuses = ds.D.plan_reuses;
    scheduler_retries = Scheduler.retries_performed ();
    scheduler_quarantine_trips = qs.Scheduler.Quarantine.q_trips;
    scheduler_quarantine_rejections = qs.Scheduler.Quarantine.q_rejections;
    scheduler_quarantine_open = qs.Scheduler.Quarantine.q_open;
    extras }

(* ---------------- diff ---------------- *)

(* Counters subtract; gauges (size, capacity) keep the later value. *)
let diff_cache (l : Cache.stats) (e : Cache.stats) : Cache.stats =
  { Cache.hits = l.Cache.hits - e.Cache.hits;
    disk_hits = l.Cache.disk_hits - e.Cache.disk_hits;
    misses = l.Cache.misses - e.Cache.misses;
    rejected = l.Cache.rejected - e.Cache.rejected;
    evictions = l.Cache.evictions - e.Cache.evictions;
    disk_writes = l.Cache.disk_writes - e.Cache.disk_writes;
    io_errors = l.Cache.io_errors - e.Cache.io_errors;
    size = l.Cache.size;
    capacity = l.Cache.capacity }

let diff (l : snapshot) (e : snapshot) : snapshot =
  let extras =
    List.map
      (fun (name, lp) ->
        match List.assoc_opt name e.extras with
        | None -> (name, lp)
        | Some ep ->
            ( name,
              List.map
                (fun (k, v) ->
                  match List.assoc_opt k ep with
                  | Some v0 -> (k, v -. v0)
                  | None -> (k, v))
                lp ))
      l.extras
  in
  { cache_fe = diff_cache l.cache_fe e.cache_fe;
    cache_be = diff_cache l.cache_be e.cache_be;
    intern_interned = l.intern_interned - e.intern_interned;
    intern_local_hits = l.intern_local_hits - e.intern_local_hits;
    intern_shared_hits = l.intern_shared_hits - e.intern_shared_hits;
    intern_inserts = l.intern_inserts - e.intern_inserts;
    datalog_plans_built = l.datalog_plans_built - e.datalog_plans_built;
    datalog_plan_reuses = l.datalog_plan_reuses - e.datalog_plan_reuses;
    scheduler_retries = l.scheduler_retries - e.scheduler_retries;
    scheduler_quarantine_trips =
      l.scheduler_quarantine_trips - e.scheduler_quarantine_trips;
    scheduler_quarantine_rejections =
      l.scheduler_quarantine_rejections - e.scheduler_quarantine_rejections;
    (* open breakers are a gauge, not a counter *)
    scheduler_quarantine_open = l.scheduler_quarantine_open;
    extras }

(* ---------------- flat key/value form ---------------- *)

let cache_pairs prefix (s : Cache.stats) =
  [ (prefix ^ "_hits", float_of_int s.Cache.hits);
    (prefix ^ "_disk_hits", float_of_int s.Cache.disk_hits);
    (prefix ^ "_misses", float_of_int s.Cache.misses);
    (prefix ^ "_rejected", float_of_int s.Cache.rejected);
    (prefix ^ "_evictions", float_of_int s.Cache.evictions);
    (prefix ^ "_disk_writes", float_of_int s.Cache.disk_writes);
    (prefix ^ "_io_errors", float_of_int s.Cache.io_errors);
    (prefix ^ "_size", float_of_int s.Cache.size);
    (prefix ^ "_capacity", float_of_int s.Cache.capacity) ]

let core_pairs (s : snapshot) =
  cache_pairs "cache_fe" s.cache_fe
  @ cache_pairs "cache_be" s.cache_be
  @ [ ("intern_interned", float_of_int s.intern_interned);
      ("intern_local_hits", float_of_int s.intern_local_hits);
      ("intern_shared_hits", float_of_int s.intern_shared_hits);
      ("intern_inserts", float_of_int s.intern_inserts);
      ("datalog_plans_built", float_of_int s.datalog_plans_built);
      ("datalog_plan_reuses", float_of_int s.datalog_plan_reuses);
      ("scheduler_retries", float_of_int s.scheduler_retries);
      ("scheduler_quarantine_trips",
       float_of_int s.scheduler_quarantine_trips);
      ("scheduler_quarantine_rejections",
       float_of_int s.scheduler_quarantine_rejections);
      ("scheduler_quarantine_open",
       float_of_int s.scheduler_quarantine_open) ]

let to_pairs (s : snapshot) =
  core_pairs s @ List.concat_map (fun (_, ps) -> ps) s.extras

(* ---------------- pretty printing ---------------- *)

let pp fmt (s : snapshot) =
  Format.fprintf fmt "front-end %a@\nback-end %a" Cache.pp_stats s.cache_fe
    Cache.pp_stats s.cache_be;
  Format.fprintf fmt
    "@\nintern: %d interned, %d local hits, %d shared hits, %d inserts"
    s.intern_interned s.intern_local_hits s.intern_shared_hits
    s.intern_inserts;
  Format.fprintf fmt "@\ndatalog: %d plans built, %d reused"
    s.datalog_plans_built s.datalog_plan_reuses;
  Format.fprintf fmt
    "@\nscheduler: %d retries; quarantine %d open, %d trips, %d rejections"
    s.scheduler_retries s.scheduler_quarantine_open
    s.scheduler_quarantine_trips s.scheduler_quarantine_rejections;
  List.iter
    (fun (name, pairs) ->
      Format.fprintf fmt "@\n%s:" name;
      List.iteri
        (fun i (k, v) ->
          Format.fprintf fmt "%s %s=%g" (if i = 0 then "" else ",") k v)
        pairs)
    s.extras

(* ---------------- codec ---------------- *)

(* Same digest discipline as the Pipeline result codec: keccak over
   the body, checked before anything is parsed. *)

(* v2: added the scheduler_quarantine_* core keys (PR 9). *)
let codec_magic = "ethainter.telemetry.v2"

let digest_hex body =
  Ethainter_word.Hex.encode (Ethainter_crypto.Keccak.hash body)

(* Keys and source names are emitted space-separated on their own
   lines; anything that would break the framing is dropped rather than
   quoted — telemetry keys are identifiers by construction. *)
let token_ok k =
  k <> "" && String.for_all (fun c -> c <> ' ' && c <> '\n') k

let encode (s : snapshot) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b codec_magic;
  Buffer.add_char b '\n';
  let emit ps = List.iter (fun (k, v) -> Printf.bprintf b "%s %h\n" k v) ps in
  let core = core_pairs s in
  Printf.bprintf b "core %d\n" (List.length core);
  emit core;
  List.iter
    (fun (name, ps) ->
      if token_ok name then begin
        let ps = List.filter (fun (k, _) -> token_ok k) ps in
        Printf.bprintf b "source %s %d\n" name (List.length ps);
        emit ps
      end)
    s.extras;
  let body = Buffer.contents b in
  digest_hex body ^ "\n" ^ body

let decode (s : string) : snapshot option =
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
  let int_of w =
    match int_of_string_opt w with Some n -> n | None -> fail ()
  in
  let float_of w =
    match float_of_string_opt w with Some f -> f | None -> fail ()
  in
  let pair () =
    match String.split_on_char ' ' (line ()) with
    | [ k; v ] -> (k, float_of v)
    | _ -> fail ()
  in
  let pairs n =
    if n < 0 then fail ();
    List.init n (fun _ -> pair ())
  in
  try
    let digest = line () in
    let body = String.sub s !pos (String.length s - !pos) in
    if digest <> digest_hex body then fail ();
    if line () <> codec_magic then fail ();
    let core =
      match String.split_on_char ' ' (line ()) with
      | [ "core"; n ] -> pairs (int_of n)
      | _ -> fail ()
    in
    let rec sources acc =
      if !pos >= String.length s then List.rev acc
      else
        match String.split_on_char ' ' (line ()) with
        | [ "source"; name; n ] -> sources ((name, pairs (int_of n)) :: acc)
        | _ -> fail ()
    in
    let extras = sources [] in
    let get k =
      match List.assoc_opt k core with Some v -> v | None -> fail ()
    in
    let geti k = int_of_float (get k) in
    let cstats p =
      { Cache.hits = geti (p ^ "_hits");
        disk_hits = geti (p ^ "_disk_hits");
        misses = geti (p ^ "_misses");
        rejected = geti (p ^ "_rejected");
        evictions = geti (p ^ "_evictions");
        disk_writes = geti (p ^ "_disk_writes");
        io_errors = geti (p ^ "_io_errors");
        size = geti (p ^ "_size");
        capacity = geti (p ^ "_capacity") }
    in
    Some
      { cache_fe = cstats "cache_fe";
        cache_be = cstats "cache_be";
        intern_interned = geti "intern_interned";
        intern_local_hits = geti "intern_local_hits";
        intern_shared_hits = geti "intern_shared_hits";
        intern_inserts = geti "intern_inserts";
        datalog_plans_built = geti "datalog_plans_built";
        datalog_plan_reuses = geti "datalog_plan_reuses";
        scheduler_retries = geti "scheduler_retries";
        scheduler_quarantine_trips = geti "scheduler_quarantine_trips";
        scheduler_quarantine_rejections =
          geti "scheduler_quarantine_rejections";
        scheduler_quarantine_open = geti "scheduler_quarantine_open";
        extras }
  with _ -> None
