(* Plumbing shared by the three workloads: run settings, environment
   hygiene, the run directory, timing statistics and the result line. *)

type settings = {
  seed : int;
  seconds : float;  (* sizes each workload's measured work *)
  trace : bool;     (* per-layer run: record spans, print per-layer metrics *)
  workers : int;
  tiny : bool;      (* self-check size: a handful of operations *)
  sabotage : bool;  (* self-check: corrupt one expected verdict *)
  run_dir : string; (* fresh; holds the journal and the socket *)
}

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  attempted : int;
  failed : int;
  checks_ok : bool;  (* run-level checks, beyond per-operation ones *)
  e2e : metric list;
  layers : metric list;
}

let m name unit_ value = { name; value; unit_ }
let now = Unix.gettimeofday
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* Any of these changes what the program does before the benchmark's
   code runs (the analysis caches read them at module initialisation),
   so a run with one set cannot be compared with a run without it. *)
let hygiene_vars =
  [ "OCAMLRUNPARAM"; "ETHAINTER_CACHE_DIR"; "ETHAINTER_NO_CACHE";
    "ETHAINTER_CACHE_CAPACITY"; "ETHAINTER_CACHE_MAX_BYTES";
    "ETHAINTER_PROGRAM_CACHE_CAP"; "ETHAINTER_WORKERS"; "ETHAINTER_FAULTS" ]

let refuse_tainted_environment () =
  match List.filter (fun v -> Sys.getenv_opt v <> None) hygiene_vars with
  | [] -> ()
  | set ->
      Printf.eprintf "perfbench: refusing to run with %s set\n"
        (String.concat ", " set);
      exit 2

(* The revision of the checkout, when it is a git work tree; read from
   the files so that no process is started. *)
let git_rev () =
  let read f =
    try
      let ic = open_in f in
      let l = input_line ic in
      close_in ic;
      Some (String.trim l)
    with _ -> None
  in
  match read ".git/HEAD" with
  | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " -> (
      let r = String.sub h 5 (String.length h - 5) in
      match read (Filename.concat ".git" r) with
      | Some rev -> rev
      | None -> "unknown")
  | Some rev -> rev
  | None -> "unknown"

let stamp s =
  Printf.sprintf "rev=%s nproc=%d ocaml=%s workers=%d seed=%d seconds=%g"
    (git_rev ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version s.workers s.seed s.seconds

(* ---------------- run directory ---------------- *)

let out_root = ".perfbench"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let mkdir_p dir =
  let rec go d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

(* A fresh directory per run, relative to the checkout (short enough
   for a Unix socket path wherever the checkout lives); removed at exit,
   including when the run fails. *)
let make_run_dir name =
  let dir =
    Filename.concat out_root
      (Printf.sprintf "run-%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  mkdir_p dir;
  at_exit (fun () -> try rm_rf dir with _ -> ());
  dir

(* ---------------- measurements ---------------- *)

(* Peak resident set size of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let kb = ref 0 in
  (try
     while true do
       let l = input_line ic in
       if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
         Scanf.sscanf l "VmHWM: %d kB" (fun k -> kb := k)
     done
   with End_of_file -> ());
  close_in ic;
  fi !kb /. 1024.0

(* Nearest-rank percentile of an unsorted sample, in the sample's unit. *)
let percentile q (xs : float array) =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    let k = int_of_float (Float.ceil (q *. fi n)) - 1 in
    a.(max 0 (min (n - 1) k))
  end

let median xs = percentile 0.5 xs

(* A growable float sample. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

let setup_reps = 5

(* [repeat_setup k f] runs the set-up [k] times and keeps the last
   result, handing each earlier one to [discard]; set-up time is the
   median of the [k] timings, which keeps one slow repetition (first
   heap growth, a noisy neighbour) out of [setup_s]. *)
let repeat_setup ~k ~discard f =
  let times = Array.make k 0.0 in
  let rec go i prev =
    (match prev with Some p -> discard p | None -> ());
    let t0 = now () in
    let r = f () in
    times.(i) <- now () -. t0;
    if i + 1 = k then (median times, r) else go (i + 1) (Some r)
  in
  go 0 None

(* Inputs are drawn from [Random.State]s seeded by the run's seed and a
   per-purpose salt, so each stream is reproducible on its own. *)
let rng s salt = Random.State.make [| s.seed; salt |]

let gc_minor_words () = (Gc.quick_stat ()).Gc.minor_words
let gc_major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* Live heap after a full major collection, in bytes. *)
let live_bytes () = fi ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))

(* ---------------- output ---------------- *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed (metrics : metric list) =
  let ms =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_number x.value) x.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)
