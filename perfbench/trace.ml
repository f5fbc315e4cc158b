(* In-memory spans recorded by the benchmark around its own calls into
   each layer of the program: name, start, end, parent span and request
   id. A layer's self time is its span's duration minus the time its
   child spans cover; children of one span never overlap, because each
   is recorded on the thread that runs the parent. *)

type span = {
  id : int;
  name : string;
  t0 : float;
  t1 : float;
  parent : int;  (* 0 = root *)
  req : int;     (* operation id: contract, block or request *)
}

let on = Atomic.make false
let next_id = Atomic.make 1

(* Columns of unboxed floats and ints, so that recording a span
   allocates nothing but the occasional doubling. *)
type store = {
  mutable n : int;
  mutable ids : int array;
  mutable names : string array;
  mutable t0s : float array;
  mutable t1s : float array;
  mutable parents : int array;
  mutable reqs : int array;
}

let mu = Mutex.create ()

let store =
  { n = 0; ids = [||]; names = [||]; t0s = [||]; t1s = [||]; parents = [||];
    reqs = [||] }

let reset () =
  Mutex.lock mu;
  store.n <- 0;
  Mutex.unlock mu

let grow a fill =
  let b = Array.make (max 4096 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let push ~id ~name ~t0 ~t1 ~parent ~req =
  Mutex.lock mu;
  let s = store in
  if s.n = Array.length s.ids then begin
    s.ids <- grow s.ids 0;
    s.names <- grow s.names "";
    s.t0s <- grow s.t0s 0.0;
    s.t1s <- grow s.t1s 0.0;
    s.parents <- grow s.parents 0;
    s.reqs <- grow s.reqs 0
  end;
  let i = s.n in
  s.ids.(i) <- id;
  s.names.(i) <- name;
  s.t0s.(i) <- t0;
  s.t1s.(i) <- t1;
  s.parents.(i) <- parent;
  s.reqs.(i) <- req;
  s.n <- i + 1;
  Mutex.unlock mu

(* The innermost open span of the calling domain; spans opened through
   [with_span] nest under it. *)
let current : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let record ~name ~t0 ~t1 ~parent ~req =
  if Atomic.get on then
    push ~id:(Atomic.fetch_and_add next_id 1) ~name ~t0 ~t1 ~parent ~req

(* A span measured elsewhere, as a child of the calling domain's
   innermost open span. *)
let record_child ~name ~t0 ~t1 ~req =
  record ~name ~t0 ~t1 ~parent:(Domain.DLS.get current) ~req

(* Run [f] inside a span when tracing is on; otherwise just run it. *)
let with_span ?(req = 0) name f =
  if not (Atomic.get on) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = Domain.DLS.get current in
    Domain.DLS.set current id;
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      Domain.DLS.set current parent;
      push ~id ~name ~t0 ~t1 ~parent ~req
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Every span, in recording order. *)
let all () =
  Mutex.lock mu;
  let s = store in
  let l =
    List.init s.n (fun i ->
        { id = s.ids.(i); name = s.names.(i); t0 = s.t0s.(i); t1 = s.t1s.(i);
          parent = s.parents.(i); req = s.reqs.(i) })
  in
  Mutex.unlock mu;
  l

(* Per span name: (spans, total duration, total self time), seconds. *)
let summary () =
  let l = all () in
  let child_time : (int, float) Hashtbl.t = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let c = try Hashtbl.find child_time s.parent with Not_found -> 0.0 in
        Hashtbl.replace child_time s.parent (c +. (s.t1 -. s.t0)))
    l;
  let by_name : (string, int * float * float) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self =
        d -. (try Hashtbl.find child_time s.id with Not_found -> 0.0)
      in
      let n, tot, slf =
        try Hashtbl.find by_name s.name with Not_found -> (0, 0.0, 0.0)
      in
      Hashtbl.replace by_name s.name (n + 1, tot +. d, slf +. self))
    l;
  by_name

(* Self time of [name] summed over all its spans, seconds. *)
let self_total summary name =
  match Hashtbl.find_opt summary name with Some (_, _, s) -> s | None -> 0.0

let total summary name =
  match Hashtbl.find_opt summary name with Some (_, t, _) -> t | None -> 0.0

let spans_of summary name =
  match Hashtbl.find_opt summary name with Some (n, _, _) -> n | None -> 0

(* One JSON object per span, in recording order. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"start\": %.6f, \"end\": %.6f, \
         \"parent\": %d, \"req\": %d}\n"
        s.id s.name s.t0 s.t1 s.parent s.req)
    (all ());
  close_out oc
