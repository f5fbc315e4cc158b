(** Dominator computation over the TAC control-flow graph.

    Guard inference needs dominance: a [JUMPI] condition protects
    exactly the statements that can only execute after taking a
    particular branch, i.e. the blocks dominated by that branch target
    (§4.5: "if a check dominates a use of a tainted variable, it is
    considered a guard for that variable").

    Cooper–Harvey–Kennedy iterative algorithm over a reverse-postorder
    numbering, then one preorder walk of the resulting dominator tree:
    a block's subtree — the blocks it dominates — is a contiguous
    interval of that preorder, so both queries below are answered
    without walking the tree. *)

open Tac

type t = {
  order : int array;          (** reachable blocks in dominator-tree preorder *)
  pos : (int, int) Hashtbl.t; (** block -> its index in [order] *)
  stop : int array;
      (** [stop.(i)]: end (exclusive) of the subtree rooted at
          [order.(i)], which is [order.(i) .. order.(stop.(i) - 1)] *)
}

let compute (p : program) : t =
  (* reverse postorder from entry *)
  let visited = Hashtbl.create 64 in
  let order = ref [] in
  let rec dfs e =
    if not (Hashtbl.mem visited e) then begin
      Hashtbl.replace visited e ();
      (match block p e with
      | Some b -> List.iter dfs b.b_succs
      | None -> ());
      order := e :: !order
    end
  in
  dfs p.p_entry;
  let rpo = Array.of_list !order in
  let index = Hashtbl.create 64 in
  Array.iteri (fun i e -> Hashtbl.replace index e i) rpo;
  let idom = Hashtbl.create 64 in
  Hashtbl.replace idom p.p_entry p.p_entry;
  let intersect a b =
    (* walk up the idom tree by rpo index *)
    let rec go a b =
      if a = b then a
      else
        let ia = Hashtbl.find index a and ib = Hashtbl.find index b in
        if ia > ib then go (Hashtbl.find idom a) b
        else go a (Hashtbl.find idom b)
    in
    go a b
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun e ->
        (* iterative dataflow over every block, repeated to fixpoint —
           unbounded on adversarial CFGs without the deadline *)
        Ethainter_runtime.Deadline.poll ();
        if e <> p.p_entry then
          match block p e with
          | None -> ()
          | Some b ->
              let processed_preds =
                List.filter
                  (fun q -> Hashtbl.mem idom q && Hashtbl.mem index q)
                  b.b_preds
              in
              (match processed_preds with
              | [] -> ()
              | first :: rest ->
                  let nd = List.fold_left intersect first rest in
                  if Hashtbl.find_opt idom e <> Some nd then begin
                    Hashtbl.replace idom e nd;
                    changed := true
                  end))
      rpo
  done;
  (* number the dominator tree in preorder, children in rpo order *)
  let children = Hashtbl.create 64 in
  for i = Array.length rpo - 1 downto 1 do
    let e = rpo.(i) in
    match Hashtbl.find_opt idom e with
    | Some d ->
        let kids = Option.value ~default:[] (Hashtbl.find_opt children d) in
        Hashtbl.replace children d (e :: kids)
    | None -> ()
  done;
  let n = Hashtbl.length idom in
  let order = Array.make n 0 and stop = Array.make n 0 in
  let pos = Hashtbl.create n in
  let next = ref 0 in
  let rec number e =
    let i = !next in
    incr next;
    order.(i) <- e;
    Hashtbl.replace pos e i;
    List.iter number (Option.value ~default:[] (Hashtbl.find_opt children e));
    stop.(i) <- !next
  in
  number p.p_entry;
  { order; pos; stop }

(** [dominates t a b]: does block [a] dominate block [b]? *)
let dominates (t : t) (a : int) (b : int) : bool =
  a = b
  ||
  match (Hashtbl.find_opt t.pos a, Hashtbl.find_opt t.pos b) with
  | Some i, Some j -> i <= j && j < t.stop.(i)
  | _ -> false

(** All blocks dominated by [a] (including [a] itself), among blocks
    reachable from the entry. *)
let dominated_by (t : t) (a : int) : int list =
  match Hashtbl.find_opt t.pos a with
  | Some i -> Array.to_list (Array.sub t.order i (t.stop.(i) - i))
  | None -> []
