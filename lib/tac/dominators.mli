(** Dominance over the TAC control-flow graph (§4.5: a [JUMPI]
    condition guards the blocks dominated by the branch it protects).

    {!compute} runs Cooper–Harvey–Kennedy and numbers the resulting
    dominator tree in preorder once; every query afterwards is an
    interval test or an array slice. Blocks are named by their entry
    pc. *)

type t

val compute : Tac.program -> t
(** Dominance of every block reachable from the program's entry. Polls
    the ambient deadline while iterating to the fixpoint. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b]: every path from the entry to [b] passes through
    [a]. Reflexive for every [a] (reachable or not); an unreachable
    block dominates no other block, and no block dominates an
    unreachable one but itself. *)

val dominated_by : t -> int -> int list
(** The reachable blocks [a] dominates, [a] included; [[]] when [a] is
    unreachable. Listed in dominator-tree preorder. *)
