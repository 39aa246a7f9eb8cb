(** The function pool for Tables 2–4 (output and next-state functions above
    a node threshold; see DESIGN.md §2 for the substitution). *)

type entry = {
  man : Bdd.man;
  f : Bdd.t;
  label : string;  (** "circuit.function" *)
  nvars : int;  (** variable count used for minterm counting *)
}

val entries_of_circuit : min_nodes:int -> Circuit.t -> entry list
(** Compile a circuit and keep its output and next-state functions of at
    least [min_nodes] nodes. *)

val product_entries_of_circuit : min_nodes:int -> Circuit.t -> entry list
(** Sparse entries: conjunctions of three output cones, restoring the
    sparse-function regime of the paper's industrial pool (see the
    comment in the implementation and EXPERIMENTS.md). *)

val build :
  ?min_nodes:int -> ?circuits:Circuit.t list -> jobs:int -> unit -> entry list
(** The default pool: the functions of [circuits] (default: the synthetic
    sequential circuits and the structured random netlists) plus the
    sparse output-products of the random netlists, filtered at
    [min_nodes] (default 500).  Circuit compilations fan out over
    {!Mt.Runner} on [jobs] workers ([jobs = 1] runs them in the calling
    domain), one private manager per circuit; the entry list is the same,
    in the same order, for every [jobs] value. *)

val describe : entry list -> string
