(** Two-way BDD decomposition (paper Section 3): the {e Cofactor} baseline.

    A conjunctive decomposition writes [f = g ∧ h]; Equation (1) of the
    paper obtains one from any variable [x]:
    [g = x + f_x'], [h = x' + f_x].  The baseline method ({e Cofactor} in
    Table 4, after Cabodi et al. and Narayan et al.) picks the variable
    that minimizes the size of the larger cofactor.  The generalized
    decomposition-point method lives in {!Decomp_points}. *)

type pair = { g : Bdd.t; h : Bdd.t }

val shared_size : pair -> int
(** Nodes of the shared DAG of both factors (Table 4's "Shared"). *)

val max_size : pair -> int
(** Size of the larger factor — Table 4's win criterion. *)

val balance : pair -> float
(** [min(|g|,|h|) / max(|g|,|h|)] ∈ [0,1]; 1 is perfectly balanced. *)

val verify_conj : Bdd.man -> Bdd.t -> pair -> bool
(** Check [g ∧ h = f]. *)

val verify_disj : Bdd.man -> Bdd.t -> pair -> bool
(** Check [g ∨ h = f]. *)

val best_split_var : Bdd.man -> Bdd.t -> int
(** The support variable of least cost: the smaller larger cofactor
    [max(|f_x|, |f_x'|)], then the smaller sum [|f_x| + |f_x'|], then the
    first in level order.  The cofactor sizes are counted on [f]'s nodes
    without building the cofactors, so the search makes no node: under a
    node limit or a deadline tick (serve's per-request limits), neither
    fires during the search, only while a caller builds the pair.
    @raise Invalid_argument on constants. *)

val cofactor_size :
  ?limit:int -> Bdd.man -> Bdd.t -> var:int -> bool -> int option
(** [cofactor_size man f ~var b] is [Some (Bdd.size (Bdd.cofactor man f
    ~var b))], counted as {!best_split_var} counts it, without making a
    node; [None] once the count passes [limit] (default: no limit). *)

val conj_cofactor_at : Bdd.man -> Bdd.t -> int -> pair
(** Equation (1) at a given variable. *)

val disj_cofactor_at : Bdd.man -> Bdd.t -> int -> pair
(** The symmetric disjunctive split at a given variable:
    [f = (x·f_x) ∨ (x'·f_x')]. *)

val conj_cofactor : Bdd.man -> Bdd.t -> pair
(** {e Cofactor}: Equation (1) at {!best_split_var}. *)

val disj_cofactor : Bdd.man -> Bdd.t -> pair
(** Disjunctive {e Cofactor} at {!best_split_var}. *)
