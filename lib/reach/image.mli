(** Image computation over a partitioned transition relation.

    [image trans f] computes [Img(f) = (∃ x, w. T(x,w,y) ∧ f(x))] renamed
    back to present-state variables, conjoining clusters left to right and
    quantifying each variable as soon as no later cluster mentions it.

    The [partial] hook implements the paper's partial-image subsetting
    (Table 1's "PImg" column): whenever an intermediate product exceeds
    [limit] nodes it is replaced by [approx] of itself, making the image a
    {e subset} of the exact image — which high-density traversal tolerates
    and exploits.

    The [pool] hook is the [?pool] of each cluster's relational product
    ({!Bdd.and_exists}), which forks its recursion on that pool.  The
    transition system's manager must then be shared
    ([Bdd.create ~shared:true], as [Compile.compile ~man] permits);
    results are bit-identical to the sequential path. *)

type stats = { peak_product : int; approximations : int }

val image :
  ?partial:int * (Bdd.t -> Bdd.t) ->
  ?pool:Tpool.t ->
  Trans.t ->
  Bdd.t ->
  Bdd.t * stats
(** [image ?partial ?pool trans f]: [f] ranges over present-state
    variables; the result does too. *)

val exact : Trans.t -> Bdd.t -> Bdd.t
(** [image] without subsetting, dropping the statistics. *)

val preimage : Trans.t -> Bdd.t -> Bdd.t
(** [∃ y, w. T(x,w,y) ∧ f(y)] renamed to present-state variables (used by
    backward analyses and tests). *)
