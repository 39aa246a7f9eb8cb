(** Short-path subsetting (SP) — the second ICCAD'95 underapproximation
    procedure the paper compares against.

    Keeps the nodes that lie on short root-to-1 paths (short paths are
    large implicants using few nodes) and redirects every arc into a
    discarded node to the constant 0. *)

val approximate : Bdd.man -> threshold:int -> Bdd.t -> Bdd.t
(** [approximate man ~threshold f] returns a subset of [f].  Every node is
    labelled with the length of the shortest root-to-1 path through it; the
    bound is the [threshold]-th smallest label (the smallest one when
    [threshold < 1]), and every node whose label is at most the bound is
    kept.  The limit is soft: all nodes that share the bound's label stay,
    so the result can exceed [threshold] nodes even where a shorter bound
    would fit, and it does whenever the shortest paths alone involve more
    nodes than that.  CUDD's implementation prunes further with a hard
    limit (EXPERIMENTS.md, Table 2).  Returns [f] unchanged when it already
    fits. *)
