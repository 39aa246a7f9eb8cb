(** Budgets, and graceful degradation under them.  {!within} arms a
    {!budget} ([Mt.Runner] arms each job with it); {!walk} is the one
    degradation ladder, run per request by the serve handler and per
    image step by the traversal engines through {!image}.

    The DAC'98 ethos applied at runtime: when an exact image step blows
    the node budget, do not abort — substitute a denser, smaller frontier
    and keep going.  After the exact retry, {!image}'s rungs are:

    + restrict-minimize the frontier against the already-reached states
      (sound: the minimized set lies between the frontier and
      [frontier ∨ reached], so only known-reachable states are expanded);
    + under-approximate the frontier with one of the paper's dense-subset
      algorithms (HB by default) at geometrically shrinking thresholds,
      carrying the left-behind states back to the caller;
    + as a last resort, expand a single satisfying cube of the frontier.

    Every degraded step is recorded with its before/after size and
    density, so the traversal's final result carries a {!cert}ificate:
    either the fixpoint was proved ([Exact]) or the reached set is a
    sound under-approximation tagged with what was given up
    ([Degraded]).  Only when even the single-cube rung cannot complete
    does {!image} raise {!Exhausted} — the engines translate that into a
    graceful stop, never into an escaped {!Bdd.Node_limit}. *)

type budget = {
  node_budget : int option;  (** fresh nodes over those live when armed *)
  deadline : float option;  (** wall-clock seconds *)
}

val no_budget : budget

exception Deadline
(** Raised from node creation once an armed [deadline] has passed. *)

val within : budget -> Bdd.man -> (unit -> 'a) -> 'a
(** [within budget man f] runs [f] with [budget] armed on [man] and
    disarms it on exit; with nothing set, [f ()] straight through. *)

val collect : Bdd.man -> Bdd.t list -> unit
(** [Bdd.gc] against the roots, ignoring the [Node_limit] the fault
    injector forces at gc entry. *)

val walk :
  ?budget:budget ->
  Bdd.man ->
  collect:(unit -> unit) ->
  rungs:(unit -> (string * (unit -> 'a option)) list) ->
  (unit -> 'a) ->
  ('a * string list) option
(** [walk man ~collect ~rungs exact]: [exact], then [exact] again, then
    the named rungs of [rungs ()] (built only after the retry fails) in
    order, each attempt {!within} [budget]; a rung answering [None] is
    skipped.  [Node_limit], {!Deadline} and [Table_full] fail an attempt
    and [collect ()] follows each failure.  Returns the value with [[]]
    when exact, else with the causes seen (["deadline"], ["table-full"])
    and the rung's name; [None] when every attempt failed. *)

type step = {
  call : int;  (** which {!image} call degraded (1-based) *)
  rung : string;  (** ["restrict"], ["HB@512"], …, ["cube"] *)
  size_before : int;
  size_after : int;
  density_before : float;
  density_after : float;
}

type info = {
  steps_approximated : int;  (** image calls that needed a degraded rung *)
  exhausted : bool;  (** the traversal stopped because the ladder ran out *)
  density_stats : step list;  (** chronological, one per degraded call *)
}

type cert = Exact | Degraded of info

val pp_cert : Format.formatter -> cert -> unit
(** ["exact"], or e.g. ["degraded(2 steps, min-density x4.7)"]. *)

type t
(** Per-traversal degradation tracker. *)

exception Exhausted
(** Even the last rung could not complete within the node budget. *)

val create : ?meth:Approx.meth -> unit -> t
(** [meth] (default [HB]) is the dense-subset algorithm of the
    under-approximation rungs. *)

val steps_approximated : t -> int

val certificate : exact:bool -> t -> cert
(** [Exact] when the engine proved the fixpoint, else the degradation
    record (possibly with zero approximated steps, when the run was cut
    short by a time or iteration bound instead). *)

val image :
  t ->
  Bdd.man ->
  roots:(unit -> Bdd.t list) ->
  reached:Bdd.t ->
  compute:(Bdd.t -> 'a) ->
  Bdd.t ->
  'a * Bdd.t * Bdd.t
(** [image t man ~roots ~reached ~compute frontier] runs
    [compute frontier], walking the ladder on a budget failure.  Returns
    [(value, expanded, leftover)] where [value] is [compute expanded],
    [expanded] is the frontier actually used (between [frontier] and
    [frontier ∨ reached] for the restrict rung, a subset of [frontier]
    for the under-approximation rungs) and [leftover] is
    [frontier ∖ expanded] — states the caller must keep unexpanded.
    [roots] feeds the garbage collections between rungs; [compute] may be
    re-invoked and must tolerate that.  This is {!walk} with the rungs
    above and no budget of its own.  @raise Exhausted when no rung fits
    the budget. *)
