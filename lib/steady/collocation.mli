(** The time-domain collocation core shared by every periodic-in-[t1]
    analysis: the oscillator orbit, the forced periodic steady state,
    the WaMPDE envelope step, the two-periodic (quasiperiodic) WaMPDE
    and the unwarped MPDE.

    One slice is a DAE sampled on the odd uniform [t1] grid
    [t1_j = j / n1], [j = 0 .. n1-1], with flat layout
    [y.(j * n + i)] = component [i] at point [j].  Its spatial residual
    is

    {[ g_j = alpha (D Q)_j + f(t_j, X_j) + b_j ]}

    with [D] the [n1 x n1] periodic differentiation matrix and
    [Q_j = q(X_j)].  A slice is either steady ([r = g]) or one theta
    step of a slow march ([r = Q - Q0 + h theta g + h (1 - theta) g0]).
    When [alpha] is an unknown (the oscillator's local frequency) it is
    stored after the grid, at [y.(n1 * n)], and a phase-condition row
    closes the slice.  A system stacks slices; for two-periodic
    problems the slices are the points of a [p2]-periodic slow grid,
    coupled by the slow derivative [(1 / p2) (D2 Q)].

    The Jacobian of every slice is the structured operator
    [alpha' (D (x) C) + blockdiag(beta C + gamma G)] with [C = dq],
    [G = df], bordered by [scale (D Q)] and the phase row when the
    frequency is free.  {!linearise} evaluates it once; {!dense}
    materialises it for LU, {!apply_into} and {!krylov} drive GMRES. *)

open Linalg

(** The [t1] grid: [n1] points (odd), state dimension [n], and the
    differentiation matrix [d]. *)
type t = { n1 : int; n : int; d : Mat.t }

(** [make ?differentiation ~n1 ~n ()] builds the grid with spectral
    (default) or 4th-order central-difference differentiation. *)
val make : ?differentiation:[ `Spectral | `Fd4 ] -> n1:int -> n:int -> unit -> t

(** [unpack grid ?off y] copies the [n1] states of the slice starting
    at [y.(off)] (default [0]). *)
val unpack : t -> ?off:int -> Vec.t -> Vec.t array

(** [pack grid ?omega states] flattens one slice, appending [omega]
    when given. *)
val pack : t -> ?omega:float -> Vec.t array -> Vec.t

(** [derivative_row grid ~component] is the phase row
    [d x_component / d t1 (t1 = 0)]. *)
val derivative_row : t -> component:int -> Vec.t

(** [spatial dae grid ~alpha ?time ?forcing states] is [g] above for
    the given states; [time j] (default [0]) is the time argument of
    [f] at point [j], [forcing j] (default none) is [b_j]. *)
val spatial :
  Dae.t ->
  t ->
  alpha:float ->
  ?time:(int -> float) ->
  ?forcing:(int -> Vec.t) ->
  Vec.t array ->
  Vec.t

(** {1 Systems} *)

(** The coefficient of [D Q]: fixed, or the trailing unknown pinned by
    the given phase row. *)
type omega = Fixed of float | Free of Vec.t

type step =
  | Steady  (** [r = g] *)
  | Theta of { h : float; theta : float; q0 : Vec.t array; g0 : Vec.t }
      (** [r = Q - q0 + h theta g + h (1 - theta) g0] *)

type slice

(** [slice ?time ?forcing ?step omega] describes one slice; [time] and
    [forcing] are as in {!spatial}, [step] defaults to [Steady]. *)
val slice : ?time:(int -> float) -> ?forcing:(int -> Vec.t) -> ?step:step -> omega -> slice

type system

(** [system ?slow dae grid slices] stacks the slices, all bordered or
    all unbordered.  [slow = (d2, p2)] couples them by the slow
    derivative [(1 / p2) (d2 Q)]; [d2] is [n2 x n2].  A system carries
    evaluation scratch: use it from one domain at a time. *)
val system : ?slow:Mat.t * float -> Dae.t -> t -> slice array -> system

(** Number of unknowns of the system. *)
val dim : system -> int

(** [residual_into sys y dst] writes the residual at [y] into [dst]. *)
val residual_into : system -> Vec.t -> Vec.t -> unit

val residual : system -> Vec.t -> Vec.t

(** {1 Linearisation} *)

type lin

(** [linearise sys y] evaluates [C], [G] and the border columns at [y]
    and builds one {!Structured.op} per slice. *)
val linearise : system -> Vec.t -> lin

(** The Jacobian as a dense matrix: {!Structured.to_dense} of each
    slice plus its border, and the slow coupling. *)
val dense : lin -> Mat.t

(** [jacobian sys y] is [dense (linearise sys y)]. *)
val jacobian : system -> Vec.t -> Mat.t

(** [apply_into lin v out] writes [J v] into [out] matrix-free ([out]
    must not alias [v]). *)
val apply_into : lin -> Vec.t -> Vec.t -> unit

(** [krylov ?cache_key ?restart ?max_iter ~tol lin r] solves [J x = r]
    by GMRES (default [restart] 60), preconditioned block-diagonally by
    each slice's FFT-diagonalized averaged-block inverse
    ({!Structured.make_precond}, or {!Structured.make_precond_cached}
    under [cache_key], which all slices share, so pass it for
    single-slice systems only), bordered by the exact Schur complement
    where the frequency is free; the slow coupling is left to GMRES.
    A degenerate border is retried once with [~gmin:1e-9], counted as
    [gmres.precond.gmin_retries].  [None] when the preconditioner
    degenerates or GMRES does not converge, counted as
    [gmres.precond.fallbacks]: the caller falls back to {!dense}. *)
val krylov :
  ?cache_key:string -> ?restart:int -> ?max_iter:int -> tol:float -> lin -> Vec.t -> Vec.t option

(** [interp_stack ~t2s ~slices ~period ~component ~t1 t2] evaluates a
    stack of slices at [(t1, t2)]: trigonometric interpolation of
    [component] along [t1] (period [period]), linear along [t2]
    between the neighbouring slices [t2s], clamped outside them. *)
val interp_stack :
  t2s:Vec.t ->
  slices:Vec.t array array ->
  period:float ->
  component:int ->
  t1:float ->
  float ->
  float
