(** The seam between the physics loop and the outside world: ghost
    consistency, current folding, particle migration and reductions.
    A [local] coupler serves single-rank runs (boundary conditions applied
    in place); a [parallel] coupler routes [Domain] faces through the
    message-passing runtime.  The simulation loop is identical either
    way. *)

module Sf = Vpic_grid.Scalar_field
module Bc = Vpic_grid.Bc
module Em_field = Vpic_field.Em_field
module Species = Vpic_particle.Species

type t = {
  bc : Bc.t;
  fill_em : Em_field.t -> unit;      (** all six EM component ghosts *)
  fill_em_begin : Em_field.t -> unit;
      (** first half of [fill_em]: posts the x-axis ghost planes and
          returns with them in flight — overlap the interior push here *)
  fill_em_finish : Em_field.t -> unit;
      (** completes a [fill_em_begin] (same field) *)
  fill_e : Em_field.t -> unit;       (** E-component ghosts only *)
  fill_scalar : Sf.t -> unit;        (** ghosts of a node scalar *)
  fill_list : Sf.t list -> unit;     (** ghosts of several scalars (batched) *)
  fold_currents : Em_field.t -> unit;
  fold_rho : Em_field.t -> unit;
  migrate :
    ?accum:Vpic_particle.Accumulator.t ->
    Species.t ->
    Em_field.t ->
    Vpic_particle.Push.Movers.t ->
    unit;
      (** ship movers (packed payload), finish their moves (depositing
          the remaining current into [accum]); collective; asserts no
          movers when serial.  [accum] is required: the label is
          optional only so existing callers compile, and omitting it
          raises [Invalid_argument]. *)
  reduce_sum : float -> float;
  reduce_max : float -> float;
  barrier : unit -> unit;
  comm_bytes : unit -> float;
      (** cumulative payload bytes this rank has posted (0 when serial) *)
  migrate_rng : Vpic_util.Rng.t option;
      (** the refluxing re-emission stream used while finishing migrated
          movers ([None] when serial — serial refluxing goes through the
          simulation's own stream).  Exposed so checkpoints can save and
          restore its state: the closures above capture the same handle. *)
  rank : int;
  nranks : int;
}

(** Single-rank coupler for the given boundary conditions. *)
val local : Bc.t -> t

(** Multi-rank coupler; [bc] must come from [Decomp.local_bc] and [grid]
    is the rank-local grid (the persistent port buffers are sized from
    it).  Collective: every rank must construct its coupler in the same
    order. *)
val parallel : Vpic_parallel.Comm.t -> Bc.t -> grid:Vpic_grid.Grid.t -> t

(** Marder hooks wired through a coupler. *)
val marder_hooks : t -> Em_field.t -> Vpic_field.Marder.hooks
