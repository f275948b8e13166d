(** Particle migration between ranks.

    After [Push.advance], particles that hit a [Domain] face have been
    turned into movers: stopped at the face (first ghost layer) with
    their unconsumed displacement, packed 13 Float32 values each in a
    [Push.Movers] buffer.  Migration proceeds axis by axis (x, then y,
    then z): movers in the axis ghost are copied into the migrate port's
    preallocated staging buffer (cell indices re-based to the receiver,
    whose local dimensions are identical) while the rest compact in
    place, and the receiver finishes their moves in the port's ring
    buffer — depositing the remaining current segments — which may
    re-emit movers toward a later axis, picked up by the next phase.
    The staging buffer is the packed mover array itself (no boxing, no
    per-message allocation).  Three phases suffice because a particle
    can cross each axis at most once per step (Courant bound); the same
    scheme VPIC uses.

    Must run {e before} the ghost-current fold (finished moves deposit
    into ghost slots of the receiving rank).  Every rank must call this
    collectively, even with no outbound movers.  The caller's buffer is
    consumed: it is empty when [exchange] returns. *)

(** = [Push.Movers.stride] (13): the wire stride per mover. *)
val floats_per_mover : int

type stats = {
  sent : int;
  received : int;
  settled : int;   (** finished and appended locally *)
  absorbed : int;  (** finished into an absorbing wall *)
}

(** [rng] is needed only when some face is [Refluxing].  [accum]
    receives the finished movers' remaining deposition (pass the
    accumulator the step's pushes used).  The boundary conditions and
    wire resources come from the [Exchange.t] ports. *)
val exchange :
  ?rng:Vpic_util.Rng.t ->
  accum:Vpic_particle.Accumulator.t ->
  Exchange.t ->
  Vpic_particle.Species.t ->
  Vpic_field.Em_field.t ->
  Vpic_particle.Push.Movers.t ->
  stats

(** {1 Block-routed migration}

    The over-decomposed analogue of {!exchange}: one species stepped on
    many blocks, with movers routed by the block ownership table.
    Movers bound for a co-resident block finish directly into it; the
    rest travel through the block-keyed migrate ports of
    {!Exchange.Blocks}. *)

(** One species' state on one owned block; [bc] faces carry neighbour
    {e block} ids. *)
type block_target = {
  id : int;
  bc : Vpic_grid.Bc.t;
  species : Vpic_particle.Species.t;
  fields : Vpic_field.Em_field.t;
  accum : Vpic_particle.Accumulator.t;
  rng : Vpic_util.Rng.t option;
  movers : Vpic_particle.Push.Movers.t;  (** pending buffer, consumed *)
}

(** [targets] is indexed by block id ([Some] = owned on this rank);
    [extent b axis] is block [b]'s interior cell count along [axis] (the
    rebasing offset — blocks differ under remainder-safe decomposition).
    Collective across ranks owning adjacent blocks. *)
val exchange_blocks :
  Exchange.Blocks.t ->
  targets:block_target option array ->
  extent:(int -> Vpic_grid.Axis.t -> int) ->
  stats
