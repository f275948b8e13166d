(** Direct strided field access — the test oracle for the production
    {!Vpic_particle.Interpolator} gather and {!Vpic_particle.Accumulator}
    scatter: the textbook forms the per-voxel blocks are checked
    against.

    Gather: staggered (Yee-aware) trilinear interpolation of E and B to a
    particle position.  Requires all EM ghosts valid (both sides).
    Slots of [out] after {!gather_into}: ex ey ez bx by bz. *)

(** [gather_into f ~i ~j ~k ~fx ~fy ~fz ~out] writes the six interpolated
    components into [out] (length >= 6) without allocating. *)
val gather_into :
  Vpic_field.Em_field.t ->
  i:int -> j:int -> k:int ->
  fx:float -> fy:float -> fz:float ->
  out:float array ->
  unit

(** Allocating convenience wrapper. *)
val gather :
  Vpic_field.Em_field.t ->
  i:int -> j:int -> k:int ->
  fx:float -> fy:float -> fz:float ->
  float * float * float * float * float * float

(** [deposit_segment f ~i ~j ~k ~x1 ~y1 ~z1 ~x2 ~y2 ~z2 ~cx ~cy ~cz]
    scatters one straight in-cell segment (coordinates in [0,1]) of a
    particle with per-axis current coefficients (cx,cy,cz) straight into
    [f]'s J meshes — the Villasenor–Buneman stencil that accumulator
    slot q of voxel (i,j,k) is folded onto by
    {!Vpic_particle.Accumulator.unload}. *)
val deposit_segment :
  Vpic_field.Em_field.t ->
  i:int -> j:int -> k:int ->
  x1:float -> y1:float -> z1:float ->
  x2:float -> y2:float -> z2:float ->
  cx:float -> cy:float -> cz:float ->
  unit
