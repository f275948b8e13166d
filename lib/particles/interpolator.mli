(** VPIC's per-voxel interpolator array: 18 Float32 field-expansion
    coefficients per voxel in one flat Bigarray, rebuilt from the mesh
    each step so the particle gather reads a single contiguous 72-byte
    block per occupied voxel (run-cached across a sorted population)
    instead of 24 strided loads from six {!Vpic_grid.Scalar_field}s.

    The expansion is the published VPIC scheme: each Yee component is
    bilinear in its transverse axes and held at the staggered midpoint
    along its own axis.  It coincides with the textbook staggered
    trilinear gather (the test suite's oracle) evaluated at the staggered
    midpoints (fx = 1/2 for ex, (fy,fz) = 1/2 for bx, ...) — the
    equivalence the test suite pins — and differs from it off-midpoint
    by dropping the piecewise half-cell break, which is what lets a
    voxel's fields collapse into one block.

    A voxel's entry reads only its own and hi-side neighbour mesh values,
    so all interior voxels except the hi faces (i = nx, j = ny, k = nz)
    can be loaded before the ghost fill lands: [load_interior] +
    [load_boundary] bracket the split push the way
    [Vpic_core.Simulation.step] brackets the interior/boundary particle
    passes. *)

type t

val coeffs_per_voxel : int
(** 18 *)

val bytes_per_voxel : float
(** 72 (f32 coefficients; VPIC pads to 80 for SPE DMA alignment) *)

val flops_per_gather : float
(** per-particle evaluation cost, for the perf ledger *)

val flops_per_voxel_load : float

val create : Vpic_grid.Grid.t -> t
val grid : t -> Vpic_grid.Grid.t

val data : t -> Store.f32
(** the flat coefficient array, [coeffs_per_voxel] per voxel *)

(** [load t f] rebuilds the coefficients of every interior voxel from
    [f]'s E and B meshes (which must have valid hi-side ghosts).
    [pool] tiles the load over the box's (j,k) voxel rows; coefficients
    are a per-voxel pure function of the meshes, so tiling never
    changes the result. *)
val load :
  ?perf:Vpic_util.Perf.counters ->
  ?pool:Vpic_util.Pool.t ->
  t ->
  Vpic_field.Em_field.t ->
  unit

(** [load_interior] covers the voxels whose stencil stays off the ghost
    layer (valid while the ghost fill is still in flight);
    [load_boundary] the remaining hi-face slabs (requires the fill to
    have landed).  Together they equal [load]. *)
val load_interior :
  ?perf:Vpic_util.Perf.counters ->
  ?pool:Vpic_util.Pool.t ->
  t ->
  Vpic_field.Em_field.t ->
  unit

val load_boundary :
  ?perf:Vpic_util.Perf.counters -> t -> Vpic_field.Em_field.t -> unit

(** [gather_into t ~voxel ~fx ~fy ~fz ~out] evaluates the expansion at
    in-cell offsets (fx,fy,fz), writing ex,ey,ez,bx,by,bz into
    [out.(0..5)].  Matches the inlined fast path in {!Push.advance}
    bit-for-bit. *)
val gather_into :
  t -> voxel:int -> fx:float -> fy:float -> fz:float -> out:float array -> unit
