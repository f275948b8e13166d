module Grid = Vpic_grid.Grid
module Sf = Vpic_grid.Scalar_field
module Perf = Vpic_util.Perf

(* VPIC's interpolator array: one flat block of 18 Float32 expansion
   coefficients per voxel, rebuilt from the mesh once per step so the
   particle gather is pure loads from a single contiguous block instead
   of 24 strided touches of six Scalar_fields.

   Per-voxel layout (block offset -> coefficient):

     0 ex       4 ey       8 ez       12 cbx    14 cby    16 cbz
     1 dexdy    5 deydz    9 dezdx    13 dcbxdx 15 dcbydy 17 dcbzdz
     2 dexdz    6 deydx   10 dezdy
     3 d2exdydz 7 d2eydzdx 11 d2ezdxdy

   evaluated at in-cell offsets (fx,fy,fz) as

     ex = c0 + fy c1 + fz (c2 + fy c3)        (bilinear in y,z)
     ey = c4 + fz c5 + fx (c6 + fz c7)        (bilinear in z,x)
     ez = c8 + fx c9 + fy (c10 + fx c11)      (bilinear in x,y)
     bx = c12 + fx c13                        (linear in x)
     by = c14 + fy c15                        (linear in y)
     bz = c16 + fz c17                        (linear in z)

   This is the published VPIC scheme (Bowers et al. 2008): each Yee
   component varies linearly along its transverse axes and is held at
   its staggered midpoint along its own axis — the first-order stagger
   correction.  It agrees exactly with the textbook staggered-trilinear
   gather (the test suite's oracle) evaluated at the staggered midpoints
   (fx=1/2 for ex, etc.); off the midpoints it drops the piecewise
   half-cell break the trilinear gather resolves, which is what lets the
   whole voxel collapse to one 72-byte block.

   Every stencil offset is non-negative ({0, +1, +gx, +gxy and sums}),
   so a voxel's entry only reads its own and hi-side neighbour mesh
   values: only hi-face interior voxels (i = nx, j = ny or k = nz)
   depend on the ghost fill, giving the two-phase load below. *)

let coeffs_per_voxel = 18
let bytes_per_voxel = float_of_int (coeffs_per_voxel * 4)

(* 3 x (3 mul + 3 add) for E, 3 x (1 mul + 1 add) for B. *)
let flops_per_gather = 24.

(* 6 subtractions per E component, 1 per B component, on load. *)
let flops_per_voxel_load = 15.

type t = {
  grid : Grid.t;
  data : Store.f32; (* nv * 18, voxel-major *)
}

let create grid =
  let data = Store.f32_create (grid.Grid.nv * coeffs_per_voxel) in
  (* Zero ghost-voxel entries deterministically: they are never loaded
     (only interior voxels are) and never evaluated, but runs may copy a
     skipped shell voxel's block into the register cache. *)
  Bigarray.Array1.fill data 0.;
  { grid; data }
let grid t = t.grid
let data t = t.data

(* Load the coefficients of the voxel box [i0,i1]x[j0,j1]x[k0,k1]
   (cell indices; empty ranges are fine).  With a multi-tile [pool] the
   (j,k) rows of the box split over worker lanes: a voxel's
   coefficients are a pure function of the (read-only) meshes and rows
   write disjoint blocks, so tiling changes nothing about the result. *)
let load_box ?(perf = Perf.global) ?(pool = Vpic_util.Pool.serial) t f ~i0 ~i1
    ~j0 ~j1 ~k0 ~k1 =
  let g = t.grid in
  assert (g == f.Vpic_field.Em_field.grid);
  let gx = g.Grid.gx in
  let gxy = g.Grid.gx * g.Grid.gy in
  let dex = Sf.data f.Vpic_field.Em_field.ex
  and dey = Sf.data f.Vpic_field.Em_field.ey
  and dez = Sf.data f.Vpic_field.Em_field.ez
  and dbx = Sf.data f.Vpic_field.Em_field.bx
  and dby = Sf.data f.Vpic_field.Em_field.by
  and dbz = Sf.data f.Vpic_field.Em_field.bz in
  let d = t.data in
  let open Bigarray.Array1 in
  let nj = max 0 (j1 - j0 + 1) and nk = max 0 (k1 - k0 + 1) in
  let rows = nj * nk in
  let iter_rows do_row =
    if pool.Vpic_util.Pool.tiles <= 1 then
      for r = 0 to rows - 1 do
        do_row r
      done
    else
      pool.Vpic_util.Pool.run ~label:"interp.load"
        ~tiles:pool.Vpic_util.Pool.tiles (fun ~lane:_ ~tile ->
          let lo, hi =
            Vpic_util.Pool.split ~total:rows
              ~tiles:pool.Vpic_util.Pool.tiles ~tile
          in
          for r = lo to hi - 1 do
            do_row r
          done)
  in
  iter_rows (fun r ->
      let k = k0 + (r / nj) and j = j0 + (r mod nj) in
      let vrow = Grid.voxel g i0 j k in
      for i = 0 to i1 - i0 do
        let v = vrow + i in
        let o = v * coeffs_per_voxel in
        (* ex: value + y/z slopes + cross term over {v, +gx, +gxy, +both} *)
        let a00 = unsafe_get dex v in
        let a10 = unsafe_get dex (v + gx) in
        let a01 = unsafe_get dex (v + gxy) in
        let a11 = unsafe_get dex (v + gx + gxy) in
        let c1 = a10 -. a00 in
        unsafe_set d o a00;
        unsafe_set d (o + 1) c1;
        unsafe_set d (o + 2) (a01 -. a00);
        unsafe_set d (o + 3) ((a11 -. a01) -. c1);
        (* ey: z then x over {v, +gxy, +1, +gxy+1} *)
        let a00 = unsafe_get dey v in
        let a10 = unsafe_get dey (v + gxy) in
        let a01 = unsafe_get dey (v + 1) in
        let a11 = unsafe_get dey (v + gxy + 1) in
        let c1 = a10 -. a00 in
        unsafe_set d (o + 4) a00;
        unsafe_set d (o + 5) c1;
        unsafe_set d (o + 6) (a01 -. a00);
        unsafe_set d (o + 7) ((a11 -. a01) -. c1);
        (* ez: x then y over {v, +1, +gx, +gx+1} *)
        let a00 = unsafe_get dez v in
        let a10 = unsafe_get dez (v + 1) in
        let a01 = unsafe_get dez (v + gx) in
        let a11 = unsafe_get dez (v + gx + 1) in
        let c1 = a10 -. a00 in
        unsafe_set d (o + 8) a00;
        unsafe_set d (o + 9) c1;
        unsafe_set d (o + 10) (a01 -. a00);
        unsafe_set d (o + 11) ((a11 -. a01) -. c1);
        (* B: value + slope along the component's own axis *)
        let b0 = unsafe_get dbx v in
        unsafe_set d (o + 12) b0;
        unsafe_set d (o + 13) (unsafe_get dbx (v + 1) -. b0);
        let b0 = unsafe_get dby v in
        unsafe_set d (o + 14) b0;
        unsafe_set d (o + 15) (unsafe_get dby (v + gx) -. b0);
        let b0 = unsafe_get dbz v in
        unsafe_set d (o + 16) b0;
        unsafe_set d (o + 17) (unsafe_get dbz (v + gxy) -. b0)
      done);
  let nvox =
    float_of_int
      (max 0 (i1 - i0 + 1) * max 0 (j1 - j0 + 1) * max 0 (k1 - k0 + 1))
  in
  Perf.add_flops perf (nvox *. flops_per_voxel_load);
  (* ~24 mesh doubles read + 72 B of coefficients written per voxel *)
  Perf.add_bytes perf (nvox *. ((24. *. 8.) +. bytes_per_voxel))

let load ?perf ?pool t f =
  let g = t.grid in
  load_box ?perf ?pool t f ~i0:1 ~i1:g.Grid.nx ~j0:1 ~j1:g.Grid.ny ~k0:1
    ~k1:g.Grid.nz

let load_interior ?perf ?pool t f =
  let g = t.grid in
  load_box ?perf ?pool t f ~i0:1 ~i1:(g.Grid.nx - 1) ~j0:1
    ~j1:(g.Grid.ny - 1) ~k0:1 ~k1:(g.Grid.nz - 1)

let load_boundary ?perf t f =
  let g = t.grid in
  let nx = g.Grid.nx and ny = g.Grid.ny and nz = g.Grid.nz in
  (* The three hi-face slabs, disjointly: k = nz; then j = ny below it;
     then i = nx in the remaining box. *)
  load_box ?perf t f ~i0:1 ~i1:nx ~j0:1 ~j1:ny ~k0:nz ~k1:nz;
  load_box ?perf t f ~i0:1 ~i1:nx ~j0:ny ~j1:ny ~k0:1 ~k1:(nz - 1);
  load_box ?perf t f ~i0:nx ~i1:nx ~j0:1 ~j1:(ny - 1) ~k0:1 ~k1:(nz - 1)

let gather_into t ~voxel ~fx ~fy ~fz ~out =
  let d = t.data in
  let o = voxel * coeffs_per_voxel in
  let open Bigarray.Array1 in
  let c q = unsafe_get d (o + q) in
  out.(0) <- c 0 +. (fy *. c 1) +. (fz *. (c 2 +. (fy *. c 3)));
  out.(1) <- c 4 +. (fz *. c 5) +. (fx *. (c 6 +. (fz *. c 7)));
  out.(2) <- c 8 +. (fx *. c 9) +. (fy *. (c 10 +. (fx *. c 11)));
  out.(3) <- c 12 +. (fx *. c 13);
  out.(4) <- c 14 +. (fy *. c 15);
  out.(5) <- c 16 +. (fz *. c 17)
