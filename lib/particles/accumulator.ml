module Grid = Vpic_grid.Grid
module Sf = Vpic_grid.Scalar_field
module Perf = Vpic_util.Perf

(* VPIC's current accumulator: one flat block of 12 components per voxel
   — the 4 Jx + 4 Jy + 4 Jz targets of one Villasenor-Buneman segment —
   so the scatter of the particle walk lands in a single contiguous
   block, independent of the J-mesh stride, and is folded into
   Em_field.jx/jy/jz once per step by [unload].

   Per-voxel slot -> J-mesh target (the Villasenor-Buneman stencil of
   Push.deposit_segment_acc):

     jx: 0 -> v   1 -> v+gx   2 -> v+gxy   3 -> v+gx+gxy
     jy: 4 -> v   5 -> v+gxy  6 -> v+1     7 -> v+gxy+1
     jz: 8 -> v   9 -> v+1   10 -> v+gx   11 -> v+gx+1

   Slots are float64, so unload matches a direct mesh deposit of the
   same segments up to addition reordering.  Every walk segment originates in an interior cell (outbound particles stop
   at the face; finished movers re-enter interior), so only interior
   voxels ever hold charge and unload never indexes past the mesh even
   though the targets reach one hi-ghost out. *)

let slots_per_voxel = 12
let bytes_per_voxel = float_of_int (slots_per_voxel * 8)

type t = {
  grid : Grid.t;
  data : Sf.data; (* nv * 12, voxel-major, f64 *)
  mutable slabs : t array;
      (* private per-tile scatter targets of the team push, created on
         first [slab] request and reused; empty on slab views *)
}

let alloc grid =
  let data =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
      (grid.Grid.nv * slots_per_voxel)
  in
  Bigarray.Array1.fill data 0.;
  data

let create grid = { grid; data = alloc grid; slabs = [||] }
let grid t = t.grid
let data t = t.data
let clear t = Bigarray.Array1.fill t.data 0.

(* Each slab is itself an accumulator (same grid, its own slot array),
   so the push scatters into a slab through the unchanged [~accum]
   interface.  Slabs are views: they never have slabs of their own. *)
let slab t ~n ~tile =
  if n < 1 then invalid_arg "Accumulator.slab: n must be >= 1";
  if tile < 0 || tile >= n then invalid_arg "Accumulator.slab: tile out of range";
  if Array.length t.slabs <> n then
    t.slabs <- Array.init n (fun _ -> { grid = t.grid; data = alloc t.grid; slabs = [||] });
  t.slabs.(tile)

(* Fold the slabs into the base slot array and zero them.  The inner
   sum at every slot runs in ascending slab (= tile) order regardless
   of which lane handles the voxel range, so the reduction is bitwise
   invariant in the worker count — the determinism half of the private-
   slab scheme.  Voxel ranges are disjoint writes, so the fold itself
   parallelises freely. *)
let reduce ?(pool = Vpic_util.Pool.serial) ?(perf = Perf.global) t =
  let ns = Array.length t.slabs in
  if ns > 0 then begin
    let total = t.grid.Grid.nv * slots_per_voxel in
    let base = t.data in
    let open Bigarray.Array1 in
    pool.Vpic_util.Pool.run ~label:"accum.reduce" ~tiles:pool.Vpic_util.Pool.tiles
      (fun ~lane:_ ~tile ->
        let lo, hi = Vpic_util.Pool.split ~total ~tiles:pool.Vpic_util.Pool.tiles ~tile in
        for s = 0 to ns - 1 do
          let d = t.slabs.(s).data in
          for idx = lo to hi - 1 do
            let v = unsafe_get d idx in
            if v <> 0. then
              unsafe_set base idx (unsafe_get base idx +. v);
            unsafe_set d idx 0.
          done
        done);
    let nvox = float_of_int (Grid.interior_count t.grid) in
    Perf.add_flops perf (nvox *. float_of_int (slots_per_voxel * ns));
    Perf.add_bytes perf (nvox *. bytes_per_voxel *. float_of_int (2 * ns))
  end

(* Fold every interior voxel's block into the J meshes and zero it, so
   the accumulator is ready for the next step's deposits. *)
let unload ?(perf = Perf.global) t f =
  let g = t.grid in
  assert (g == f.Vpic_field.Em_field.grid);
  let gx = g.Grid.gx in
  let gxy = g.Grid.gx * g.Grid.gy in
  let jx = Sf.data f.Vpic_field.Em_field.jx
  and jy = Sf.data f.Vpic_field.Em_field.jy
  and jz = Sf.data f.Vpic_field.Em_field.jz in
  let a = t.data in
  let open Bigarray.Array1 in
  let add (m : Sf.data) idx v = unsafe_set m idx (unsafe_get m idx +. v) in
  for k = 1 to g.Grid.nz do
    for j = 1 to g.Grid.ny do
      let vrow = Grid.voxel g 1 j k in
      for i = 0 to g.Grid.nx - 1 do
        let v = vrow + i in
        let o = v * slots_per_voxel in
        add jx v (unsafe_get a o);
        add jx (v + gx) (unsafe_get a (o + 1));
        add jx (v + gxy) (unsafe_get a (o + 2));
        add jx (v + gx + gxy) (unsafe_get a (o + 3));
        add jy v (unsafe_get a (o + 4));
        add jy (v + gxy) (unsafe_get a (o + 5));
        add jy (v + 1) (unsafe_get a (o + 6));
        add jy (v + gxy + 1) (unsafe_get a (o + 7));
        add jz v (unsafe_get a (o + 8));
        add jz (v + 1) (unsafe_get a (o + 9));
        add jz (v + gx) (unsafe_get a (o + 10));
        add jz (v + gx + 1) (unsafe_get a (o + 11));
        for q = 0 to slots_per_voxel - 1 do
          unsafe_set a (o + q) 0.
        done
      done
    done
  done;
  let nvox = float_of_int (Grid.interior_count g) in
  Perf.add_flops perf (nvox *. float_of_int slots_per_voxel);
  (* per voxel: 12 slots read + cleared, 12 J targets read-modified *)
  Perf.add_bytes perf (nvox *. 4. *. bytes_per_voxel)
