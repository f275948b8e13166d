module Grid = Vpic_grid.Grid
module Sf = Vpic_grid.Scalar_field

(* Trilinear sum of the 8 voxels at base [v] with axis strides 1, gx, gxy
   and fractional weights (tx,ty,tz). *)
let tri (a : Sf.data) v gx gxy tx ty tz =
  let open Bigarray.Array1 in
  let sx0 = 1. -. tx and sy0 = 1. -. ty and sz0 = 1. -. tz in
  let c00 = (sx0 *. unsafe_get a v) +. (tx *. unsafe_get a (v + 1)) in
  let c10 =
    (sx0 *. unsafe_get a (v + gx)) +. (tx *. unsafe_get a (v + gx + 1))
  in
  let c01 =
    (sx0 *. unsafe_get a (v + gxy)) +. (tx *. unsafe_get a (v + gxy + 1))
  in
  let c11 =
    (sx0 *. unsafe_get a (v + gxy + gx))
    +. (tx *. unsafe_get a (v + gxy + gx + 1))
  in
  (sz0 *. ((sy0 *. c00) +. (ty *. c10))) +. (tz *. ((sy0 *. c01) +. (ty *. c11)))

(* Staggered axes sample at half-integer positions: shift the base cell
   down when the particle sits in the lower half of its cell. *)

let gather_into f ~i ~j ~k ~fx ~fy ~fz ~out =
  let g = f.Vpic_field.Em_field.grid in
  let gx = g.Grid.gx in
  let gxy = g.Grid.gx * g.Grid.gy in
  let v = Grid.voxel g i j k in
  let dxs = if fx >= 0.5 then 0 else -1 in
  let txs = if fx >= 0.5 then fx -. 0.5 else fx +. 0.5 in
  let dys = if fy >= 0.5 then 0 else -1 in
  let tys = if fy >= 0.5 then fy -. 0.5 else fy +. 0.5 in
  let dzs = if fz >= 0.5 then 0 else -1 in
  let tzs = if fz >= 0.5 then fz -. 0.5 else fz +. 0.5 in
  let oy = gx * dys and oz = gxy * dzs in
  (* ex: staggered x *)
  out.(0) <- tri (Sf.data f.Vpic_field.Em_field.ex) (v + dxs) gx gxy txs fy fz;
  (* ey: staggered y *)
  out.(1) <- tri (Sf.data f.Vpic_field.Em_field.ey) (v + oy) gx gxy fx tys fz;
  (* ez: staggered z *)
  out.(2) <- tri (Sf.data f.Vpic_field.Em_field.ez) (v + oz) gx gxy fx fy tzs;
  (* bx: staggered y,z *)
  out.(3) <- tri (Sf.data f.Vpic_field.Em_field.bx) (v + oy + oz) gx gxy fx tys tzs;
  (* by: staggered x,z *)
  out.(4) <- tri (Sf.data f.Vpic_field.Em_field.by) (v + dxs + oz) gx gxy txs fy tzs;
  (* bz: staggered x,y *)
  out.(5) <- tri (Sf.data f.Vpic_field.Em_field.bz) (v + dxs + oy) gx gxy txs tys fz

let gather f ~i ~j ~k ~fx ~fy ~fz =
  let out = Array.make 6 0. in
  gather_into f ~i ~j ~k ~fx ~fy ~fz ~out;
  (out.(0), out.(1), out.(2), out.(3), out.(4), out.(5))

let deposit_segment f ~i ~j ~k ~x1 ~y1 ~z1 ~x2 ~y2 ~z2 ~cx ~cy ~cz =
  let g = f.Vpic_field.Em_field.grid in
  let gx = g.Grid.gx in
  let gxy = g.Grid.gx * g.Grid.gy in
  let v = Grid.voxel g i j k in
  let jx = Sf.data f.Vpic_field.Em_field.jx
  and jy = Sf.data f.Vpic_field.Em_field.jy
  and jz = Sf.data f.Vpic_field.Em_field.jz in
  let open Bigarray.Array1 in
  let dx = x2 -. x1 and dy = y2 -. y1 and dz = z2 -. z1 in
  let xb = 0.5 *. (x1 +. x2) in
  let yb = 0.5 *. (y1 +. y2) in
  let zb = 0.5 *. (z1 +. z2) in
  let add (a : Sf.data) idx v' = set a idx (get a idx +. v') in
  (* Jx: transverse (y,z) *)
  let qx = cx *. dx in
  let corr = dy *. dz /. 12. in
  add jx v (qx *. (((1. -. yb) *. (1. -. zb)) +. corr));
  add jx (v + gx) (qx *. ((yb *. (1. -. zb)) -. corr));
  add jx (v + gxy) (qx *. (((1. -. yb) *. zb) -. corr));
  add jx (v + gx + gxy) (qx *. ((yb *. zb) +. corr));
  (* Jy: transverse (z,x) *)
  let qy = cy *. dy in
  let corr = dz *. dx /. 12. in
  add jy v (qy *. (((1. -. zb) *. (1. -. xb)) +. corr));
  add jy (v + gxy) (qy *. ((zb *. (1. -. xb)) -. corr));
  add jy (v + 1) (qy *. (((1. -. zb) *. xb) -. corr));
  add jy (v + gxy + 1) (qy *. ((zb *. xb) +. corr));
  (* Jz: transverse (x,y) *)
  let qz = cz *. dz in
  let corr = dx *. dy /. 12. in
  add jz v (qz *. (((1. -. xb) *. (1. -. yb)) +. corr));
  add jz (v + 1) (qz *. ((xb *. (1. -. yb)) -. corr));
  add jz (v + gx) (qz *. (((1. -. xb) *. yb) -. corr));
  add jz (v + gx + 1) (qz *. ((xb *. yb) +. corr))
