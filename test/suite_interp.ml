open Helpers
module Interpolator = Vpic_particle.Interpolator
module Accumulator = Vpic_particle.Accumulator
module Sort = Vpic_particle.Sort
module Decomp = Vpic_grid.Decomp
module Simulation = Vpic.Simulation
module Coupler = Vpic.Coupler

(* A small periodic grid with smooth-ish random fields and valid ghosts. *)
let random_field ?(seed = 7) g =
  let f = Em_field.create g in
  let rng = Rng.of_int seed in
  List.iter
    (fun sf -> Sf.map_inplace sf (fun _ -> 0.1 *. (Rng.uniform rng -. 0.5)))
    (Em_field.em_components f);
  Boundary.fill_em Bc.periodic f;
  f

(* --- Interpolator: the published VPIC expansion ------------------------- *)

(* The interpolator holds each component at the staggered midpoint along
   its own axis and bilinear in the transverse axes, so it must coincide
   with the direct staggered gather exactly at those midpoints (the
   coefficients are a polynomial rearrangement of the same mesh values,
   rounded once to f32). *)
let test_gather_matches_direct_at_midpoints () =
  let g = small_grid ~n:6 ~l:3. () in
  let f = random_field g in
  let ip = Interpolator.create g in
  Interpolator.load ip f;
  let rng = Rng.of_int 99 in
  let out_i = Array.make 6 0. and out_d = Array.make 6 0. in
  for _ = 1 to 500 do
    let i = 1 + Rng.int rng g.Grid.nx
    and j = 1 + Rng.int rng g.Grid.ny
    and k = 1 + Rng.int rng g.Grid.nz in
    let fx = Rng.uniform rng
    and fy = Rng.uniform rng
    and fz = Rng.uniform rng in
    let v = Grid.voxel g i j k in
    Interpolator.gather_into ip ~voxel:v ~fx ~fy ~fz ~out:out_i;
    (* each component's own axis pinned to the staggered midpoint *)
    let direct ~fx ~fy ~fz q =
      Interp.gather_into f ~i ~j ~k ~fx ~fy ~fz ~out:out_d;
      out_d.(q)
    in
    check_close ~atol:1e-5 "ex" (direct ~fx:0.5 ~fy ~fz 0) out_i.(0);
    check_close ~atol:1e-5 "ey" (direct ~fx ~fy:0.5 ~fz 1) out_i.(1);
    check_close ~atol:1e-5 "ez" (direct ~fx ~fy ~fz:0.5 2) out_i.(2);
    check_close ~atol:1e-5 "bx" (direct ~fx ~fy:0.5 ~fz:0.5 3) out_i.(3);
    check_close ~atol:1e-5 "by" (direct ~fx:0.5 ~fy ~fz:0.5 4) out_i.(4);
    check_close ~atol:1e-5 "bz" (direct ~fx:0.5 ~fy:0.5 ~fz 5) out_i.(5)
  done

(* load_interior + load_boundary must tile the interior exactly like one
   full load: same coefficients, each voxel written once. *)
let test_load_split_equals_full () =
  let g = small_grid ~n:5 ~l:2.5 () in
  let f = random_field ~seed:11 g in
  let full = Interpolator.create g in
  Interpolator.load full f;
  let split = Interpolator.create g in
  Interpolator.load_interior split f;
  Interpolator.load_boundary split f;
  let a = Interpolator.data full and b = Interpolator.data split in
  let open Bigarray.Array1 in
  Alcotest.(check int) "same size" (dim a) (dim b);
  for q = 0 to dim a - 1 do
    if get a q <> get b q then
      Alcotest.failf "coefficient %d differs: %g vs %g" q (get a q) (get b q)
  done

(* --- Accumulator: block scatter vs direct mesh deposit ------------------ *)

let load_particles s ~ppc ~seed =
  let g = s.Species.grid in
  let rng = Rng.of_int seed in
  Grid.iter_interior g (fun i j k ->
      for _ = 1 to ppc do
        Species.append s
          { i; j; k;
            fx = Rng.uniform rng;
            fy = Rng.uniform rng;
            fz = Rng.uniform rng;
            ux = 0.2 *. Rng.normal rng;
            uy = 0.2 *. Rng.normal rng;
            uz = 0.2 *. Rng.normal rng;
            w = 1. /. float_of_int ppc }
      done)

(* The accumulator's slot -> mesh fold must land every segment where
   the direct Villasenor-Buneman stencil puts it.  Particles start in the
   middle third of their cells and move well under a third of a cell, so
   each deposits exactly one segment, from its stored old position to
   its stored new one: the oracle replays those segments straight into
   the J meshes, and the two agree up to f64 addition order. *)
let test_accumulator_unload_matches_direct_deposit () =
  let g = small_grid ~n:6 ~l:3. () in
  let f = random_field ~seed:5 g in
  let s = Species.create ~name:"a" ~q:(-1.) ~m:1. g in
  let rng = Rng.of_int 17 in
  let mid () = (1. +. Rng.uniform rng) /. 3. in
  Grid.iter_interior g (fun i j k ->
      for _ = 1 to 6 do
        Species.append s
          { i; j; k;
            fx = mid ();
            fy = mid ();
            fz = mid ();
            ux = 0.05 *. Rng.normal rng;
            uy = 0.05 *. Rng.normal rng;
            uz = 0.05 *. Rng.normal rng;
            w = 1. /. 6. }
      done);
  let np = Species.count s in
  let before = Array.init np (Species.get s) in
  let interp = Interpolator.create g and ac = Accumulator.create g in
  Interpolator.load interp f;
  Em_field.clear_currents f;
  let st = Push.advance ~interp ~accum:ac s f Bc.periodic in
  Alcotest.(check int) "one segment per particle" np st.Push.segments;
  Accumulator.unload ac f;
  (* the oracle: each particle's segment, deposited directly *)
  let fo = Em_field.create g in
  let dt = g.Grid.dt in
  let kx = 1. /. g.Grid.dy *. (1. /. g.Grid.dz) /. dt
  and ky = 1. /. g.Grid.dz *. (1. /. g.Grid.dx) /. dt
  and kz = 1. /. g.Grid.dx *. (1. /. g.Grid.dy) /. dt in
  Array.iteri
    (fun n (p : Particle.t) ->
      let q = Species.get s n in
      Alcotest.(check (triple int int int))
        "no cell change" (p.i, p.j, p.k)
        (q.Particle.i, q.Particle.j, q.Particle.k);
      let qw = s.Species.q *. p.w in
      Interp.deposit_segment fo ~i:p.i ~j:p.j ~k:p.k ~x1:p.fx ~y1:p.fy
        ~z1:p.fz ~x2:q.Particle.fx ~y2:q.Particle.fy ~z2:q.Particle.fz
        ~cx:(qw *. kx) ~cy:(qw *. ky) ~cz:(qw *. kz))
    before;
  let open Bigarray.Array1 in
  List.iter2
    (fun (name, jo) ja ->
      let d_o = Sf.data jo and d_a = Sf.data ja in
      for q = 0 to dim d_o - 1 do
        if
          not
            (Vpic_util.Approx.close ~rtol:1e-12 ~atol:1e-13 (get d_o q)
               (get d_a q))
        then
          Alcotest.failf "%s[%d]: direct %g vs accumulator %g" name q
            (get d_o q) (get d_a q)
      done)
    [ ("jx", fo.Em_field.jx); ("jy", fo.Em_field.jy); ("jz", fo.Em_field.jz) ]
    [ f.Em_field.jx; f.Em_field.jy; f.Em_field.jz ];
  (* the accumulator is left clean for the next step *)
  let d = Accumulator.data ac in
  for q = 0 to dim d - 1 do
    if get d q <> 0. then Alcotest.failf "accumulator slot %d not zeroed" q
  done

(* Charge conservation through the full step loop on the interp/accum
   path: the Gauss residual must stay at the deposition-roundoff floor,
   exactly as the single-push conservation tests demand. *)
let test_interp_accum_charge_conservation () =
  let g = small_grid ~n:6 ~l:3. () in
  let sim =
    Simulation.make ~grid:g ~coupler:(Coupler.local Bc.periodic)
      ~clean_div_interval:0 ~sort_interval:4 ()
  in
  let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
  ignore (Loader.maxwellian (Rng.of_int 3) e ~ppc:16 ~uth:0.1 ());
  Simulation.settle_fields sim ~passes:40;
  let r0 = Simulation.gauss_residual sim in
  Simulation.run sim ~steps:12 ();
  let r1 = Simulation.gauss_residual sim in
  check_true
    (Printf.sprintf "gauss residual stays small (%.3g -> %.3g)" r0 r1)
    (r1 < Float.max 0.02 (2. *. r0))

(* The push's flop ledger charges the interpolator expansion per
   particle, whatever the kernel: the number the Report and the
   per-kernel Perf_model calibration compare against. *)
let test_push_ledger () =
  let g = small_grid ~n:6 ~l:3. () in
  let f = random_field ~seed:3 g in
  List.iter
    (fun kernel ->
      let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
      load_particles s ~ppc:4 ~seed:5;
      Sort.by_voxel s;
      let perf = Vpic_util.Perf.create () in
      let interp = Interpolator.create g and accum = Accumulator.create g in
      Interpolator.load interp f;
      let st = Push.advance ~perf ~kernel ~interp ~accum s f Bc.periodic in
      let adv = float_of_int st.Push.advanced in
      check_close "particle steps" adv perf.Vpic_util.Perf.particle_steps;
      check_close "flops"
        ((adv *. (Interpolator.flops_per_gather +. Push.flops_per_push))
        +. (float_of_int st.Push.segments *. Push.flops_per_segment))
        perf.Vpic_util.Perf.flops)
    [ Push.Scalar; Push.Block { width = 8 } ]

(* Every finished move deposits into an accumulator, so a coupler asked
   to migrate without one refuses up front. *)
let test_migrate_requires_accumulator () =
  let g = small_grid ~n:4 ~l:2. () in
  let f = Em_field.create g in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  let c = Coupler.local Bc.periodic in
  check_true "raises without ?accum"
    (match c.Coupler.migrate s f (Push.Movers.create ()) with
    | () -> false
    | exception Invalid_argument _ -> true);
  c.Coupler.migrate ~accum:(Accumulator.create g) s f (Push.Movers.create ())

(* --- Sort: zero-allocation double buffer + occupancy -------------------- *)

let test_sort_scratch_reused () =
  let g = small_grid ~n:5 ~l:2.5 () in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  load_particles s ~ppc:7 ~seed:31;
  let sum_w st np =
    let acc = ref 0. in
    for m = 0 to np - 1 do
      acc := !acc +. Bigarray.Array1.get st.Store.w m
    done;
    !acc
  in
  let np = Species.count s in
  let w0 = sum_w s.Species.store np in
  Sort.by_voxel s;
  check_true "sorted after first sort" (Sort.is_sorted s);
  let scratch1 =
    match s.Species.store.Store.sort_buf with
    | Some sc -> sc
    | None -> Alcotest.fail "no sort scratch retained"
  in
  (* shuffle the population out of order, then sort again: the scratch
     record must be the very same one (steady state allocates nothing) *)
  let f = random_field ~seed:2 g in
  for _ = 1 to 3 do
    ignore (push s f Bc.periodic)
  done;
  Sort.by_voxel s;
  Sort.by_voxel s;
  check_true "still sorted" (Sort.is_sorted s);
  let scratch2 =
    match s.Species.store.Store.sort_buf with
    | Some sc -> sc
    | None -> Alcotest.fail "scratch dropped"
  in
  check_true "same scratch record reused" (scratch1 == scratch2);
  Alcotest.(check int) "population preserved" np (Species.count s);
  check_close ~rtol:1e-12 "weights preserved" w0
    (sum_w s.Species.store (Species.count s));
  (* sorted order leaves only the gaps between occupied-voxel runs *)
  check_true "locality high after sort" (Sort.locality_score s > 0.9)

let test_occupancy () =
  let g = small_grid ~n:4 ~l:2. () in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  let put i n =
    for _ = 1 to n do
      Species.append s
        { i; j = 1; k = 1; fx = 0.5; fy = 0.5; fz = 0.5; ux = 0.; uy = 0.;
          uz = 0.; w = 1. }
    done
  in
  put 2 3;
  put 1 1;
  put 4 2;
  Sort.by_voxel s;
  let mx, mean = Sort.occupancy s in
  Alcotest.(check int) "max run" 3 mx;
  check_close "mean run" 2. mean;
  let empty = Species.create ~name:"z" ~q:1. ~m:1. g in
  let mx0, mean0 = Sort.occupancy empty in
  Alcotest.(check int) "empty max" 0 mx0;
  check_close "empty mean" 0. mean0

(* --- Movers: growth from a tiny capacity preserves content -------------- *)

let test_movers_growth () =
  (* 2-rank x-split bc (built without any comm: Decomp is pure), so the
     x faces are Domain and outbound particles become movers. *)
  let d =
    Decomp.make ~px:2 ~py:1 ~pz:1 ~gnx:8 ~gny:4 ~gnz:4 ~lx:4. ~ly:2. ~lz:2.
  in
  let dt = Grid.courant_dt ~dx:0.5 ~dy:0.5 ~dz:0.5 () in
  let g = Decomp.local_grid d ~dt ~rank:0 in
  let bc = Decomp.local_bc d ~global:Bc.periodic ~rank:0 in
  let f = Em_field.create g in
  Boundary.fill_em bc f;
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  let nout = 40 in
  for m = 1 to nout do
    (* all pressed against the hi-x face, headed out fast *)
    Species.append s
      { i = g.Grid.nx; j = 1 + (m mod g.Grid.ny); k = 2; fx = 0.95;
        fy = 0.5; fz = 0.5; ux = 5.; uy = 0.; uz = 0.;
        w = float_of_int m }
  done;
  let movers = Push.Movers.create ~capacity:1 () in
  let st = push ~movers s f bc in
  Alcotest.(check int) "all outbound" nout st.Push.outbound;
  Alcotest.(check int) "all buffered" nout (Push.Movers.count movers);
  (* growth from capacity 1 went through several doublings; every
     mover's payload must have survived them (weights are unique ids) *)
  let stride = Push.Movers.stride in
  let seen = Array.make (nout + 1) false in
  for m = 0 to nout - 1 do
    let w =
      int_of_float (Bigarray.Array1.get movers.Push.Movers.buf ((m * stride) + 9))
    in
    check_true "weight id in range" (w >= 1 && w <= nout);
    check_true "weight id unique" (not seen.(w));
    seen.(w) <- true;
    let gi =
      int_of_float (Bigarray.Array1.get movers.Push.Movers.buf (m * stride))
    in
    Alcotest.(check int) "stopped in hi-x ghost" (g.Grid.nx + 1) gi
  done

let suite =
  [ case "interpolator matches direct gather at staggered midpoints"
      test_gather_matches_direct_at_midpoints;
    case "split load equals full load" test_load_split_equals_full;
    case "accumulator unload matches direct deposit"
      test_accumulator_unload_matches_direct_deposit;
    case "charge conservation on the interp/accum path"
      test_interp_accum_charge_conservation;
    case "push ledger charges the interpolator gather" test_push_ledger;
    case "coupler migrate requires the accumulator"
      test_migrate_requires_accumulator;
    case "sort scratch is reused across sorts" test_sort_scratch_reused;
    case "occupancy max/mean" test_occupancy;
    case "movers grow from capacity 1 without losing payload"
      test_movers_growth ]
