open Helpers
module Simulation = Vpic.Simulation
module Coupler = Vpic.Coupler
module Checkpoint = Vpic.Checkpoint

(* --- Size accounting: the PR's 80 -> 32 bytes/particle claim ------------ *)

let test_store_is_32_bytes () =
  Alcotest.(check int) "7 x f32 + 1 x i32" 32 Store.bytes_per_particle;
  let st = Store.create ~capacity:1000 () in
  Alcotest.(check int) "footprint = cap * 32" (1000 * 32)
    (Store.footprint_bytes st);
  (* the layout this store replaced: 3 x int (boxed-word cell triple) +
     7 x float64 = 80 bytes/particle *)
  let old_bytes = (3 * 8) + (7 * 8) in
  Alcotest.(check int) "old layout was 80 B" 80 old_bytes;
  check_true "more than halved" (2 * Store.bytes_per_particle < old_bytes)

let test_store_grows_and_accounts () =
  let st = Store.create ~capacity:4 () in
  for n = 0 to 99 do
    Store.append st ~voxel:n ~fx:0.5 ~fy:0.5 ~fz:0.5 ~ux:0.1 ~uy:0. ~uz:0.
      ~w:1.
  done;
  Alcotest.(check int) "count" 100 (Store.count st);
  check_true "footprint tracks doubling"
    (Store.footprint_bytes st >= 100 * 32
    && Store.footprint_bytes st <= 2 * 100 * 32)

let test_store_rounds_and_clamps () =
  let st = Store.create () in
  (* 0.1 is not representable in f32; 0.5 is *)
  Store.append st ~voxel:7 ~fx:0.1 ~fy:0.5 ~fz:(1. -. 1e-12) ~ux:0.1 ~uy:0.25
    ~uz:(-3.) ~w:1.5;
  let open Bigarray.Array1 in
  check_close ~rtol:1e-7 "fx close to 0.1" 0.1 (get st.Store.fx 0);
  check_true "fx rounded to f32" (get st.Store.fx 0 <> 0.1);
  check_close ~atol:0. ~rtol:0. "exact f32 survives" 0.5 (get st.Store.fy 0);
  (* 1 - 1e-12 rounds to 1.0f32: the clamp must keep offsets < 1 *)
  check_close ~atol:0. ~rtol:0. "offset clamped below 1" Store.f32_pred_one
    (get st.Store.fz 0);
  check_true "pred-one is strictly below 1" (Store.f32_pred_one < 1.);
  check_close ~atol:0. ~rtol:0. "u rounds once" (Store.round32 0.1)
    (get st.Store.ux 0);
  Alcotest.(check int32) "voxel stored" 7l (get st.Store.voxel 0)

(* --- Checkpoint: bit-exact Float32 round-trip --------------------------- *)

let test_checkpoint_store_bitexact () =
  let path = Filename.temp_file "vpic_store" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let g = small_grid ~n:6 ~l:3. () in
      let sim =
        Simulation.make ~grid:g ~coupler:(Coupler.local Bc.periodic)
          ~clean_div_interval:5 ()
      in
      let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
      ignore (Loader.maxwellian (Rng.of_int 21) e ~ppc:12 ~uth:0.1 ());
      (* a few steps so offsets/momenta carry full f32 mantissas *)
      Simulation.run sim ~steps:7 ();
      Checkpoint.save sim path;
      let restored =
        Checkpoint.load ~coupler:(Coupler.local Bc.periodic) path
      in
      let e' = Simulation.find_species restored "electron" in
      Alcotest.(check int) "count" (Species.count e) (Species.count e');
      let a = e.Species.store and b = e'.Species.store in
      let open Bigarray.Array1 in
      for n = 0 to Species.count e - 1 do
        if get a.Store.voxel n <> get b.Store.voxel n then
          Alcotest.failf "voxel[%d] differs" n;
        List.iter
          (fun (name, (x : Store.f32), (y : Store.f32)) ->
            (* f32 -> f64 widening is injective: float equality here is
               bit-equality of the stored Float32 words *)
            if get x n <> get y n then
              Alcotest.failf "%s[%d] not bit-exact: %h vs %h" name n
                (get x n) (get y n))
          [ ("fx", a.Store.fx, b.Store.fx);
            ("fy", a.Store.fy, b.Store.fy);
            ("fz", a.Store.fz, b.Store.fz);
            ("ux", a.Store.ux, b.Store.ux);
            ("uy", a.Store.uy, b.Store.uy);
            ("uz", a.Store.uz, b.Store.uz);
            ("w", a.Store.w, b.Store.w) ]
      done)

(* --- f32 storage vs f64 storage: push divergence bound ------------------ *)

let test_f32_vs_f64_push_divergence () =
  (* Two counter-streaming beams in a frozen seeded wave field, advanced
     100 steps twice: once through the f32 store (the real kernels), once
     through an f64 shadow running the identical gather/Boris/streaming
     arithmetic on float64 arrays.  Both see the same (frozen) fields
     through the same interpolator coefficients, so the trajectories
     differ only by the per-step f32 storage rounding.

     Documented bound: after 100 steps the worst particle diverges by
     less than 1e-3 cell widths in position and 1e-4 in momentum (u0 =
     0.1).  Single-step rounding is ~6e-8 of a cell; 100 steps of
     accumulation plus field-gradient coupling stay orders of magnitude
     below the bound. *)
  let u0 = 0.1 in
  let nx = 32 in
  let lx = 2. *. Float.pi in
  let dx = lx /. float_of_int nx in
  let dt = Grid.courant_dt ~dx ~dy:0.5 ~dz:0.5 () in
  let g = Grid.make ~nx ~ny:2 ~nz:2 ~lx ~ly:1. ~lz:1. ~dt () in
  let f = Em_field.create g in
  Sf.set_all f.Em_field.ex (fun i _ _ ->
      1e-3 *. sin ((float_of_int (i - 1) +. 0.5) *. dx));
  Boundary.fill_em Bc.periodic f;
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  ignore (Loader.two_stream (Rng.of_int 9) s ~ppc:16 ~u0 ~uth:1e-3 ());
  let np = Species.count s in
  (* f64 shadow of the whole population, seeded from the store so both
     start from identical (f32-rounded) values *)
  let ci = Array.make np 0 and cj = Array.make np 0 and ck = Array.make np 0 in
  let fx = Array.make np 0. and fy = Array.make np 0. and fz = Array.make np 0. in
  let ux = Array.make np 0. and uy = Array.make np 0. and uz = Array.make np 0. in
  Species.iter s (fun n ->
      let p = Species.get s n in
      ci.(n) <- p.Particle.i;
      cj.(n) <- p.Particle.j;
      ck.(n) <- p.Particle.k;
      fx.(n) <- p.Particle.fx;
      fy.(n) <- p.Particle.fy;
      fz.(n) <- p.Particle.fz;
      ux.(n) <- p.Particle.ux;
      uy.(n) <- p.Particle.uy;
      uz.(n) <- p.Particle.uz);
  let qdt_2m = 0.5 *. (-1.) *. dt /. 1. in
  let ip = Interpolator.create g in
  Interpolator.load ip f;
  let out = Array.make 6 0. in
  let u = Array.make 3 0. in
  let wrap frac cell ncell =
    (* displacement < 1 cell per axis under CFL *)
    if frac >= 1. then (frac -. 1., if cell = ncell then 1 else cell + 1)
    else if frac < 0. then (frac +. 1., if cell = 1 then ncell else cell - 1)
    else (frac, cell)
  in
  let shadow_step () =
    for n = 0 to np - 1 do
      Interpolator.gather_into ip
        ~voxel:(Grid.voxel g ci.(n) cj.(n) ck.(n))
        ~fx:fx.(n) ~fy:fy.(n) ~fz:fz.(n) ~out;
      u.(0) <- ux.(n);
      u.(1) <- uy.(n);
      u.(2) <- uz.(n);
      Push.boris ~u ~ex:out.(0) ~ey:out.(1) ~ez:out.(2) ~bx:out.(3)
        ~by:out.(4) ~bz:out.(5) ~qdt_2m;
      let inv_gamma =
        1.
        /. sqrt
             (1. +. (u.(0) *. u.(0)) +. (u.(1) *. u.(1)) +. (u.(2) *. u.(2)))
      in
      let x, i = wrap (fx.(n) +. (u.(0) *. inv_gamma *. dt /. g.Grid.dx)) ci.(n) g.Grid.nx in
      let y, j = wrap (fy.(n) +. (u.(1) *. inv_gamma *. dt /. g.Grid.dy)) cj.(n) g.Grid.ny in
      let z, k = wrap (fz.(n) +. (u.(2) *. inv_gamma *. dt /. g.Grid.dz)) ck.(n) g.Grid.nz in
      fx.(n) <- x; fy.(n) <- y; fz.(n) <- z;
      ci.(n) <- i; cj.(n) <- j; ck.(n) <- k;
      ux.(n) <- u.(0); uy.(n) <- u.(1); uz.(n) <- u.(2)
    done
  in
  for _ = 1 to 100 do
    shadow_step ();
    ignore (push s f Bc.periodic)
  done;
  let worst_x = ref 0. and worst_u = ref 0. in
  let fnx = float_of_int nx in
  Species.iter s (fun n ->
      let p = Species.get s n in
      (* global x in cell units, compared modulo the periodic box *)
      let xa = float_of_int (p.Particle.i - 1) +. p.Particle.fx in
      let xb = float_of_int (ci.(n) - 1) +. fx.(n) in
      let d = Float.abs (xa -. xb) in
      let d = Float.min d (fnx -. d) in
      worst_x := Float.max !worst_x d;
      worst_u := Float.max !worst_u (Float.abs (p.Particle.ux -. ux.(n))));
  check_true
    (Printf.sprintf "position divergence %.3e < 1e-3 cells" !worst_x)
    (!worst_x < 1e-3);
  check_true
    (Printf.sprintf "momentum divergence %.3e < 1e-4" !worst_u)
    (!worst_u < 1e-4);
  check_true "f32 rounding is actually exercised" (!worst_x > 0.)

let suite =
  [ case "store: 32 bytes per particle (was 80)" test_store_is_32_bytes;
    case "store: growth keeps accounting" test_store_grows_and_accounts;
    case "store: f32 rounding and offset clamp" test_store_rounds_and_clamps;
    case "store: checkpoint round-trip bit-exact" test_checkpoint_store_bitexact;
    slow_case "store: f32 vs f64 push divergence bounded"
      test_f32_vs_f64_push_divergence ]
