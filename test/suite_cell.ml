open Helpers
module Roadrunner = Vpic_cell.Roadrunner
module Spe_pipeline = Vpic_cell.Spe_pipeline
module Perf_model = Vpic_cell.Perf_model

(* --- Machine description --------------------------------------------------- *)

let test_roadrunner_constants () =
  let m = Roadrunner.full in
  Alcotest.(check int) "nodes" 3060 m.Roadrunner.nodes;
  Alcotest.(check int) "cells" 12240 (Roadrunner.total_cells m);
  Alcotest.(check int) "spes" 97920 (Roadrunner.total_spes m);
  (* the paper's yardstick: ~2.5 Pflop/s single-precision on the Cells *)
  check_close ~rtol:0.01 "peak sp" 2.507e15 (Roadrunner.peak_sp_flops m);
  check_close ~rtol:0.01 "peak dp" 1.254e15 (Roadrunner.peak_dp_flops m);
  check_close "bw per spe" 3.2e9 (Roadrunner.bw_per_spe m)

let test_with_cus () =
  let m1 = Roadrunner.with_cus 1 in
  Alcotest.(check int) "one CU" 180 m1.Roadrunner.nodes;
  check_close ~rtol:1e-12 "peak scales"
    (17. *. Roadrunner.peak_sp_flops m1)
    (Roadrunner.peak_sp_flops Roadrunner.full)

(* --- Performance model (E1) ------------------------------------------------ *)

let test_headline_reproduces_paper () =
  let b = Perf_model.headline () in
  (* The paper: 0.374 Pflop/s sustained, 0.488 Pflop/s inner loop (s.p.). *)
  check_close ~rtol:0.03 "sustained ~ 0.374 Pflop/s" 0.374e15
    b.Perf_model.sustained_flops;
  check_close ~rtol:0.03 "inner loop ~ 0.488 Pflop/s" 0.488e15
    b.Perf_model.inner_flops;
  check_close ~rtol:0.05 "efficiency ~ 14.9%% of peak" 0.149
    b.Perf_model.efficiency_vs_peak;
  (* breakdown must account for the whole step *)
  let parts =
    b.Perf_model.t_push +. b.Perf_model.t_field +. b.Perf_model.t_sort
    +. b.Perf_model.t_accumulate +. b.Perf_model.t_comm
    +. b.Perf_model.t_overhead
  in
  check_close ~rtol:1e-9 "breakdown sums to t_step" b.Perf_model.t_step parts;
  check_true "push dominates" (b.Perf_model.t_push > 0.5 *. b.Perf_model.t_step);
  (* trillion particles at ~1.4e12 particle-steps/s *)
  check_close ~rtol:0.1 "particle rate" 1.43e12 b.Perf_model.particle_rate

let test_weak_scaling_near_linear () =
  let rows = Perf_model.weak_scaling [ 1; 2; 4; 8; 17 ] in
  let flops = List.map (fun (_, _, b) -> b.Perf_model.sustained_flops) rows in
  (* monotone increasing *)
  let rec monotone = function
    | a :: b :: rest -> a < b && monotone (b :: rest)
    | _ -> true
  in
  check_true "monotone" (monotone flops);
  (* per-CU efficiency at full machine >= 95% of single-CU *)
  let f1 = List.nth flops 0 in
  let f17 = List.nth flops (List.length flops - 1) in
  let eff = f17 /. (17. *. f1) in
  check_true (Printf.sprintf "weak-scaling efficiency %.3f" eff) (eff > 0.95);
  check_true "close to linear but not superlinear" (eff <= 1.0)

let test_strong_scaling_saturates () =
  (* Fixed workload: time per step falls with machine size, with
     efficiency degrading as comm/latency terms stop shrinking. *)
  let w =
    { Perf_model.particles = 1e10;
      voxels = 1.36e6;
      steps_per_sort = 25;
      ppc_effective = 7353. }
  in
  let rows = Perf_model.strong_scaling w [ 1; 4; 17 ] in
  let times = List.map (fun (_, _, b) -> b.Perf_model.t_step) rows in
  (match times with
  | [ t1; t4; t17 ] ->
      check_true "t falls" (t1 > t4 && t4 > t17);
      let speedup = t1 /. t17 in
      check_true
        (Printf.sprintf "sublinear speedup %.1f < 17" speedup)
        (speedup < 17.)
  | _ -> Alcotest.fail "row count");
  ()

let test_model_flops_pp_sane () =
  let c = Perf_model.default_calibration in
  (* our kernels: gather 126 + push 70 + ~1.15 segments x 57 ~ 262 *)
  check_close ~rtol:0.05 "flops per particle-step" 261.6 c.Perf_model.flops_pp

(* --- SPE pipeline (executable substrate) ----------------------------------- *)

let pipeline_setup () =
  let g = small_grid ~n:8 ~l:8. () in
  let f = Em_field.create g in
  let rng = Rng.of_int 55 in
  List.iter
    (fun sf -> Sf.map_inplace sf (fun _ -> 0.1 *. (Rng.uniform rng -. 0.5)))
    (Em_field.em_components f);
  Boundary.fill_em Bc.periodic f;
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  ignore (Loader.maxwellian rng s ~ppc:20 ~uth:0.1 ());
  Vpic_particle.Sort.by_voxel s;
  (g, f, s)

(* [Spe_pipeline.advance_species] the way [Helpers.push] runs
   [Push.advance]: fresh interpolator loaded from [f], fresh
   accumulator unloaded into [f] afterwards. *)
let pipeline_push ?ppc_hint pipe s f bc =
  let g = s.Species.grid in
  let interp = Interpolator.create g and accum = Accumulator.create g in
  Interpolator.load interp f;
  let st = Spe_pipeline.advance_species ?ppc_hint ~interp ~accum pipe s f bc in
  Accumulator.unload accum f;
  st

let test_pipeline_equivalent_to_direct () =
  let _, f1, s1 = pipeline_setup () in
  let _, f2, s2 = pipeline_setup () in
  (* identical setups; push one directly and one through the pipeline *)
  ignore (push s1 f1 Bc.periodic);
  let pipe = Spe_pipeline.create ~block_size:128 Roadrunner.full in
  ignore (pipeline_push pipe s2 f2 Bc.periodic);
  Alcotest.(check int) "same count" (Species.count s1) (Species.count s2);
  check_close ~atol:0. ~rtol:0. "identical currents" 0.
    (List.fold_left2
       (fun acc a b -> Float.max acc (Sf.max_abs_diff_interior a b))
       0.
       (Em_field.j_components f1)
       (Em_field.j_components f2));
  Species.iter s1 (fun n ->
      check_true "identical particles" (Species.get s1 n = Species.get s2 n))

let test_pipeline_ledger () =
  let _, f, s = pipeline_setup () in
  let block = 128 in
  let pipe = Spe_pipeline.create ~block_size:block Roadrunner.full in
  let np = Species.count s in
  ignore (pipeline_push pipe ~ppc_hint:20. s f Bc.periodic);
  let led = Spe_pipeline.ledger pipe in
  Alcotest.(check int) "blocks" ((np + block - 1) / block) led.Spe_pipeline.blocks;
  Alcotest.(check int) "particles" np led.Spe_pipeline.particles;
  let expect_in =
    float_of_int np
    *. (Spe_pipeline.particle_bytes +. (Spe_pipeline.interpolator_bytes /. 20.))
  in
  check_close ~rtol:1e-9 "bytes in" expect_in led.Spe_pipeline.bytes_in;
  check_true "dma and compute timed"
    (led.Spe_pipeline.t_dma > 0. && led.Spe_pipeline.t_compute > 0.);
  check_true "overlap: exposed <= sum"
    (led.Spe_pipeline.t_exposed
    <= led.Spe_pipeline.t_dma +. led.Spe_pipeline.t_compute);
  check_true "exposed >= max stream"
    (led.Spe_pipeline.t_exposed
    >= Float.max led.Spe_pipeline.t_dma led.Spe_pipeline.t_compute -. 1e-12);
  let rate = Spe_pipeline.spe_particle_rate pipe in
  check_true "rate positive" (rate > 0.);
  check_close ~rtol:1e-9 "machine rate = 97920 spes"
    (97920. *. rate)
    (Spe_pipeline.machine_particle_rate pipe)

let test_pipeline_rejects_absorbing () =
  let _, f, s = pipeline_setup () in
  let pipe = Spe_pipeline.create Roadrunner.full in
  check_true "raises"
    (try
       ignore
         (pipeline_push pipe s f (Bc.uniform Bc.Absorbing));
       false
     with Invalid_argument _ -> true)

let suite =
  [ case "roadrunner: machine constants" test_roadrunner_constants;
    case "roadrunner: partial machines" test_with_cus;
    case "model: E1 headline (0.374 / 0.488 Pflop/s)" test_headline_reproduces_paper;
    case "model: E2 weak scaling near-linear" test_weak_scaling_near_linear;
    case "model: strong scaling saturates" test_strong_scaling_saturates;
    case "model: kernel flop count" test_model_flops_pp_sane;
    case "pipeline: physics identical to direct push" test_pipeline_equivalent_to_direct;
    case "pipeline: DMA ledger accounting" test_pipeline_ledger;
    case "pipeline: rejects absorbing bc" test_pipeline_rejects_absorbing ]
