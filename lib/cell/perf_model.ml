module Push = Vpic_particle.Push

type workload = {
  particles : float;
  voxels : float;
  steps_per_sort : int;
  ppc_effective : float;
}

let paper_workload =
  { particles = 1.0e12;
    voxels = 1.36e8;
    steps_per_sort = 25;
    ppc_effective = 1.0e12 /. 1.36e8 }

type calibration = {
  flops_pp : float;
  avg_segments : float;
  bytes_pp : float;
  spu_efficiency : float;
  inner_loop_efficiency : float;
  field_flops_per_voxel : float;
  overhead_fraction : float;
}

(* The paper's SPE kernel gathers with the full staggered trilinear
   stencil: 6 components x (8 loads, 7 fma-ish ops) + weight setup. *)
let paper_gather_flops = 126.

let default_calibration =
  let avg_segments = 1.15 in
  (* Calibrated against the paper's SPE kernel, whose per-particle flop
     count includes the full staggered gather ([paper_gather_flops]).
     The host push evaluates a cheaper per-voxel interpolator expansion
     ([Vpic_particle.Interpolator.flops_per_gather]) and ledgers its real
     cost through [Vpic_util.Perf]; these calibration numbers stay fixed
     — they reproduce the published machine model, not the host
     implementation. *)
  let flops_pp =
    paper_gather_flops +. Push.flops_per_push
    +. (avg_segments *. Push.flops_per_segment)
  in
  { flops_pp;
    avg_segments;
    (* 32B particle in + 32B out; interpolator/accumulator amortised over
       a sorted voxel's particles (paper runs: thousands per voxel). *)
    bytes_pp = 64. +. (Spe_pipeline.interpolator_bytes +. Spe_pipeline.accumulator_bytes) /. 32.;
    spu_efficiency = 0.5;
    inner_loop_efficiency = 0.488 /. 2.507;
    (* advance_e + two half advance_b + amortised Marder *)
    field_flops_per_voxel = 27. +. 24. +. 10.;
    overhead_fraction = 0.18 }

(* ------------------------------------------------ kernel calibration ---- *)

(* Which push kernel a predicted-vs-measured comparison should assume.
   The measured side (the Perf ledger) charges the interpolator
   expansion's 24-flop gather on the fast path, not the paper's
   staggered stencil, so a Report row computed against
   [default_calibration] under `--push-kernel block` would compare
   apples to oranges.  [`Spe] keeps the paper numbers: the SPE stream
   models the published kernel. *)
type push_kernel = [ `Scalar | `Block of int | `Spe ]

let push_kernel_to_string = function
  | `Scalar -> "scalar"
  | `Block w -> "block" ^ string_of_int w
  | `Spe -> "spe"

(* Per-pass flop rows of the block kernel (per lane; deposit per
   segment) — [Push.block_pass_flops] re-exported so report tables and
   benches read the ledger split from one place. *)
let block_pass_flops = Push.block_pass_flops

let calibration_for = function
  | `Spe -> default_calibration
  | `Scalar | `Block _ ->
      (* The host kernels ledger the interpolator gather; scalar and
         block charge identical flops per particle (the block kernel's
         pass split sums to the scalar ledger by construction), so both
         host rows use the same per-particle estimate. *)
      let avg_segments = default_calibration.avg_segments in
      let flops_pp =
        Vpic_particle.Interpolator.flops_per_gather +. Push.flops_per_push
        +. (avg_segments *. Push.flops_per_segment)
      in
      { default_calibration with flops_pp }

type breakdown = {
  t_push : float;
  t_field : float;
  t_sort : float;
  t_accumulate : float;
  t_comm : float;
  t_overhead : float;
  t_step : float;
  inner_flops : float;
  sustained_flops : float;
  particle_rate : float;
  efficiency_vs_peak : float;
}

let model (m : Roadrunner.t) w c =
  let nodes = float_of_int m.Roadrunner.nodes in
  let spes_per_node =
    float_of_int (m.Roadrunner.cells_per_node * m.Roadrunner.spes_per_cell)
  in
  let np_node = w.particles /. nodes in
  let vox_node = w.voxels /. nodes in
  (* Inner loop: per-SPE per-particle time.  The mechanistic bound is
     max(compute, DMA) under double buffering; the calibrated rate uses
     the paper's measured inner-loop efficiency, which is the slower
     (scalar overheads the mechanistic bound cannot see). *)
  let spe_flops =
    m.Roadrunner.spe_clock_hz *. m.Roadrunner.spe_flops_per_cycle_sp
  in
  let t_pp_compute = c.flops_pp /. (spe_flops *. c.spu_efficiency) in
  let t_pp_dma = c.bytes_pp /. Roadrunner.bw_per_spe m in
  let t_pp_mech = Float.max t_pp_compute t_pp_dma in
  let t_pp_cal = c.flops_pp /. (spe_flops *. c.inner_loop_efficiency) in
  let t_pp = Float.max t_pp_mech t_pp_cal in
  let t_push = np_node *. t_pp /. spes_per_node in
  (* Field solve on the Cells (PPE-driven, SPE-assisted) at a conservative
     5% of chip peak. *)
  let cell_peak_node =
    float_of_int m.Roadrunner.cells_per_node *. spe_flops
    *. float_of_int m.Roadrunner.spes_per_cell
  in
  let t_field = vox_node *. c.field_flops_per_voxel /. (0.05 *. cell_peak_node) in
  (* Sort: read+write the 32B particle twice (count + permute), amortised
     over the sort interval, at XDR bandwidth. *)
  let node_mem_bw =
    m.Roadrunner.cell_mem_bw *. float_of_int m.Roadrunner.cells_per_node
  in
  let t_sort =
    np_node *. 2. *. 2. *. 32. /. node_mem_bw
    /. float_of_int w.steps_per_sort
  in
  (* Accumulator reduce + clear: 12 floats/voxel x (pipelines+1) copies,
     read+write at memory bandwidth. *)
  let t_accumulate = vox_node *. 48. *. 5. *. 2. /. node_mem_bw in
  (* Communication: six ghost faces of the local brick (fields + current
     folding, ~10 components x 4B), relayed over PCIe to the Opterons and
     out through IB; plus migration (~1% of particles near faces) and a
     tree allreduce. *)
  let side = Float.cbrt vox_node in
  let ghost_bytes = 6. *. side *. side *. 10. *. 4. *. 3. in
  (* Fraction of particles crossing a face of the ~35^3-cell local brick
     per step: (v_th dt / dx) * surface/volume ~ 0.2%% for the paper's
     thermal plasma. *)
  let migr_bytes = 0.002 *. np_node *. 32. in
  let t_comm_bw = (ghost_bytes +. migr_bytes) /. m.Roadrunner.nic_bw *. 2. in
  let t_collective =
    m.Roadrunner.nic_latency *. 2. *. (Float.log (Float.max 2. nodes) /. Float.log 2.)
  in
  let t_comm = t_comm_bw +. t_collective in
  let t_known = t_push +. t_field +. t_sort +. t_accumulate +. t_comm in
  let t_step = t_known /. (1. -. c.overhead_fraction) in
  let t_overhead = t_step -. t_known in
  let useful_flops = w.particles *. c.flops_pp in
  let inner_flops = useful_flops /. (t_push *. 1.) in
  let sustained_flops = useful_flops /. t_step in
  { t_push;
    t_field;
    t_sort;
    t_accumulate;
    t_comm;
    t_overhead;
    t_step;
    inner_flops;
    sustained_flops;
    particle_rate = w.particles /. t_step;
    efficiency_vs_peak = sustained_flops /. Roadrunner.peak_sp_flops m }

let headline () = model Roadrunner.full paper_workload default_calibration

let per_node_workload =
  let full = float_of_int Roadrunner.full.Roadrunner.nodes in
  { paper_workload with
    particles = paper_workload.particles /. full;
    voxels = paper_workload.voxels /. full }

let weak_scaling ?(calibration = default_calibration) cus =
  List.map
    (fun cu ->
      let m = Roadrunner.with_cus cu in
      let nodes = float_of_int m.Roadrunner.nodes in
      let w =
        { per_node_workload with
          particles = per_node_workload.particles *. nodes;
          voxels = per_node_workload.voxels *. nodes }
      in
      (cu, m.Roadrunner.nodes, model m w calibration))
    cus

let strong_scaling ?(calibration = default_calibration) w cus =
  List.map
    (fun cu ->
      let m = Roadrunner.with_cus cu in
      (cu, m.Roadrunner.nodes, model m w calibration))
    cus

let ablations () =
  let m = Roadrunner.full in
  let w = paper_workload in
  let c = default_calibration in
  let baseline = model m w c in
  (* Double precision: PowerXCell SPEs run d.p. at half the s.p. rate and
     every streamed byte doubles. *)
  let dp =
    let m_dp =
      { m with
        Roadrunner.spe_flops_per_cycle_sp = m.Roadrunner.spe_flops_per_cycle_dp }
    in
    model m_dp w { c with bytes_pp = 2. *. c.bytes_pp }
  in
  (* No voxel sort: gather/scatter working sets are re-fetched per
     particle instead of amortised over a voxel (but the sort cost
     itself disappears). *)
  let unsorted =
    model m
      { w with steps_per_sort = max_int }
      { c with
        bytes_pp =
          64.
          +. Spe_pipeline.interpolator_bytes +. Spe_pipeline.accumulator_bytes }
  in
  (* No double buffering: DMA is exposed serially after compute, modelled
     as compute and DMA times adding instead of overlapping; equivalent to
     lowering the effective SPE rate by t_dma/t_total.  Encode it by
    deflating the inner-loop efficiency accordingly. *)
  let no_overlap =
    let spe_flops = m.Roadrunner.spe_clock_hz *. m.Roadrunner.spe_flops_per_cycle_sp in
    let t_pp_cal = c.flops_pp /. (spe_flops *. c.inner_loop_efficiency) in
    let t_dma = c.bytes_pp /. Roadrunner.bw_per_spe m in
    let eff' = c.inner_loop_efficiency *. t_pp_cal /. (t_pp_cal +. t_dma) in
    model m w { c with inner_loop_efficiency = eff' }
  in
  [ ("baseline (paper config)", baseline);
    ("double precision", dp);
    ("no voxel sort", unsorted);
    ("no DMA double-buffering", no_overlap) ]
