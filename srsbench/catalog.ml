(* Every metric the benchmark prints, and what each per-layer metric is
   expected to move.  BENCHMARK.json lists the same names (the self-test
   holds the two in step); the bound on each end-to-end metric lives
   there. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

(* A per-layer metric, the layer it measures, and the end-to-end metric
   and workloads a change to that layer should move.  A workload on
   which the benchmark cannot observe the layer from outside the
   library reports 0 for it. *)
type layer_metric = { m : metric; layer : string; moves : string; on : string list }

(* The workloads BENCHMARK.json lists.  srs_2rank runs by hand only: the
   lazy [Crc32.table] race kills about one run in twenty at its first
   concurrent checkpoint save, and a listed workload may not fail at
   random.  Its layers are measured in srs_push's traced run. *)
let workloads = [ "srs_push"; "srs_fields" ]

let runnable = workloads @ [ "srs_2rank" ]

let e name unit_ better = { name; unit_; better }

let end_to_end =
  [ e "particle_steps_per_s" "1/s" Higher;
    e "step_ms_p50" "ms" Lower;
    e "step_ms_p90" "ms" Lower;
    e "cpu_ns_per_particle_step" "ns" Lower;
    e "alloc_words_per_particle_step" "words" Lower;
    e "peak_rss_mib" "MiB" Lower;
    e "setup_s" "s" Lower ]

let l name unit_ better ~layer ~moves ~on = { m = e name unit_ better; layer; moves; on }

let per_layer =
  [ l "push.interior.ns_per_particle" "ns" Lower ~layer:"push"
      ~moves:"particle_steps_per_s" ~on:[ "srs_push" ];
    l "push.boundary.ns_per_particle" "ns" Lower ~layer:"push"
      ~moves:"particle_steps_per_s" ~on:[ "srs_push" ];
    l "push.words_per_particle" "words" Lower ~layer:"push"
      ~moves:"alloc_words_per_particle_step" ~on:[ "srs_push" ];
    l "push.block.cleanup_frac" "ratio" Lower ~layer:"push"
      ~moves:"particle_steps_per_s" ~on:[ "srs_push" ];
    l "push.flops_per_particle" "flop" Lower ~layer:"push"
      ~moves:"particle_steps_per_s" ~on:[ "srs_push" ];
    l "push.computed_bytes_per_particle" "B" Lower ~layer:"push"
      ~moves:"particle_steps_per_s" ~on:[ "srs_push" ];
    l "interp.load.ns_per_voxel" "ns" Lower ~layer:"interpolator"
      ~moves:"step_ms_p50" ~on:[ "srs_fields" ];
    l "interp.load.words_per_voxel" "words" Lower ~layer:"interpolator"
      ~moves:"step_ms_p50" ~on:[ "srs_fields" ];
    l "accum.unload.ns_per_voxel" "ns" Lower ~layer:"accumulator"
      ~moves:"step_ms_p50" ~on:[ "srs_fields" ];
    l "accum.unload.words_per_voxel" "words" Lower ~layer:"accumulator"
      ~moves:"step_ms_p50" ~on:[ "srs_fields" ];
    l "field.ns_per_voxel" "ns" Lower ~layer:"maxwell" ~moves:"step_ms_p50"
      ~on:[ "srs_fields" ];
    l "clean.ns_per_voxel" "ns" Lower ~layer:"marder" ~moves:"step_ms_p50"
      ~on:[ "srs_fields" ];
    l "sentinel.ns_per_voxel" "ns" Lower ~layer:"sentinel"
      ~moves:"step_ms_p50" ~on:[ "srs_fields" ];
    l "rho.ns_per_particle" "ns" Lower ~layer:"moments"
      ~moves:"particle_steps_per_s" ~on:[ "srs_push" ];
    l "sort.ns_per_particle" "ns" Lower ~layer:"sort"
      ~moves:"particle_steps_per_s" ~on:[ "srs_push" ];
    l "exchange.ns_per_step" "ns" Lower ~layer:"exchange"
      ~moves:"step_ms_p50" ~on:[ "srs_fields"; "srs_2rank" ];
    l "exchange.bytes_per_step" "B" Lower ~layer:"exchange"
      ~moves:"step_ms_p50" ~on:[ "srs_fields"; "srs_2rank" ];
    l "comm.wait_frac" "ratio" Lower ~layer:"comm" ~moves:"step_ms_p90"
      ~on:[ "srs_2rank" ];
    l "migrate.movers_per_step" "count" Lower ~layer:"migrate"
      ~moves:"step_ms_p50" ~on:[ "srs_2rank" ];
    l "multiblock.step_ms.r0" "ms" Lower ~layer:"multiblock"
      ~moves:"step_ms_p50" ~on:[ "srs_2rank" ];
    l "multiblock.step_ms.r1" "ms" Lower ~layer:"multiblock"
      ~moves:"step_ms_p50" ~on:[ "srs_2rank" ];
    l "checkpoint.save_ms_per_gen" "ms" Lower ~layer:"checkpoint"
      ~moves:"particle_steps_per_s" ~on:[ "srs_2rank" ];
    l "checkpoint.bytes_per_gen" "B" Lower ~layer:"checkpoint"
      ~moves:"particle_steps_per_s" ~on:[ "srs_2rank" ];
    l "driver.self_ms_per_step" "ms" Lower ~layer:"simulation"
      ~moves:"step_ms_p50" ~on:[ "srs_push"; "srs_fields" ];
    l "gc.minor_per_step" "count" Lower ~layer:"gc"
      ~moves:"cpu_ns_per_particle_step" ~on:runnable;
    l "gc.major_per_kstep" "count" Lower ~layer:"gc"
      ~moves:"cpu_ns_per_particle_step" ~on:runnable;
    l "setup.ns_per_particle" "ns" Lower ~layer:"deck" ~moves:"setup_s"
      ~on:runnable;
    l "trace.overhead_frac" "ratio" Lower ~layer:"tracing"
      ~moves:"particle_steps_per_s" ~on:runnable;
    l "share.push" "ratio" Lower ~layer:"push" ~moves:"particle_steps_per_s"
      ~on:[ "srs_push" ];
    l "share.field_layers" "ratio" Lower ~layer:"fields"
      ~moves:"step_ms_p50" ~on:[ "srs_fields" ] ]

(* The name charset of the benchmark contract: a leading letter or
   digit, then letters, digits, '_', '.', '-', at most 64 in all. *)
let valid_name s =
  let ok_char c =
    match c with
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all ok_char s

let better_to_string = function Lower -> "lower" | Higher -> "higher"
