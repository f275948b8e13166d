(* SRS benchmark driver.

     srsbench --workload srs_push|srs_fields|srs_2rank --seed N
              --seconds S --trace 0|1

   Steps the workload's deck (built from the seed) in whole operations
   of one Marder-clean interval each until [S] seconds have been
   measured, checks every operation, and prints as its last line one
   JSON object {correct, attempted, failed, metrics}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. *)

open Srsbench_lib
module Stats = Vpic_util.Stats

let usage () =
  prerr_endline
    "usage: srsbench --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace
    when List.mem !workload Catalog.runnable && seconds > 0. ->
      (!workload, seed, seconds, trace)
  | _ -> usage ()

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  let workload, seed, seconds, trace = parse Sys.argv in
  (* Checkpoint files go under the checkout, one directory per process,
     removed when the run ends. *)
  let in_workdir f =
    let base = ".srsbench_run" in
    if not (Sys.file_exists base) then Sys.mkdir base 0o755;
    let workdir = Filename.concat base (string_of_int (Unix.getpid ())) in
    if not (Sys.file_exists workdir) then Sys.mkdir workdir 0o755;
    let r = Fun.protect ~finally:(fun () -> Srs.remove_tree workdir) (fun () -> f workdir) in
    (try Sys.rmdir base with Sys_error _ -> ());
    r
  in
  let r =
    match workload with
    | "srs_2rank" -> in_workdir (fun workdir -> Srs.run_2rank ~seed ~seconds ~trace ~workdir ())
    | "srs_push" when trace -> in_workdir (fun workdir -> Srs.run_push_traced ~seed ~seconds ~workdir)
    | _ -> Srs.run_local ~workload ~seed ~seconds ~trace ()
  in
  let w = r.Srs.e2e in
  let step_ms = Array.of_list w.Srs.step_ms in
  let n = Array.length step_ms in
  let pct p a = if Array.length a > 0 then Stats.percentile p a else Float.nan in
  let p50 = pct 50. step_ms and p90 = pct 90. step_ms in
  let setup_s = pct 50. r.Srs.setup in
  let o = r.Srs.outcome in
  Printf.printf
    "# %s seed %d: %d ops, %d step samples, p50 %.3f ms, p90 %.3f ms with %d \
     beyond, %d particles, setup %s s%s\n"
    workload seed o.Srs.attempted n p50 p90
    (if n > 0 then Sample.beyond p90 step_ms else 0)
    r.Srs.particles
    (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.3f") r.Srs.setup)))
    (match o.Srs.died with Some e -> ", died: " ^ e | None -> "");
  if r.Srs.shares <> [] then
    Printf.printf "# step shares: %s\n"
      (String.concat ", "
         (List.map (fun (n, v) -> Printf.sprintf "%s %.4f" n v) r.Srs.shares));
  let per d x = if d > 0. then x /. d else 0. in
  let steps = float_of_int n in
  let values =
    if not trace then
      [ ("particle_steps_per_s", per w.Srs.step_s w.Srs.particle_steps);
        ("step_ms_p50", p50);
        ("step_ms_p90", p90);
        ("cpu_ns_per_particle_step", per w.Srs.particle_steps (w.Srs.cpu_s *. 1e9));
        ("alloc_words_per_particle_step", per w.Srs.particle_steps w.Srs.words);
        ("peak_rss_mib", r.Srs.peak_rss_mib);
        ("setup_s", setup_s) ]
    else
      let common =
        [ ("gc.minor_per_step", per steps (float_of_int w.Srs.minor_gcs));
          ("gc.major_per_kstep", per steps (1e3 *. float_of_int w.Srs.major_gcs));
          ("setup.ns_per_particle", per (float_of_int r.Srs.particles) (setup_s *. 1e9)) ]
      in
      let measured = common @ r.Srs.layers in
      List.map
        (fun (l : Catalog.layer_metric) ->
          let name = l.Catalog.m.Catalog.name in
          (name, Option.value (List.assoc_opt name measured) ~default:0.))
        Catalog.per_layer
  in
  let units =
    List.map (fun (m : Catalog.metric) -> (m.Catalog.name, m.Catalog.unit_))
      (Catalog.end_to_end
      @ List.map (fun (l : Catalog.layer_metric) -> l.Catalog.m) Catalog.per_layer)
  in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) values in
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
             (List.assoc name units))
         values)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.Srs.wrong = 0 && finite) o.Srs.attempted o.Srs.failed metrics
