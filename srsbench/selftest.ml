(* Self-tests of the SRS benchmark: its order statistics, its metric
   catalogue (against BENCHMARK.json), seed determinism of the decks it
   generates, and the traced step's fidelity to [Simulation.step]. *)

open Srsbench_lib
module Json = Vpic_util.Json
module Stats = Vpic_util.Stats
module Deck = Vpic_lpi.Deck
module Simulation = Vpic.Simulation

let check_float = Alcotest.(check (float 0.))

(* --------------------------------------------------------- samples *)

(* The step percentiles come from [Stats.percentile]; [Sample.beyond]
   counts the samples past them. *)
let test_percentile () =
  let a = Array.init 101 (fun i -> float_of_int (100 - i)) in
  check_float "p50 of 0..100" 50. (Stats.percentile 50. a);
  check_float "p90 of 0..100" 90. (Stats.percentile 90. a);
  check_float "median of one" 7. (Stats.percentile 50. [| 7. |]);
  check_float "median of an even count" 2.5 (Stats.percentile 50. [| 4.; 1.; 3.; 2. |]);
  Alcotest.(check int) "input left unsorted" 100 (int_of_float a.(0))

let test_beyond () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check int) "ten beyond p90 of 1..100" 10 (Sample.beyond (Stats.percentile 90. a) a);
  Alcotest.(check int) "ties are not beyond" 0 (Sample.beyond 2. [| 2.; 2.; 1. |]);
  Alcotest.(check int) "none beyond the max" 0 (Sample.beyond 100. a)

(* --------------------------------------------------------- catalogue *)

let layer_names = List.map (fun (l : Catalog.layer_metric) -> l.Catalog.m.Catalog.name) Catalog.per_layer
let e2e_names = List.map (fun (m : Catalog.metric) -> m.Catalog.name) Catalog.end_to_end

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) ("valid name " ^ n) true (Catalog.valid_name n))
    (Catalog.runnable @ e2e_names @ layer_names);
  List.iter
    (fun n -> Alcotest.(check bool) ("invalid name " ^ n) false (Catalog.valid_name n))
    [ ""; "_lead"; ".lead"; "a b"; "a/b"; "a:b"; "ns\xc2\xb5"; String.make 65 'a' ];
  Alcotest.(check bool) "64 letters allowed" true (Catalog.valid_name (String.make 64 'a'));
  let all = Catalog.runnable @ e2e_names @ layer_names in
  Alcotest.(check int) "names unique" (List.length all)
    (List.length (List.sort_uniq compare all))

let test_layer_targets () =
  List.iter
    (fun (l : Catalog.layer_metric) ->
      let name = l.Catalog.m.Catalog.name in
      Alcotest.(check bool) (name ^ " moves an end-to-end metric") true
        (List.mem l.Catalog.moves e2e_names);
      Alcotest.(check bool) (name ^ " names its workloads") true (l.Catalog.on <> []);
      List.iter
        (fun w ->
          Alcotest.(check bool) (name ^ " workload " ^ w) true (List.mem w Catalog.runnable))
        l.Catalog.on)
    Catalog.per_layer

(* BENCHMARK.json lists exactly the catalogue, with bounds on the
   end-to-end metrics and setup_s given the largest. *)
let test_benchmark_json () =
  let doc =
    In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all |> Json.parse_exn
  in
  let list k = Option.fold ~none:[] ~some:Json.to_list (Json.member k doc) in
  let str k j = Option.bind (Json.member k j) Json.to_string_opt |> Option.value ~default:"" in
  let names k = List.map (str "name") (list k) in
  Alcotest.(check (list string)) "workloads" Catalog.workloads (names "workloads");
  Alcotest.(check (list string)) "end_to_end" e2e_names (names "end_to_end");
  Alcotest.(check (list string)) "per_layer" layer_names (names "per_layer");
  let metric_of j = (str "name" j, str "unit" j, str "better" j) in
  let catalog_of (m : Catalog.metric) =
    (m.Catalog.name, m.Catalog.unit_, Catalog.better_to_string m.Catalog.better)
  in
  let triple = Alcotest.(triple string string string) in
  List.iter2
    (fun j m -> Alcotest.check triple "end_to_end entry" (catalog_of m) (metric_of j))
    (list "end_to_end") Catalog.end_to_end;
  List.iter2
    (fun j (l : Catalog.layer_metric) ->
      Alcotest.check triple "per_layer entry" (catalog_of l.Catalog.m) (metric_of j))
    (list "per_layer") Catalog.per_layer;
  let bound j = Option.bind (Json.member "bound" j) Json.to_float_opt |> Option.value ~default:1. in
  let bounds = List.map (fun j -> (str "name" j, bound j)) (list "end_to_end") in
  List.iter
    (fun (n, b) -> Alcotest.(check bool) (n ^ " bound in (0, 0.25]") true (b > 0. && b <= 0.25))
    bounds;
  let setup = List.assoc "setup_s" bounds in
  Alcotest.(check bool) "setup_s has the largest bound" true
    (List.for_all (fun (_, b) -> b <= setup) bounds)

(* ------------------------------------------------------------- decks *)

(* The srs_push deck shrunk to a few thousand particles; the same code
   path, seconds to step. *)
let small_deck seed = { (Srs.config "srs_push" ~seed) with Deck.nx = 128; ny = 4; nz = 4; ppc = 2 }

let final_energy ?(steps = 30) seed =
  let st = Deck.build ~push_backend:Srs.backend (small_deck seed) in
  for _ = 1 to steps do Simulation.step st.Deck.sim done;
  (Simulation.energies st.Deck.sim).Simulation.total

let bits = Int64.bits_of_float

let test_seed_determinism () =
  let a = final_energy 5 and b = final_energy 5 and c = final_energy 6 in
  Alcotest.(check int64) "one seed, two builds: same energy bits" (bits a) (bits b);
  Alcotest.(check bool) "two seeds: different energies" true (bits a <> bits c)

(* The traced step calls the public phases in [Simulation.step]'s order;
   60 steps cover two sorts and a Marder clean. *)
let test_traced_step () =
  let steps = 60 in
  let plain = final_energy ~steps 7 in
  let st = Deck.build ~push_backend:Srs.backend (small_deck 7) in
  let tr = Srs.tracer st.Deck.sim.Simulation.perf in
  let pc = Srs.push_counts () in
  for _ = 1 to steps do Srs.traced_step tr pc st done;
  let traced = (Simulation.energies st.Deck.sim).Simulation.total in
  Alcotest.(check int64) "traced energy bits" (bits plain) (bits traced);
  Alcotest.(check int) "one clean" 1 (Srs.calls tr Srs.Clean);
  Alcotest.(check int) "two sorts" 2 (Srs.calls tr Srs.Sort)

let () =
  Alcotest.run "srsbench"
    [ ( "sample",
        [ Alcotest.test_case "step percentiles" `Quick test_percentile;
          Alcotest.test_case "samples beyond a percentile" `Quick test_beyond ] );
      ( "catalog",
        [ Alcotest.test_case "metric-name charset" `Quick test_names;
          Alcotest.test_case "per-layer targets" `Quick test_layer_targets;
          Alcotest.test_case "BENCHMARK.json matches" `Quick test_benchmark_json ] );
      ( "deck",
        [ Alcotest.test_case "seed determinism" `Quick test_seed_determinism;
          Alcotest.test_case "traced step is the real step" `Quick test_traced_step ] ) ]
