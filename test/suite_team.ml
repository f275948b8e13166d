(* Worker-team determinism suite (hierarchical SMP ranks).

   The Pool contract promises that every tiled kernel's result depends
   only on the tile count — never on how many worker lanes execute the
   tiles.  These tests pin the contract at every level: a raw tiled
   sort, the private-slab current reduction, a full 20-step srs run,
   and the composed 2-ranks x 4-blocks x N-workers hierarchy. *)

module Pool = Vpic_util.Pool
module Team = Vpic_parallel.Team
module Comm = Vpic_parallel.Comm
module Sort = Vpic_particle.Sort
module Accumulator = Vpic_particle.Accumulator
module Deck = Vpic_lpi.Deck
module Simulation = Vpic.Simulation
module Multiblock = Vpic.Multiblock
open Helpers

let bits = Int64.bits_of_float

let check_bitwise label a b =
  if bits a <> bits b then
    Alcotest.failf "%s: %.17e <> %.17e (not bitwise equal)" label a b

let check_energies_bitwise label (a : Simulation.energies)
    (b : Simulation.energies) =
  check_bitwise (label ^ ": field E") a.Simulation.field_e
    b.Simulation.field_e;
  check_bitwise (label ^ ": field B") a.Simulation.field_b
    b.Simulation.field_b;
  List.iter2
    (fun (na, va) (nb, vb) ->
      Alcotest.(check string) (label ^ ": species name") na nb;
      check_bitwise (label ^ ": species " ^ na) va vb)
    a.Simulation.particles b.Simulation.particles;
  check_bitwise (label ^ ": total") a.Simulation.total b.Simulation.total

(* --- 20-step srs energies are bitwise invariant in the worker count --- *)

let srs_energies ~workers ~steps =
  Team.with_team ~workers (fun tm ->
      let setup = Deck.build { Deck.default with Deck.ppc = 2 } in
      let sim = setup.Deck.sim in
      Simulation.set_pool sim (Team.pool tm);
      for _ = 1 to steps do
        Simulation.step sim
      done;
      Simulation.energies sim)

let test_srs_worker_invariance () =
  let e1 = srs_energies ~workers:1 ~steps:20 in
  let e4 = srs_energies ~workers:4 ~steps:20 in
  check_energies_bitwise "1 vs 4 workers" e1 e4

(* --- tiled two-pass counting sort == serial counting sort --- *)

let shuffled_species g ~ppc ~seed =
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  ignore (Loader.maxwellian (Rng.of_int seed) s ~ppc ~uth:0.2 ());
  (* The loader fills in voxel order; Fisher-Yates the indices so the
     sort has real work to do. *)
  let rng = Rng.of_int (seed + 17) in
  for i = Species.count s - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    if j <> i then Species.swap s i j
  done;
  s

let particles s = List.init (Species.count s) (Species.get s)

let test_tiled_sort_equivalence () =
  let g = small_grid ~n:6 ~l:3. () in
  let mk () = shuffled_species g ~ppc:7 ~seed:42 in
  let s_serial = mk () and s_tiled = mk () and s_team = mk () in
  check_true "shuffled input is unsorted" (not (Sort.is_sorted s_serial));
  Sort.by_voxel s_serial;
  (* Inline execution but a multi-tile decomposition: pins the tiled
     algorithm itself, independent of any domain scheduling. *)
  Sort.by_voxel ~pool:{ Pool.serial with Pool.tiles = 5 } s_tiled;
  Team.with_team ~workers:3 (fun tm ->
      Sort.by_voxel ~pool:(Team.pool tm) s_team);
  check_true "serial result is sorted" (Sort.is_sorted s_serial);
  let ps = particles s_serial in
  check_true "tiled(5) sort == serial sort" (particles s_tiled = ps);
  check_true "team(3 workers) sort == serial sort" (particles s_team = ps)

(* --- private-slab current reduction vs direct scatter --- *)

let test_slab_current_reduction () =
  let g = small_grid ~n:6 ~l:3. () in
  let f = Em_field.create g in
  let mk () =
    let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
    ignore (Loader.maxwellian (Rng.of_int 7) s ~ppc:6 ~uth:0.15 ());
    s
  in
  let interp = Interpolator.create g in
  Interpolator.load interp f;
  (* Serial path: the interior push scatters straight into the
     accumulator's slots. *)
  let direct =
    let acc = Accumulator.create g in
    let defer = Push.Defer.create () in
    ignore
      (Push.advance ~interp ~accum:acc ~region:(`Interior defer) (mk ()) f
         Bc.periodic);
    acc
  in
  (* Team path: each tile scatters into a private zero-filled slab,
     folded back in ascending tile order by [reduce]. *)
  let run ~pool =
    let acc = Accumulator.create g in
    let defer = Push.Defer.create () in
    let scratch = Push.Team_scratch.create () in
    ignore
      (Push.advance_team ~pool ~scratch ~defer ~interp ~accum:acc (mk ()) f
         Bc.periodic);
    Accumulator.reduce ~pool acc;
    acc
  in
  let tiled = run ~pool:{ Pool.serial with Pool.tiles = Pool.default_tiles } in
  let team = Team.with_team ~workers:3 (fun tm -> run ~pool:(Team.pool tm)) in
  let d_direct = Accumulator.data direct in
  let d_tiled = Accumulator.data tiled in
  let d_team = Accumulator.data team in
  let n = Bigarray.Array1.dim d_direct in
  let scale = ref 0. and nonzero = ref 0 in
  for i = 0 to n - 1 do
    scale := Float.max !scale (Float.abs (Bigarray.Array1.get d_direct i))
  done;
  for i = 0 to n - 1 do
    let d0 = Bigarray.Array1.get d_direct i in
    let dt = Bigarray.Array1.get d_tiled i in
    let dw = Bigarray.Array1.get d_team i in
    (* Worker-count invariance is exact... *)
    if bits dt <> bits dw then
      Alcotest.failf "slot %d: tiled %.17e <> team %.17e" i dt dw;
    (* ...while the slab fold only reorders the same f64 additions, so
       it matches the direct scatter to rounding of the largest slot. *)
    if Float.abs (dt -. d0) > 1e-12 *. (!scale +. 1.) then
      Alcotest.failf "slot %d: slab fold %.17e vs direct %.17e" i dt d0;
    if d0 <> 0. then incr nonzero
  done;
  check_true "the push deposited current" (!nonzero > 0)

(* --- the full hierarchy: 2 ranks x 4 blocks x N workers --- *)

let blocks_energies ~workers =
  let config = { Deck.default with Deck.ppc = 2; Deck.ny = 8 } in
  (Comm.run ~ranks:2 (fun c ->
       Team.with_team ~workers (fun tm ->
           let bs =
             Deck.build_over ~comm:c ~pool:(Team.pool tm) ~blocks:4 config
           in
           let mb = bs.Deck.mb in
           for _ = 1 to 10 do
             Multiblock.step mb
           done;
           Multiblock.energies mb))).(0)

let test_team_multiblock_compose () =
  let e1 = blocks_energies ~workers:1 in
  let e2 = blocks_energies ~workers:2 in
  check_energies_bitwise "2 ranks x 4 blocks, 1 vs 2 workers" e1 e2

(* --- exception containment: a failing tile names its lane, the team
   survives --- *)

let test_worker_failure_contained () =
  Team.with_team ~workers:3 (fun tm ->
      let pool = Team.pool tm in
      (match
         pool.Pool.run ~label:"boom" ~tiles:8 (fun ~lane:_ ~tile ->
             if tile = 5 then failwith "boom")
       with
      | () -> Alcotest.fail "expected Worker_failed"
      | exception Team.Worker_failed { worker; error = Failure m } ->
          check_true "failing lane is named" (worker >= 0 && worker < 3);
          Alcotest.(check string) "original error carried" "boom" m
      | exception e ->
          Alcotest.failf "unexpected: %s" (Printexc.to_string e));
      (* containment drained the region: no lane is left parked, and the
         team keeps working *)
      let hits = Array.make 8 0 in
      pool.Pool.run ~label:"after" ~tiles:8 (fun ~lane:_ ~tile ->
          hits.(tile) <- hits.(tile) + 1);
      Array.iteri
        (fun t h -> Alcotest.(check int) (Printf.sprintf "tile %d ran once" t) 1 h)
        hits);
  (* the inline single-lane path wraps failures the same way *)
  Team.with_team ~workers:1 (fun tm ->
      let pool = Team.pool tm in
      match
        pool.Pool.run ~label:"boom1" ~tiles:4 (fun ~lane:_ ~tile ->
            if tile = 2 then failwith "pow")
      with
      | () -> Alcotest.fail "expected Worker_failed"
      | exception Team.Worker_failed { worker = 0; error = Failure m } ->
          Alcotest.(check string) "original error carried" "pow" m
      | exception e -> Alcotest.failf "unexpected: %s" (Printexc.to_string e))

let suite =
  [ case "team: srs energies bitwise invariant in worker count"
      test_srs_worker_invariance;
    case "team: tiled counting sort equals serial sort"
      test_tiled_sort_equivalence;
    case "team: slab current reduction matches direct deposit"
      test_slab_current_reduction;
    case "team: 2 ranks x 4 blocks x workers compose"
      test_team_multiblock_compose;
    case "team: a failing tile is contained and names its lane"
      test_worker_failure_contained ]
