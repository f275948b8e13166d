(* The three SRS workloads: deck generation from the seed, the stepped
   window (one operation = one Marder-clean interval of steps), the
   per-operation correctness checks, and the traced variants that time
   the calls into each layer's public functions from outside. *)

module Deck = Vpic_lpi.Deck
module Reflectivity = Vpic_lpi.Reflectivity
module Simulation = Vpic.Simulation
module Multiblock = Vpic.Multiblock
module Coupler = Vpic.Coupler
module Sentinel = Vpic.Sentinel
module Checkpoint = Vpic.Checkpoint
module Marder = Vpic_field.Marder
module Comm = Vpic_parallel.Comm
module Species = Vpic_particle.Species
module Push = Vpic_particle.Push
module Sort = Vpic_particle.Sort
module Store = Vpic_particle.Store
module Interpolator = Vpic_particle.Interpolator
module Accumulator = Vpic_particle.Accumulator
module Grid = Vpic_grid.Grid
module Perf = Vpic_util.Perf
module Metrics = Vpic_telemetry.Metrics

let backend = Simulation.Host_block { width = 8 }

(* SRS deck overrides per workload; the seed is the only input that
   varies between runs. *)
let config workload ~seed =
  match workload with
  | "srs_push" | "srs_2rank" ->
      { Deck.default with nx = 192; ny = 16; nz = 16; ppc = 16; rng_seed = seed }
  | "srs_fields" ->
      { Deck.default with
        nx = 384; ny = 16; nz = 16; ppc = 1; vacuum = 17.; rng_seed = seed }
  | w -> invalid_arg ("unknown workload " ^ w)

let ranks = 2
let blocks_2rank = 4
let sentinel_every = 5
let save_every = 25
let keep_gens = 2

(* Deck builds timed after every operation; [setup_s] is their median.
   Each build is dropped.  Build times follow the host's speed, which
   drifts over seconds to minutes, so the builds are spread through the
   window, where they see the host as the steps do.  On srs_2rank the
   first build after an operation reads ~0.2 s and a second ~0.3 s, so
   it times one.  Builds before the first operation read up to 2.5x
   slower there, so the one timed before the window is used only if the
   run dies in its first operation. *)
let builds_per_op = function "srs_fields" -> 2 | "srs_push" -> 3 | _ -> 1

(* Steps run before the window: the first steps after a build grow the
   push and migration buffers and pay the build's major-GC debt.  Any 50
   consecutive steps hold one clean, two sorts and two checkpoint
   saves, so operations keep one phase mix after the offset. *)
let warmup_steps = 10

(* ------------------------------------------------------------ checks *)

(* Blow-up guards.  The pump antenna feeds energy in, so total energy
   grows while the laser fills the box (at most 1.9x over one operation
   on these decks, then it saturates); a numerical instability grows it
   without bound.  The Gauss residual stays near 1e-4 until hot
   electrons reach the sponge absorber, which damps their field but not
   their charge; from then on it reads 0.02-0.3 (srs_fields, past step
   850).  1.0 is the plasma's own charge density in these units. *)
let max_energy_growth = 10.
let max_gauss_residual = 1.

(* The sentinel watches the same bounds; its energy-drift check is made
   against its first observation, and the driven box ends at ~18x the
   thermal start, so the drift tolerance only catches blow-ups. *)
let sentinel_tolerances =
  { Sentinel.default_tolerances with energy_drift = 100.; gauss = max_gauss_residual }

type op_state = {
  energy : float;
  present : int;  (** particles present, world total *)
  absorbed : int;  (** absorbed since the window started, world total *)
  gauss : float;
  refl : float;
  sentinel_violations : int;
}

(* The failures of one operation, as messages (empty = passed). *)
let check ~count0 ~energy_prev (s : op_state) =
  let fail = ref [] in
  let add fmt = Printf.ksprintf (fun m -> fail := m :: !fail) fmt in
  if not (Float.is_finite s.energy) then add "total energy %g not finite" s.energy
  else if s.energy > max_energy_growth *. energy_prev then
    add "total energy %g grew more than %gx over the operation (from %g)"
      s.energy max_energy_growth energy_prev;
  if s.present + s.absorbed <> count0 then
    add "particles: %d present + %d absorbed <> %d at window start" s.present
      s.absorbed count0;
  if not (s.gauss <= max_gauss_residual) then
    add "Gauss residual %g above %g" s.gauss max_gauss_residual;
  if not (Float.is_finite s.refl) then add "reflectivity %g not finite" s.refl;
  if s.sentinel_violations > 0 then
    add "sentinel raised %d violations" s.sentinel_violations;
  List.rev !fail

(* One stderr line per checked operation, for diagnosing a failure. *)
let log_op s =
  Printf.eprintf "op: energy %.6e, %d present + %d absorbed, gauss %.3e, refl %.3e\n%!"
    s.energy s.present s.absorbed s.gauss s.refl

(* ----------------------------------------------------- run accounting *)

type window = {
  mutable step_ms : float list;  (** newest first *)
  mutable step_s : float;
  mutable particle_steps : float;
  mutable cpu_s : float;
  mutable words : float;  (** minor words, summed over every rank domain *)
  mutable minor_gcs : int;
  mutable major_gcs : int;
}

let window () =
  { step_ms = [];
    step_s = 0.;
    particle_steps = 0.;
    cpu_s = 0.;
    words = 0.;
    minor_gcs = 0;
    major_gcs = 0 }

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;  (** operations whose checks failed *)
  mutable died : string option;  (** the exception that ended the run *)
}

let outcome () = { attempted = 0; failed = 0; wrong = 0; died = None }

let record_checks o ~op failures =
  if failures <> [] then begin
    o.failed <- o.failed + 1;
    o.wrong <- o.wrong + 1;
    List.iter (fun m -> Printf.eprintf "op %d failed: %s\n%!" op m) failures
  end

(* Time one step of the loop: wall, process CPU, this domain's minor
   words. *)
let timed_step w ~particles f =
  let c0 = Sys.time () in
  let w0 = Gc.minor_words () in
  let t0 = Perf.now () in
  f ();
  let t1 = Perf.now () in
  let w1 = Gc.minor_words () in
  let c1 = Sys.time () in
  w.step_ms <- ((t1 -. t0) *. 1e3) :: w.step_ms;
  w.step_s <- w.step_s +. (t1 -. t0);
  w.particle_steps <- w.particle_steps +. float_of_int particles;
  w.cpu_s <- w.cpu_s +. (c1 -. c0);
  w.words <- w.words +. (w1 -. w0)

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

let gc_window w f =
  let mi0, ma0 = gc_counts () in
  let r = f () in
  let mi1, ma1 = gc_counts () in
  w.minor_gcs <- w.minor_gcs + (mi1 - mi0);
  w.major_gcs <- w.major_gcs + (ma1 - ma0);
  r

(* Peak resident set of the whole process (all domains), in MiB, over
   the run but not over the benchmark's own dropped builds: before them
   [fold_peak_rss] keeps the peak so far, and once they are freed
   [reset_peak_rss] sets VmHWM back to the current resident set (Linux:
   "5" written to /proc/self/clear_refs; where that is refused, the
   peak keeps the builds). *)
let vm_hwm_mib () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

let peak_rss = ref 0.
let fold_peak_rss () = peak_rss := Float.max !peak_rss (vm_hwm_mib ())

let reset_peak_rss () =
  try
    Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc ->
        output_string oc "5")
  with Sys_error _ -> ()

let peak_rss_mib () =
  fold_peak_rss ();
  !peak_rss

(* ------------------------------------------------------- tracer spans *)

(* Layers of the traced single-domain step, in the order they report. *)
type layer =
  | Exchange
  | Interp
  | Push_interior
  | Push_boundary
  | Laser
  | Migrate
  | Accum
  | Field
  | Rho
  | Clean
  | Sort
  | Sentinel
  | Probe

let layer_names =
  [| "exchange"; "interp"; "push_interior"; "push_boundary"; "laser";
     "migrate"; "accum"; "field"; "rho"; "clean"; "sort"; "sentinel"; "probe" |]

let nlayers = Array.length layer_names

let layer_index = function
  | Exchange -> 0
  | Interp -> 1
  | Push_interior -> 2
  | Push_boundary -> 3
  | Laser -> 4
  | Migrate -> 5
  | Accum -> 6
  | Field -> 7
  | Rho -> 8
  | Clean -> 9
  | Sort -> 10
  | Sentinel -> 11
  | Probe -> 12

type tracer = {
  secs : float array;
  words : float array;
  flops : float array;
  calls : int array;
  perf : Perf.counters;
  mutable step_s : float;
  mutable steps : int;
}

let tracer perf =
  { secs = Array.make nlayers 0.;
    words = Array.make nlayers 0.;
    flops = Array.make nlayers 0.;
    calls = Array.make nlayers 0;
    perf;
    step_s = 0.;
    steps = 0 }

let span tr layer f =
  let i = layer_index layer in
  let f0 = tr.perf.Perf.flops in
  let t0 = Perf.now () in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  let t1 = Perf.now () in
  tr.secs.(i) <- tr.secs.(i) +. (t1 -. t0);
  tr.words.(i) <- tr.words.(i) +. (w1 -. w0);
  tr.flops.(i) <- tr.flops.(i) +. (tr.perf.Perf.flops -. f0);
  tr.calls.(i) <- tr.calls.(i) + 1;
  r

let secs tr l = tr.secs.(layer_index l)
let words tr l = tr.words.(layer_index l)
let flops tr l = tr.flops.(layer_index l)
let calls tr l = tr.calls.(layer_index l)

(* Per-layer counts the spans alone do not give. *)
type push_counts = {
  mutable adv_interior : int;
  mutable adv_boundary : int;
  mutable lanes : int;
  mutable cleanup : int;
  mutable movers : int;
  mutable sentinel_checks : int;  (** steps on which the sentinel scanned *)
}

let push_counts () =
  { adv_interior = 0;
    adv_boundary = 0;
    lanes = 0;
    cleanup = 0;
    movers = 0;
    sentinel_checks = 0 }

(* [Simulation.step] in its documented order, each public phase call
   timed as a span.  With no current filter the smoothed branch of
   [step] is dead; its fault-injection probes are disarmed no-ops. *)
let traced_step tr pc (s : Deck.setup) =
  let t = s.Deck.sim in
  assert (t.Simulation.smoothed = None);
  let c = t.Simulation.coupler in
  let fields = t.Simulation.fields in
  let accum = Option.map snd t.Simulation.interp_accum in
  let t_step = Perf.now () in
  span tr Exchange (fun () -> c.Coupler.fill_em_begin fields);
  let ss = span tr Interp (fun () -> Simulation.phase_clear_and_load t) in
  let adv0 = t.Simulation.push_stats in
  span tr Push_interior (fun () -> Simulation.phase_push_interior t ss);
  let adv1 = t.Simulation.push_stats in
  span tr Exchange (fun () -> c.Coupler.fill_em_finish fields);
  span tr Interp (fun () -> Simulation.phase_load_boundary t);
  span tr Push_boundary (fun () -> Simulation.phase_push_boundary t ss);
  let adv2 = t.Simulation.push_stats in
  pc.adv_interior <- pc.adv_interior + (adv1.Push.advanced - adv0.Push.advanced);
  pc.adv_boundary <- pc.adv_boundary + (adv2.Push.advanced - adv1.Push.advanced);
  pc.lanes <- pc.lanes + (adv2.Push.block_lanes - adv0.Push.block_lanes);
  pc.cleanup <- pc.cleanup + (adv2.Push.block_cleanup - adv0.Push.block_cleanup);
  span tr Laser (fun () -> Simulation.phase_lasers t);
  Simulation.mover_metrics ss;
  List.iter
    (fun (_, sc) -> pc.movers <- pc.movers + Push.Movers.count sc.Simulation.movers)
    ss;
  span tr Migrate (fun () ->
      List.iter
        (fun (sp, sc) -> c.Coupler.migrate ?accum sp fields sc.Simulation.movers)
        ss);
  span tr Accum (fun () -> Simulation.phase_unload_accum t);
  span tr Exchange (fun () -> c.Coupler.fold_currents fields);
  span tr Field (fun () -> Simulation.phase_advance_b t ~frac:0.5);
  span tr Exchange (fun () -> c.Coupler.fill_em fields);
  span tr Field (fun () -> Simulation.phase_advance_e t);
  if Simulation.interval_due t t.Simulation.clean_div_interval then begin
    span tr Rho (fun () -> Simulation.deposit_rho t);
    span tr Clean (fun () ->
        ignore
          (Marder.clean ~perf:t.Simulation.perf ~pool:t.Simulation.pool
             ~passes:t.Simulation.marder_passes
             ~hooks:(Coupler.marder_hooks c fields)
             fields))
  end;
  span tr Exchange (fun () -> c.Coupler.fill_em fields);
  span tr Field (fun () ->
      Simulation.phase_advance_b t ~frac:0.5;
      Simulation.phase_absorb t);
  if Simulation.interval_due t t.Simulation.sort_interval then
    span tr Sort (fun () -> Simulation.phase_sort t);
  t.Simulation.nstep <- t.Simulation.nstep + 1;
  (match t.Simulation.monitor with
  | Some f ->
      if t.Simulation.nstep mod sentinel_every = 0 then
        pc.sentinel_checks <- pc.sentinel_checks + 1;
      span tr Sentinel (fun () -> f t)
  | None -> ());
  span tr Probe (fun () -> Reflectivity.sample s.Deck.refl fields);
  tr.step_s <- tr.step_s +. (Perf.now () -. t_step);
  tr.steps <- tr.steps + 1

(* ------------------------------------------------ single-domain runs *)

let local_particles sim =
  List.fold_left (fun a s -> a + Species.count s) 0 (Simulation.species sim)

type result = {
  e2e : window;
  setup : float array;  (** timed build seconds *)
  particles : int;  (** at the start of the window *)
  peak_rss_mib : float;  (** leaving out the dropped builds *)
  outcome : outcome;
  layers : (string * float) list;  (** per-layer metrics (traced runs) *)
  shares : (string * float) list;  (** each layer's share of the traced step *)
}

(* Time [n] builds, each dropped, with a full major GC before each and
   after the last, so the steps that follow pay no debt for them. *)
let time_builds n build =
  fold_peak_rss ();
  let times =
    Array.init n (fun _ ->
        Gc.full_major ();
        let t0 = Perf.now () in
        ignore (Sys.opaque_identity (build ()));
        Perf.now () -. t0)
  in
  Gc.full_major ();
  reset_peak_rss ();
  times

(* One single-domain stream: its setup, the sentinel (srs_fields), and
   the window's bookkeeping. *)
type stream = {
  st : Deck.setup;
  violations : int ref;
  count0 : int;
  absorbed0 : int;
  mutable energy_prev : float;
}

let stream workload st =
  let violations = ref 0 in
  if workload = "srs_fields" then
    Sentinel.attach
      (Sentinel.make ~interval:sentinel_every ~tols:sentinel_tolerances
         ~log:(fun line ->
           incr violations;
           prerr_endline line)
         ())
      st.Deck.sim;
  let sim = st.Deck.sim in
  { st;
    violations;
    count0 = local_particles sim;
    absorbed0 = sim.Simulation.push_stats.Push.absorbed;
    energy_prev = (Simulation.energies sim).Simulation.total }

let op_state str =
  let sim = str.st.Deck.sim in
  { energy = (Simulation.energies sim).Simulation.total;
    present = local_particles sim;
    absorbed = sim.Simulation.push_stats.Push.absorbed - str.absorbed0;
    gauss = Simulation.gauss_residual sim;
    refl = Reflectivity.reflectivity str.st.Deck.refl;
    sentinel_violations = !(str.violations) }

(* Check one stream after an operation: its final energy and failures. *)
let finish_op str =
  let s = op_state str in
  let failures = check ~count0:str.count0 ~energy_prev:str.energy_prev s in
  log_op s;
  str.energy_prev <- s.energy;
  (s.energy, failures)

let op_steps sim = sim.Simulation.clean_div_interval

(* Whether to start another operation: always a first one, then while
   the window would end nearer [seconds] with it than without it. *)
let another_op ~seconds ~t0 ~ops =
  let elapsed = Perf.now () -. t0 in
  ops = 0 || elapsed +. (0.5 *. elapsed /. float_of_int ops) < seconds

(* Time one single-domain checkpoint generation of [sim] under [dir]:
   its milliseconds and the bytes of the file it wrote. *)
let timed_save sim ~dir ~gen =
  let t0 = Perf.now () in
  Checkpoint.save_generation sim ~dir ~gen ~keep:keep_gens;
  let ms = (Perf.now () -. t0) *. 1e3 in
  let path = Checkpoint.generation_path ~dir ~gen ~rank:0 in
  (ms, float_of_int (Unix.stat path).Unix.st_size)

let run_local ?save_dir ~workload ~seed ~seconds ~trace () =
  let cfg = config workload ~seed in
  let build () = Deck.build ~push_backend:backend cfg in
  let keep = if trace then 2 else 1 in
  let first_setup = time_builds 1 build in
  let sts = List.init keep (fun _ -> build ()) in
  List.iter
    (fun st ->
      for _ = 1 to warmup_steps do
        Simulation.step st.Deck.sim;
        Reflectivity.sample st.Deck.refl st.Deck.sim.Simulation.fields
      done)
    sts;
  let plain = stream workload (List.hd sts) in
  let sim = plain.st.Deck.sim in
  let steps_per_op = op_steps sim in
  let o = outcome () in
  let w = window () in
  let one_step str () =
    Simulation.step str.st.Deck.sim;
    Reflectivity.sample str.st.Deck.refl str.st.Deck.sim.Simulation.fields
  in
  let traced = if trace then Some (stream workload (List.nth sts 1)) else None in
  let tr = tracer (match traced with Some s -> s.st.Deck.sim.Simulation.perf | None -> sim.Simulation.perf) in
  let pc = push_counts () in
  let saves = ref [] in
  let t0 = Perf.now () in
  let op = ref 0 in
  let setup = ref [||] in
  while another_op ~seconds ~t0 ~ops:!op do
    incr op;
    o.attempted <- o.attempted + 1;
    let s0 = w.step_s in
    gc_window w (fun () ->
        for _ = 1 to steps_per_op do
          timed_step w ~particles:(local_particles sim) (one_step plain)
        done);
    Printf.eprintf "op %d: %.3f ms/step\n%!" !op ((w.step_s -. s0) *. 1e3 /. float_of_int steps_per_op);
    let e_plain, failures = finish_op plain in
    let failures =
      match traced with
      | None -> failures
      | Some ts ->
          for _ = 1 to steps_per_op do
            traced_step tr pc ts.st
          done;
          let e_traced, traced_failures = finish_op ts in
          Option.iter
            (fun dir -> saves := timed_save ts.st.Deck.sim ~dir ~gen:!op :: !saves)
            save_dir;
          let same = Int64.equal (Int64.bits_of_float e_traced) (Int64.bits_of_float e_plain) in
          failures @ traced_failures
          @ (if same then []
             else [ Printf.sprintf "traced energy %h <> untraced %h" e_traced e_plain ])
    in
    record_checks o ~op:!op failures;
    setup := Array.append !setup (time_builds (builds_per_op workload) build)
  done;
  let particles = plain.count0 in
  let peak_rss_mib = peak_rss_mib () in
  let layers =
    match traced with
    | None -> []
    | Some ts ->
        let tsim = ts.st.Deck.sim in
        let g = tsim.Simulation.grid in
        let vox = float_of_int (g.Grid.nx * g.Grid.ny * g.Grid.nz) in
        let steps = float_of_int tr.steps in
        let np = float_of_int particles in
        let per d x = if d > 0. then x /. d else 0. in
        let ns l d = per d (secs tr l *. 1e9) in
        let adv = float_of_int (pc.adv_interior + pc.adv_boundary) in
        let runs =
          List.fold_left
            (fun a sp ->
              let _, occ = Sort.occupancy sp in
              if occ > 0. then a +. (float_of_int (Species.count sp) /. occ)
              else a)
            0. (Simulation.species tsim)
        in
        let computed_bytes =
          (2. *. float_of_int Store.bytes_per_particle)
          +. per np
               (runs
               *. (Interpolator.bytes_per_voxel
                  +. (2. *. Accumulator.bytes_per_voxel)))
        in
        let phase_sum = Array.fold_left ( +. ) 0. tr.secs in
        let sum ls = List.fold_left (fun a l -> a +. secs tr l) 0. ls in
        let mean f =
          per (float_of_int (List.length !saves))
            (List.fold_left (fun a x -> a +. f x) 0. !saves)
        in
        [ ("push.interior.ns_per_particle",
           ns Push_interior (float_of_int pc.adv_interior));
          ("push.boundary.ns_per_particle",
           ns Push_boundary (float_of_int pc.adv_boundary));
          ("push.words_per_particle",
           per adv (words tr Push_interior +. words tr Push_boundary));
          ("push.block.cleanup_frac",
           per (float_of_int pc.lanes) (float_of_int pc.cleanup));
          ("push.flops_per_particle",
           per adv (flops tr Push_interior +. flops tr Push_boundary));
          ("push.computed_bytes_per_particle", computed_bytes);
          ("interp.load.ns_per_voxel", ns Interp (steps *. vox));
          ("interp.load.words_per_voxel", per (steps *. vox) (words tr Interp));
          ("accum.unload.ns_per_voxel", ns Accum (steps *. vox));
          ("accum.unload.words_per_voxel", per (steps *. vox) (words tr Accum));
          ("field.ns_per_voxel", ns Field (steps *. vox));
          ("clean.ns_per_voxel", ns Clean (float_of_int (calls tr Clean) *. vox));
          ("sentinel.ns_per_voxel",
           ns Sentinel (float_of_int pc.sentinel_checks *. vox));
          ("rho.ns_per_particle", ns Rho (float_of_int (calls tr Rho) *. np));
          ("sort.ns_per_particle", ns Sort (float_of_int (calls tr Sort) *. np));
          ("exchange.ns_per_step", ns Exchange steps);
          ("migrate.movers_per_step", per steps (float_of_int pc.movers));
          ("checkpoint.save_ms_per_gen", mean fst);
          ("checkpoint.bytes_per_gen", mean snd);
          ("driver.self_ms_per_step", per steps ((tr.step_s -. phase_sum) *. 1e3));
          ("trace.overhead_frac", per w.step_s (tr.step_s -. w.step_s));
          ("share.push", per tr.step_s (sum [ Push_interior; Push_boundary ]));
          ("share.field_layers",
           per tr.step_s
             (sum [ Interp; Accum; Field; Rho; Clean; Sentinel; Exchange ])) ]
  in
  let shares =
    if not trace then []
    else Array.to_list (Array.mapi (fun i n -> (n, tr.secs.(i) /. tr.step_s)) layer_names)
  in
  { e2e = w;
    setup = (if !setup = [||] then first_setup else !setup);
    particles;
    peak_rss_mib;
    outcome = o;
    layers;
    shares }

(* --------------------------------------------------- two-rank world *)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let absorbed_local (bs : Deck.block_setup) =
  List.fold_left
    (fun a (_, sim) -> a + sim.Simulation.push_stats.Push.absorbed)
    0 (Multiblock.owned_sims bs.Deck.mb)

let push_stats_local (bs : Deck.block_setup) =
  List.fold_left
    (fun a (_, sim) -> Push.sum_stats a sim.Simulation.push_stats)
    Push.zero_stats (Multiblock.owned_sims bs.Deck.mb)

let particles_local (bs : Deck.block_setup) =
  List.fold_left
    (fun a (_, sim) -> a + local_particles sim)
    0 (Multiblock.owned_sims bs.Deck.mb)

(* One stepped world of the pair; every field below is rank-local. *)
type mstream = {
  bs : Deck.block_setup;
  dir : string;
  mcount0 : int;
  mabsorbed0 : int;
  mutable menergy_prev : float;
}

(* Collective, like every diagnostic of the block driver. *)
let mstream comm bs ~dir =
  let mb = bs.Deck.mb in
  { bs;
    dir;
    mcount0 = Multiblock.total_particles mb;
    mabsorbed0 =
      int_of_float (Comm.allreduce_sum comm (float_of_int (absorbed_local bs)));
    menergy_prev = (Multiblock.energies mb).Simulation.total }

let mfinish_op comm ms =
  let mb = ms.bs.Deck.mb in
  let energy = (Multiblock.energies mb).Simulation.total in
  let present = Multiblock.total_particles mb in
  let absorbed =
    int_of_float (Comm.allreduce_sum comm (float_of_int (absorbed_local ms.bs)))
    - ms.mabsorbed0
  in
  let gauss = Multiblock.gauss_residual mb in
  let refl =
    Comm.allreduce_sum comm (Reflectivity.reflectivity ms.bs.Deck.refl)
    /. float_of_int (Comm.size comm)
  in
  let s = { energy; present; absorbed; gauss; refl; sentinel_violations = 0 } in
  let failures = check ~count0:ms.mcount0 ~energy_prev:ms.menergy_prev s in
  if Comm.rank comm = 0 then log_op s;
  ms.menergy_prev <- energy;
  (energy, failures)

(* The step of the loop: block-driver step, probe, and every
   [save_every] steps a checkpoint generation, inside the timed step. *)
let msave ms =
  let mb = ms.bs.Deck.mb in
  let n = Multiblock.nstep mb in
  if n mod save_every = 0 then begin
    Multiblock.save_generation mb ~dir:ms.dir ~gen:(n / save_every) ~keep:keep_gens;
    true
  end
  else false

(* What the traced world's ranks measure from outside the block driver. *)
type mtrace = {
  mb_step_s : float array;  (** per rank: [Multiblock.step] seconds *)
  park_s : float array;  (** per rank: comm-wait observer seconds *)
  busy_s : float array;  (** per rank: step + save seconds *)
  comm_bytes : float array;  (** per rank *)
  outbound : int array;  (** per rank: movers produced by the push *)
  lanes : int array;
  cleanup : int array;
  mutable save_ms : float list;  (** rank 0 *)
  mutable save_bytes : float list;  (** rank 0 *)
  mutable msteps : int;
  mutable traced_s : float;  (** rank 0 wall over the traced steps *)
}

let run_2rank ?(saves = true) ~seed ~seconds ~trace ~workdir () =
  let cfg = config "srs_2rank" ~seed in
  let setup = ref [||] and first_setup = ref [||] in
  let o = outcome () in
  let windows = Array.init ranks (fun _ -> window ()) in
  let particles = ref 0 in
  let in_progress = ref false in
  let mt =
    { mb_step_s = Array.make ranks 0.;
      park_s = Array.make ranks 0.;
      busy_s = Array.make ranks 0.;
      comm_bytes = Array.make ranks 0.;
      outbound = Array.make ranks 0;
      lanes = Array.make ranks 0;
      cleanup = Array.make ranks 0;
      save_ms = [];
      save_bytes = [];
      msteps = 0;
      traced_s = 0. }
  in
  let build_timed comm =
    Comm.barrier comm;
    let t0 = Perf.now () in
    let bs = Deck.build_over ~comm ~push_backend:backend ~blocks:blocks_2rank cfg in
    Comm.barrier comm;
    (bs, Perf.now () -. t0)
  in
  let keep = if trace then 2 else 1 in
  let rank_main comm =
    let rank = Comm.rank comm in
    let root = rank = 0 in
    (* [time_builds] for the pair, collective: each rank builds its
       blocks and drops them. *)
    let time_world_builds n =
      if root then fold_peak_rss ();
      let times =
        Array.init n (fun _ ->
            Gc.full_major ();
            let bs, dt = build_timed comm in
            ignore (Sys.opaque_identity bs);
            dt)
      in
      Gc.full_major ();
      Comm.barrier comm;
      if root then reset_peak_rss ();
      times
    in
    let times = time_world_builds 1 in
    if root then first_setup := times;
    let sts = List.init keep (fun _ -> fst (build_timed comm)) in
    List.iter
      (fun bs ->
        for _ = 1 to warmup_steps do
          Multiblock.step bs.Deck.mb;
          Deck.sample_over bs
        done)
      sts;
    let plain = mstream comm (List.hd sts) ~dir:(Filename.concat workdir "plain") in
    let traced =
      if trace then
        Some (mstream comm (List.nth sts 1) ~dir:(Filename.concat workdir "traced"))
      else None
    in
    if root then particles := plain.mcount0;
    let mb = plain.bs.Deck.mb in
    let steps_per_op =
      match Multiblock.owned_sims mb with
      | (_, sim) :: _ -> op_steps sim
      | [] -> assert false
    in
    let w = windows.(rank) in
    let t0 = Perf.now () in
    let op = ref 0 in
    let continue_ () =
      let mine = if another_op ~seconds ~t0 ~ops:!op then 1. else 0. in
      Comm.allreduce_max comm mine > 0.
    in
    while continue_ () do
      incr op;
      if root then begin
        o.attempted <- o.attempted + 1;
        in_progress := true
      end;
      gc_window w (fun () ->
          for _ = 1 to steps_per_op do
            timed_step w ~particles:(particles_local plain.bs) (fun () ->
                Multiblock.step mb;
                Deck.sample_over plain.bs;
                if saves then ignore (msave plain))
          done);
      let e_plain, failures = mfinish_op comm plain in
      let failures =
        match traced with
        | None -> failures
        | Some ts ->
            let tmb = ts.bs.Deck.mb in
            let m = Metrics.default () in
            let park0 = Metrics.value m "comm.park_s" in
            let bytes0 = Multiblock.comm_bytes tmb in
            let st0 = push_stats_local ts.bs in
            Metrics.install_comm_wait_observer ();
            for _ = 1 to steps_per_op do
              let t_a = Perf.now () in
              Multiblock.step tmb;
              let t_b = Perf.now () in
              Deck.sample_over ts.bs;
              let t_c = Perf.now () in
              let saved = saves && msave ts in
              let t_d = Perf.now () in
              mt.mb_step_s.(rank) <- mt.mb_step_s.(rank) +. (t_b -. t_a);
              mt.busy_s.(rank) <- mt.busy_s.(rank) +. (t_b -. t_a) +. (t_d -. t_c);
              if root then begin
                mt.msteps <- mt.msteps + 1;
                mt.traced_s <- mt.traced_s +. (t_d -. t_a);
                if saved then begin
                  mt.save_ms <- ((t_d -. t_c) *. 1e3) :: mt.save_ms;
                  let gen = Multiblock.nstep tmb / save_every in
                  mt.save_bytes <-
                    Array.fold_left ( +. ) 0.
                      (Checkpoint.block_file_sizes ~dir:ts.dir ~gen
                         ~nblocks:(Multiblock.nblocks tmb))
                    :: mt.save_bytes
                end
              end
            done;
            Comm.set_wait_observer None;
            let st1 = push_stats_local ts.bs in
            mt.park_s.(rank) <- mt.park_s.(rank) +. (Metrics.value m "comm.park_s" -. park0);
            mt.comm_bytes.(rank) <-
              mt.comm_bytes.(rank) +. (Multiblock.comm_bytes tmb -. bytes0);
            mt.outbound.(rank) <-
              mt.outbound.(rank) + (st1.Push.outbound - st0.Push.outbound);
            mt.lanes.(rank) <- mt.lanes.(rank) + (st1.Push.block_lanes - st0.Push.block_lanes);
            mt.cleanup.(rank) <-
              mt.cleanup.(rank) + (st1.Push.block_cleanup - st0.Push.block_cleanup);
            let e_traced, traced_failures = mfinish_op comm ts in
            let same =
              Int64.equal (Int64.bits_of_float e_traced) (Int64.bits_of_float e_plain)
            in
            failures @ traced_failures
            @
            if same then []
            else [ Printf.sprintf "traced energy %h <> untraced %h" e_traced e_plain ]
      in
      if root then begin
        record_checks o ~op:!op failures;
        in_progress := false
      end;
      let times = time_world_builds (builds_per_op "srs_2rank") in
      if root then setup := Array.append !setup times
    done
  in
  (try ignore (Comm.run ~ranks rank_main) with
  | e ->
      (* A dying rank ends the world: the operation it interrupted
         failed, and the run is not retried. *)
      o.died <- Some (Printexc.to_string e);
      if !in_progress then o.failed <- o.failed + 1;
      Printf.eprintf "srs_2rank: run died: %s\n%!" (Printexc.to_string e));
  let peak_rss_mib = peak_rss_mib () in
  remove_tree workdir;
  (* Rank 0's window is the wall clock and, through [Sys.time], the
     whole process's CPU; particle-steps and minor words are summed over
     both rank domains. *)
  let w = windows.(0) in
  let combined =
    { w with
      particle_steps = Array.fold_left (fun a (w : window) -> a +. w.particle_steps) 0. windows;
      words = Array.fold_left (fun a (w : window) -> a +. w.words) 0. windows }
  in
  let layers =
    if not trace then []
    else begin
      let sumf a = Array.fold_left ( +. ) 0. a in
      let sumi a = Array.fold_left ( + ) 0 a in
      let steps = float_of_int mt.msteps in
      let per d x = if d > 0. then x /. d else 0. in
      let mean l = per (float_of_int (List.length l)) (List.fold_left ( +. ) 0. l) in
      [ ("push.block.cleanup_frac",
         per (float_of_int (sumi mt.lanes)) (float_of_int (sumi mt.cleanup)));
        ("exchange.bytes_per_step", per steps (sumf mt.comm_bytes));
        ("comm.wait_frac", per (sumf mt.busy_s) (sumf mt.park_s));
        ("migrate.movers_per_step", per steps (float_of_int (sumi mt.outbound)));
        ("multiblock.step_ms.r0", per steps (mt.mb_step_s.(0) *. 1e3));
        ("multiblock.step_ms.r1", per steps (mt.mb_step_s.(1) *. 1e3));
        ("checkpoint.save_ms_per_gen", mean mt.save_ms);
        ("checkpoint.bytes_per_gen", mean mt.save_bytes);
        ("trace.overhead_frac",
         let plain_step = per (float_of_int (List.length w.step_ms)) w.step_s in
         per plain_step (per steps mt.traced_s -. plain_step)) ]
    end
  in
  { e2e = combined;
    setup = (if !setup = [||] then !first_setup else !setup);
    particles = !particles;
    peak_rss_mib;
    outcome = o;
    layers;
    shares = [] }

(* ------------------------------------------- srs_push, traced run *)

(* Layers only a decomposed run exercises, taken from the 2-rank world
   in [run_push_traced]. *)
let world_layers =
  [ "exchange.bytes_per_step"; "comm.wait_frac"; "migrate.movers_per_step";
    "multiblock.step_ms.r0"; "multiblock.step_ms.r1" ]

(* The traced run of srs_push.  Half the window steps the single-domain
   deck through the public phases, with one single-domain checkpoint
   generation saved after each traced operation; the other half steps
   the same deck on 2 ranks x 4 blocks (the srs_2rank world) with no
   checkpoint writes, for the comm, migration, block-driver and
   exchange-bytes layers.  srs_2rank's concurrent first saves can die on
   the lazy [Crc32.table] race, so they are left to that workload. *)
let run_push_traced ~seed ~seconds ~workdir =
  let half = 0.5 *. seconds in
  let local =
    run_local ~save_dir:(Filename.concat workdir "single") ~workload:"srs_push"
      ~seed ~seconds:half ~trace:true ()
  in
  let world =
    run_2rank ~saves:false ~seed ~seconds:half ~trace:true
      ~workdir:(Filename.concat workdir "world") ()
  in
  let lo = local.outcome and wo = world.outcome in
  let from_world (n, _) = List.mem n world_layers in
  { local with
    peak_rss_mib = Float.max local.peak_rss_mib world.peak_rss_mib;
    outcome =
      { attempted = lo.attempted + wo.attempted;
        failed = lo.failed + wo.failed;
        wrong = lo.wrong + wo.wrong;
        died = (if lo.died <> None then lo.died else wo.died) };
    layers =
      List.filter (fun l -> not (from_world l)) local.layers
      @ List.filter from_world world.layers }
