module Grid = Vpic_grid.Grid
module Sf = Vpic_grid.Scalar_field
module Em_field = Vpic_field.Em_field
module Species = Vpic_particle.Species
module Store = Vpic_particle.Store
module Crc32 = Vpic_util.Crc32
module Rng = Vpic_util.Rng
module Fault = Vpic_util.Fault

let format_version = 8

exception Corrupt of { path : string; reason : string }
exception Version_mismatch of { path : string; found : int; expected : int }

type grid_snap = {
  nx : int;
  ny : int;
  nz : int;
  lx : float;
  ly : float;
  lz : float;
  dt : float;
  x0 : float;
  y0 : float;
  z0 : float;
}

(* Everything needed to rebuild an identical [Simulation.make] call plus
   the step counter and both RNG streams, so a restored run continues
   bitwise — including [Refluxing]-face re-emission, whose draws come
   from [push_rng] (serial and local crossings) and [migrate_rng]
   (crossings finished on the neighbour rank). *)
type meta_snap = {
  nstep : int;
  grid : grid_snap;
  sort_interval : int;
  clean_div_interval : int;
  marder_passes : int;
  current_filter_passes : int;
  absorber_thickness : int;
  absorber_strength : float;
  pusher : Vpic_particle.Push.kind;
  push_rng : Rng.state;
  migrate_rng : Rng.state option;
  (* v6: over-decomposition identity.  Classic per-rank checkpoints
     carry (0, 1); a per-block file records which of how many blocks it
     holds, so a restore (or a rebalance receive) can sanity-check the
     wire bytes against the slot they are about to fill. *)
  block_id : int;
  nblocks : int;
  (* v7: worker-team lanes of the saving rank — informational (the team
     never affects physics: results are worker-count invariant).  A
     restore does NOT recreate the team from this; the restoring driver
     installs its own live pool via [Simulation.set_pool]. *)
  workers : int;
}

(* Particle data is serialised as the store's own Float32/Int32
   bigarrays (trimmed to np): Marshal writes bigarray contents through
   their custom serialiser, so the round-trip is bit-exact and the file
   carries 32 bytes per particle, like the in-memory layout. *)
type species_snap = {
  sname : string;
  q : float;
  m : float;
  voxel : Store.i32;
  fx : Store.f32;
  fy : Store.f32;
  fz : Store.f32;
  ux : Store.f32;
  uy : Store.f32;
  uz : Store.f32;
  w : Store.f32;
}

type fields_snap = (string * float array) list

(* ------------------------------------------------------- wire format ---- *)

(* Layout: an 8-byte magic, a 4-byte big-endian format version, then
   three sections (meta, fields, species), each a 4-byte length, a 4-byte
   CRC-32 and that many Marshal payload bytes.  Checksums are verified
   BEFORE any byte reaches [Marshal.from_bytes]: unmarshalling corrupted
   input is undefined behaviour, a mismatch here is a typed error the
   generation fallback can act on. *)

let magic = "VPICCKPT"

(* The wire image is built and parsed in memory ([bytes]): the same
   encoding lands on disk through [save] and on the rebalance mailbox
   when a live block relocates mid-run. *)

let buf_u32 b v =
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr (v land 0xFF))

let buf_section b payload =
  buf_u32 b (Bytes.length payload);
  buf_u32 b (Int32.to_int (Crc32.bytes payload) land 0xFFFFFFFF);
  Buffer.add_bytes b payload

let get_u32 data pos path =
  if pos + 4 > Bytes.length data then
    raise (Corrupt { path; reason = "truncated header" });
  let g i = Char.code (Bytes.get data (pos + i)) in
  (g 0 lsl 24) lor (g 1 lsl 16) lor (g 2 lsl 8) lor g 3

(* Returns (payload, next position). *)
let get_section data pos path ~what =
  let len = get_u32 data pos path in
  let crc = get_u32 data (pos + 4) path in
  if len < 0 || pos + 8 + len > Bytes.length data then
    raise
      (Corrupt
         { path;
           reason = Printf.sprintf "%s section length %d exceeds file" what len });
  let payload = Bytes.sub data (pos + 8) len in
  let found = Int32.to_int (Crc32.bytes payload) land 0xFFFFFFFF in
  if found <> crc then
    raise
      (Corrupt
         { path;
           reason =
             Printf.sprintf "%s section checksum mismatch (%08x, expected %08x)"
               what found crc });
  (payload, pos + 8 + len)

(* -------------------------------------------------------------- save ---- *)

let floats_of_sf sf =
  let d = Sf.data sf in
  Array.init (Bigarray.Array1.dim d) (Bigarray.Array1.get d)

let floats_into_sf arr sf =
  let d = Sf.data sf in
  assert (Array.length arr = Bigarray.Array1.dim d);
  Array.iteri (Bigarray.Array1.set d) arr

let trim_f32 (a : Store.f32) np =
  let out = Store.f32_create np in
  Bigarray.Array1.(blit (sub a 0 np) out);
  out

let trim_i32 (a : Store.i32) np =
  let out = Store.i32_create np in
  Bigarray.Array1.(blit (sub a 0 np) out);
  out

let snap_species (s : Species.t) =
  let st = s.Species.store in
  let np = Store.count st in
  { sname = s.Species.name;
    q = s.Species.q;
    m = s.Species.m;
    voxel = trim_i32 st.Store.voxel np;
    fx = trim_f32 st.Store.fx np;
    fy = trim_f32 st.Store.fy np;
    fz = trim_f32 st.Store.fz np;
    ux = trim_f32 st.Store.ux np;
    uy = trim_f32 st.Store.uy np;
    uz = trim_f32 st.Store.uz np;
    w = trim_f32 st.Store.w np }

let snap_meta ~block_id ~nblocks (t : Simulation.t) =
  let g = t.Simulation.grid in
  let lx, ly, lz = Grid.extent g in
  { nstep = t.Simulation.nstep;
    grid =
      { nx = g.Grid.nx;
        ny = g.Grid.ny;
        nz = g.Grid.nz;
        lx;
        ly;
        lz;
        dt = g.Grid.dt;
        x0 = g.Grid.x0;
        y0 = g.Grid.y0;
        z0 = g.Grid.z0 };
    sort_interval = t.Simulation.sort_interval;
    clean_div_interval = t.Simulation.clean_div_interval;
    marder_passes = t.Simulation.marder_passes;
    current_filter_passes = t.Simulation.current_filter_passes;
    absorber_thickness = t.Simulation.absorber_thickness;
    absorber_strength = t.Simulation.absorber_strength;
    pusher = t.Simulation.pusher;
    push_rng = Rng.state t.Simulation.push_rng;
    migrate_rng =
      Option.map Rng.state t.Simulation.coupler.Coupler.migrate_rng;
    block_id;
    nblocks;
    workers = (Simulation.pool t).Vpic_util.Pool.lanes }

let encode ?(block_id = 0) ?(nblocks = 1) (t : Simulation.t) =
  let meta = Marshal.to_bytes (snap_meta ~block_id ~nblocks t) [] in
  let fields : fields_snap =
    List.map
      (fun (name, sf) -> (name, floats_of_sf sf))
      (Em_field.named_components t.Simulation.fields)
  in
  let fields = Marshal.to_bytes fields [] in
  let species =
    Marshal.to_bytes (List.map snap_species (Simulation.species t)) []
  in
  let b =
    Buffer.create
      (String.length magic + 4 + 24 + Bytes.length meta + Bytes.length fields
     + Bytes.length species)
  in
  Buffer.add_string b magic;
  buf_u32 b format_version;
  buf_section b meta;
  buf_section b fields;
  buf_section b species;
  Buffer.to_bytes b

(* Atomic: land the complete file under a temporary name in the same
   directory, then rename over [path].  A crash mid-write leaves the
   previous checkpoint (or nothing) — never a short file under the
   committed name; the temp file is unlinked on every failure. *)
let write_image image path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_bytes oc image)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let save ?block_id ?nblocks (t : Simulation.t) path =
  write_image (encode ?block_id ?nblocks t) path

let save_attempts = 3
let retry_backoff_base = 0.002

(* Bounded retry for transient checkpoint I/O: up to [save_attempts]
   tries with exponential backoff and seed-deterministic jitter (keyed
   on the path and the attempt number, so reruns sleep the same
   schedule).  [write_image] unlinks the temp file on every failed
   attempt, so retries never collide with debris.  The
   [Fault.io_failure] probe simulates a transient failure after the
   temp file has been written — exercising exactly the
   unlink-then-retry path. *)
let save_retrying ?block_id ?nblocks ~rank (t : Simulation.t) path =
  let image = encode ?block_id ?nblocks t in
  let attempt_once () =
    if Fault.io_failure ~rank ~path then begin
      let tmp = path ^ ".tmp" in
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_bytes oc image);
      (try Sys.remove tmp with Sys_error _ -> ());
      raise (Sys_error (path ^ ": injected transient I/O failure"))
    end
    else write_image image path
  in
  let rec go attempt =
    match attempt_once () with
    | () -> ()
    | exception (Sys_error _ as e) ->
        if attempt >= save_attempts then raise e
        else begin
          let r = Rng.of_int (Hashtbl.hash (path, attempt)) in
          let jitter = float_of_int (Rng.int r 1000) /. 1000. in
          Unix.sleepf
            (retry_backoff_base
            *. float_of_int (1 lsl (attempt - 1))
            *. (1. +. jitter));
          go (attempt + 1)
        end
  in
  go 1

(* -------------------------------------------------------------- load ---- *)

let decode_raw ~unmarshal ~path data =
  let mlen = String.length magic in
  if Bytes.length data < mlen || Bytes.sub_string data 0 mlen <> magic then
    raise (Corrupt { path; reason = "bad magic (not a checkpoint)" });
  let found = get_u32 data mlen path in
  if found <> format_version then
    raise (Version_mismatch { path; found; expected = format_version });
  let meta_b, pos = get_section data (mlen + 4) path ~what:"meta" in
  let fields_b, pos = get_section data pos path ~what:"fields" in
  let species_b, _ = get_section data pos path ~what:"species" in
  if not unmarshal then None
  else begin
    (* CRCs passed, so these bytes are exactly what [encode] wrote;
       wrap residual Marshal failures as corruption anyway. *)
    try
      let meta : meta_snap = Marshal.from_bytes meta_b 0 in
      let fields : fields_snap = Marshal.from_bytes fields_b 0 in
      let species : species_snap list = Marshal.from_bytes species_b 0 in
      Some (meta, fields, species)
    with Failure reason -> raise (Corrupt { path; reason })
  end

let bytes_of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let size = in_channel_length ic in
      let data = Bytes.create size in
      (try really_input ic data 0 size
       with End_of_file -> raise (Corrupt { path; reason = "short read" }));
      data)

let read_raw ~unmarshal path = decode_raw ~unmarshal ~path (bytes_of_file path)

(* Checksum-verify [path] without unmarshalling or building a simulation. *)
let verify path =
  match read_raw ~unmarshal:false path with
  | _ -> Ok ()
  | exception Corrupt { reason; _ } -> Error reason
  | exception Version_mismatch { found; expected; _ } ->
      Error (Printf.sprintf "format version %d, expected %d" found expected)
  | exception Sys_error reason -> Error reason

let build ?perf ~coupler ~path (meta, fields, species) =
  let gs = meta.grid in
  let grid =
    Grid.make ~nx:gs.nx ~ny:gs.ny ~nz:gs.nz ~lx:gs.lx ~ly:gs.ly ~lz:gs.lz
      ~dt:gs.dt ~x0:gs.x0 ~y0:gs.y0 ~z0:gs.z0 ()
  in
  let t =
    Simulation.make ~sort_interval:meta.sort_interval
      ~clean_div_interval:meta.clean_div_interval
      ~marder_passes:meta.marder_passes
      ~absorber_thickness:meta.absorber_thickness
      ~absorber_strength:meta.absorber_strength
      ~current_filter_passes:meta.current_filter_passes ~pusher:meta.pusher
      ?perf ~grid ~coupler ()
  in
  t.Simulation.nstep <- meta.nstep;
  (* meta.workers is a provenance note only — the restoring driver owns
     the live team (Simulation.set_pool); do not resurrect it here. *)
  ignore meta.workers;
  Rng.set_state t.Simulation.push_rng meta.push_rng;
  (match (coupler.Coupler.migrate_rng, meta.migrate_rng) with
  | Some r, Some st -> Rng.set_state r st
  | _ -> ());
  List.iter
    (fun (name, data) ->
      match List.assoc_opt name (Em_field.named_components t.Simulation.fields) with
      | Some sf -> floats_into_sf data sf
      | None ->
          raise (Corrupt { path; reason = "unknown field component " ^ name }))
    fields;
  List.iter
    (fun ss ->
      let s = Simulation.add_species t ~name:ss.sname ~q:ss.q ~m:ss.m in
      let np = Bigarray.Array1.dim ss.w in
      Species.reserve s np;
      (* Blit straight into the store: no float conversion touches the
         data, so restart is bitwise identical. *)
      let st = s.Species.store in
      let open Bigarray.Array1 in
      blit ss.voxel (sub st.Store.voxel 0 np);
      blit ss.fx (sub st.Store.fx 0 np);
      blit ss.fy (sub st.Store.fy 0 np);
      blit ss.fz (sub st.Store.fz 0 np);
      blit ss.ux (sub st.Store.ux 0 np);
      blit ss.uy (sub st.Store.uy 0 np);
      blit ss.uz (sub st.Store.uz 0 np);
      blit ss.w (sub st.Store.w 0 np);
      st.Store.np <- np)
    species;
  t

let unpack x = match x with Some x -> x | None -> assert false

let load ~coupler path =
  build ~coupler ~path (unpack (read_raw ~unmarshal:true path))

let decode ?expect_block ?perf ~coupler data =
  let path = "<wire>" in
  let ((meta, _, _) as snaps) = unpack (decode_raw ~unmarshal:true ~path data) in
  (match expect_block with
  | Some b when meta.block_id <> b ->
      raise
        (Corrupt
           { path;
             reason =
               Printf.sprintf "encoded block %d arriving in slot %d"
                 meta.block_id b })
  | _ -> ());
  build ?perf ~coupler ~path snaps

(* -------------------------------------------------------- generations ---- *)

(* A run directory holds one subdirectory per generation (one file per
   rank) plus a MANIFEST listing the generations whose every rank file
   has landed.  Commit protocol: all ranks write their file (atomically),
   barrier, then rank 0 rewrites the manifest (atomically) and prunes
   generations beyond the retention window.  A crash anywhere leaves the
   manifest pointing only at complete generations. *)

let manifest_path dir = Filename.concat dir "MANIFEST"
let manifest_magic = "vpic-checkpoint-manifest 1"
let generation_dir ~dir ~gen = Filename.concat dir (Printf.sprintf "gen%08d" gen)

let generation_path ~dir ~gen ~rank =
  Filename.concat (generation_dir ~dir ~gen) (Printf.sprintf "rank%04d.ckpt" rank)

(* Per-block files of an over-decomposed run: named by block id, not by
   rank, so any rank can restore any block under a fresh ownership. *)
let block_path ~dir ~gen ~block =
  Filename.concat (generation_dir ~dir ~gen) (Printf.sprintf "blk%05d.ckpt" block)

let mkdir_exist_ok d =
  try Unix.mkdir d 0o755
  with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let load_block ?expect_block ?perf ~coupler path =
  decode ?expect_block ?perf ~coupler (bytes_of_file path)

(* ---------------------------------------------------- recovery manifest ---- *)

(* While a recovery is in progress the world has agreed to roll back to
   one specific generation; this side manifest records that agreement so
   (a) the retention pruner never deletes the generation out from under
   the rollback, and (b) a post-mortem can see what the world decided.
   Written atomically by the recovery root, cleared by the next
   successful checkpoint commit (at which point the newer generation
   supersedes the pinned one). *)

type recovery = { rollback_gen : int; epoch : int; dead : int list }

let recovery_manifest_path dir = Filename.concat dir "RECOVERY"
let recovery_magic = "vpic-recovery-manifest 1"

let write_recovery_manifest ~dir r =
  mkdir_exist_ok dir;
  let path = recovery_manifest_path dir in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (recovery_magic ^ "\n");
      Printf.fprintf oc "gen %d\n" r.rollback_gen;
      Printf.fprintf oc "epoch %d\n" r.epoch;
      List.iter (fun rk -> Printf.fprintf oc "dead %d\n" rk) r.dead);
  Sys.rename tmp path

let read_recovery_manifest ~dir =
  let path = recovery_manifest_path dir in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let lines =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | l -> go (l :: acc)
            | exception End_of_file -> List.rev acc
          in
          go [])
    in
    match lines with
    | hd :: rest when hd = recovery_magic ->
        let g = ref (-1) and ep = ref 0 and dead = ref [] in
        List.iter
          (fun l ->
            match String.split_on_char ' ' l with
            | [ "gen"; n ] -> g := int_of_string n
            | [ "epoch"; n ] -> ep := int_of_string n
            | [ "dead"; n ] -> dead := int_of_string n :: !dead
            | [] | [ "" ] -> ()
            | _ -> raise (Corrupt { path; reason = "malformed line: " ^ l }))
          rest;
        Some { rollback_gen = !g; epoch = !ep; dead = List.sort compare !dead }
    | _ -> raise (Corrupt { path; reason = "bad recovery manifest header" })
  end

let clear_recovery_manifest ~dir =
  try Sys.remove (recovery_manifest_path dir) with Sys_error _ -> ()

(* keep-K retention partition, with the pruning-safety guard: the
   generation pinned by an in-progress recovery manifest is never
   dropped, whatever the retention window says. *)
let retention ~dir ~keep all =
  let drop = max 0 (List.length all - keep) in
  let dropped, kept =
    List.partition
      (let i = ref 0 in
       fun _ ->
         incr i;
         !i <= drop)
      all
  in
  match read_recovery_manifest ~dir with
  | Some r when List.mem r.rollback_gen dropped ->
      ( List.filter (fun g -> g <> r.rollback_gen) dropped,
        List.sort compare (r.rollback_gen :: kept) )
  | _ -> (dropped, kept)

(* ------------------------------------------------- generation ownership ---- *)

(* Each committed generation records the block -> rank ownership at save
   time ("b r" lines).  Recovery reads it back as the pre-failure
   baseline for {!Vpic_parallel.Rebalance.adopt}: runtime ownership may
   have diverged across ranks when a rank died mid-rebalance, but the
   checkpoint-time table is on shared disk and therefore agreed. *)

let owners_path ~dir ~gen =
  Filename.concat (generation_dir ~dir ~gen) "OWNERS"

let write_gen_owners ~dir ~gen owners =
  let path = owners_path ~dir ~gen in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Array.iteri (fun b r -> Printf.fprintf oc "%d %d\n" b r) owners);
  Sys.rename tmp path

let read_gen_owners ~dir ~gen ~nblocks =
  let path = owners_path ~dir ~gen in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let owners = Array.make nblocks (-1) in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | l ->
              (match String.split_on_char ' ' l with
              | [ b; r ] ->
                  let b = int_of_string b in
                  if b >= 0 && b < nblocks then owners.(b) <- int_of_string r
              | _ -> raise (Corrupt { path; reason = "malformed line: " ^ l }));
              go ()
          | exception End_of_file -> ()
        in
        go ());
    Some owners
  end

(* Per-block checkpoint file sizes of a generation: the deterministic
   shared-disk cost vector recovery feeds to the adoption planner (file
   size is dominated by particle count, i.e. push cost).  Missing files
   cost 0. *)
let block_file_sizes ~dir ~gen ~nblocks =
  Array.init nblocks (fun b ->
      match Unix.stat (block_path ~dir ~gen ~block:b) with
      | s -> float_of_int s.Unix.st_size
      | exception Unix.Unix_error _ -> 0.)

(* [nblocks] = 0 marks a classic one-file-per-rank run; > 0 an
   over-decomposed one-file-per-block run (whose [nranks] is 0: block
   files are rank-agnostic). *)
type manifest = {
  nranks : int;
  nblocks : int;
  generations : int list; (* ascending *)
}

let read_manifest dir =
  let path = manifest_path dir in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let lines =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | l -> go (l :: acc)
            | exception End_of_file -> List.rev acc
          in
          go [])
    in
    match lines with
    | hd :: rest when hd = manifest_magic ->
        let nranks = ref 0 and nblocks = ref 0 and gens = ref [] in
        List.iter
          (fun l ->
            match String.split_on_char ' ' l with
            | [ "nranks"; n ] -> nranks := int_of_string n
            | [ "nblocks"; n ] -> nblocks := int_of_string n
            | [ "gen"; g ] -> gens := int_of_string g :: !gens
            | [] | [ "" ] -> ()
            | _ -> raise (Corrupt { path; reason = "malformed line: " ^ l }))
          rest;
        Some
          { nranks = !nranks;
            nblocks = !nblocks;
            generations = List.sort compare !gens }
    | _ -> raise (Corrupt { path; reason = "bad manifest header" })
  end

let write_manifest dir m =
  let path = manifest_path dir in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (manifest_magic ^ "\n");
      Printf.fprintf oc "nranks %d\n" m.nranks;
      if m.nblocks > 0 then Printf.fprintf oc "nblocks %d\n" m.nblocks;
      List.iter (fun g -> Printf.fprintf oc "gen %d\n" g) m.generations);
  Sys.rename tmp path

let rm_rf_generation ~dir ~gen =
  let d = generation_dir ~dir ~gen in
  if Sys.file_exists d then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
      (Sys.readdir d);
    try Unix.rmdir d with Unix.Unix_error _ -> ()
  end

let sid_checkpoint = Vpic_telemetry.Trace.intern "checkpoint"

let save_generation (t : Simulation.t) ~dir ~gen ~keep =
  Vpic_telemetry.Trace.with_span sid_checkpoint @@ fun () ->
  assert (keep >= 1);
  let c = t.Simulation.coupler in
  let rank = c.Coupler.rank in
  if rank = 0 then begin
    mkdir_exist_ok dir;
    mkdir_exist_ok (generation_dir ~dir ~gen)
  end;
  (* Directories exist before any rank writes. *)
  c.Coupler.barrier ();
  let path = generation_path ~dir ~gen ~rank in
  save t path;
  Fault.checkpoint_written ~rank ~gen ~path;
  (* Every rank's file is on disk before the generation is committed. *)
  c.Coupler.barrier ();
  if rank = 0 then begin
    let prev =
      match read_manifest dir with
      | Some m ->
          if m.nblocks <> 0 then
            raise
              (Corrupt
                 { path = manifest_path dir;
                   reason = "manifest is for a per-block run" });
          if m.nranks <> 0 && m.nranks <> c.Coupler.nranks then
            raise
              (Corrupt
                 { path = manifest_path dir;
                   reason =
                     Printf.sprintf "manifest is for %d ranks, running %d"
                       m.nranks c.Coupler.nranks });
          List.filter (fun g -> g <> gen) m.generations
      | None -> []
    in
    let all = List.sort compare (gen :: prev) in
    let dropped, kept = retention ~dir ~keep all in
    write_manifest dir
      { nranks = c.Coupler.nranks; nblocks = 0; generations = kept };
    List.iter (fun g -> rm_rf_generation ~dir ~gen:g) dropped
  end

let committed_generations ~dir =
  match read_manifest dir with None -> [] | Some m -> m.generations

let load_latest_valid ~coupler ~dir =
  let c = coupler in
  let gens =
    match read_manifest dir with
    | None -> []
    | Some m ->
        if m.nranks <> 0 && m.nranks <> c.Coupler.nranks then
          raise
            (Corrupt
               { path = manifest_path dir;
                 reason =
                   Printf.sprintf "manifest is for %d ranks, running %d"
                     m.nranks c.Coupler.nranks });
        List.rev m.generations (* newest first *)
  in
  (* Collective: every rank walks the same generation list; a generation
     is usable only when every rank's file verifies, so the fallback
     decision is taken in lockstep (1.0 per valid rank, summed). *)
  let rec pick = function
    | [] -> None
    | g :: rest ->
        let mine =
          match verify (generation_path ~dir ~gen:g ~rank:c.Coupler.rank) with
          | Ok () -> 1.
          | Error _ -> 0.
        in
        let valid = c.Coupler.reduce_sum mine in
        if int_of_float valid = c.Coupler.nranks then Some g else pick rest
  in
  match pick gens with
  | None -> None
  | Some g ->
      Some (load ~coupler (generation_path ~dir ~gen:g ~rank:c.Coupler.rank), g)

(* ------------------------------------------------- block generations ---- *)

(* The over-decomposed analogue of [save_generation]: one file per
   {e block}, written by whichever rank owns it at checkpoint time.  The
   commit protocol is unchanged (write all, barrier, rank 0 manifests),
   but the manifest records [nblocks] instead of a rank count — the
   files are rank-agnostic, so a restore may run on any rank count and
   any ownership. *)
let save_generation_blocks ?(root = 0) ?owners ~dir ~gen ~keep ~rank ~nranks:_
    ~nblocks ~barrier ~owned () =
  Vpic_telemetry.Trace.with_span sid_checkpoint @@ fun () ->
  assert (keep >= 1);
  if rank = root then begin
    mkdir_exist_ok dir;
    mkdir_exist_ok (generation_dir ~dir ~gen)
  end;
  barrier ();
  List.iter
    (fun (b, sim) ->
      let path = block_path ~dir ~gen ~block:b in
      save_retrying ~block_id:b ~nblocks ~rank sim path;
      Fault.checkpoint_written ~rank ~gen ~path)
    owned;
  (* Die-during-checkpoint window: block files are on disk but the
     generation is not yet committed.  A recovery started here must not
     see this generation in the manifest. *)
  Fault.checkpoint_kill_point ~rank ~gen;
  barrier ();
  if rank = root then begin
    let prev =
      match read_manifest dir with
      | Some m ->
          if m.nblocks <> 0 && m.nblocks <> nblocks then
            raise
              (Corrupt
                 { path = manifest_path dir;
                   reason =
                     Printf.sprintf "manifest is for %d blocks, running %d"
                       m.nblocks nblocks });
          if m.nblocks = 0 && m.generations <> [] then
            raise
              (Corrupt
                 { path = manifest_path dir;
                   reason = "manifest is for a per-rank run" });
          List.filter (fun g -> g <> gen) m.generations
      | None -> []
    in
    let all = List.sort compare (gen :: prev) in
    let dropped, kept = retention ~dir ~keep all in
    (* Ownership-at-save lands next to the block files, then the
       manifest commits both atomically (the manifest is the commit
       point; an OWNERS file without a manifest entry is inert). *)
    Option.iter (fun o -> write_gen_owners ~dir ~gen o) owners;
    write_manifest dir { nranks = 0; nblocks; generations = kept };
    List.iter (fun g -> rm_rf_generation ~dir ~gen:g) dropped;
    (* A freshly committed generation supersedes any rollback target an
       earlier recovery pinned. *)
    clear_recovery_manifest ~dir
  end

(* Collective pick of the newest manifest generation whose every block
   file verifies.  [mine] is this rank's verification slice — callers
   split the [nblocks] files so each is checked exactly once across the
   world — and the pass/fail decision is taken in lockstep through
   [reduce_sum] (1.0 per valid file, summed).  Recovery reuses this with
   a mod-slice over the {e live} rank list, so a shrunken world agrees
   on the rollback target the same way a restart agrees on its restore
   point. *)
let pick_latest_valid_gen ~dir ~nblocks ~mine ~reduce_sum =
  let gens =
    match read_manifest dir with
    | None -> []
    | Some m ->
        if m.nblocks <> nblocks then
          raise
            (Corrupt
               { path = manifest_path dir;
                 reason =
                   Printf.sprintf "manifest is for %d blocks, running %d"
                     m.nblocks nblocks });
        List.rev m.generations (* newest first *)
  in
  let rec pick = function
    | [] -> None
    | g :: rest ->
        let ok =
          List.fold_left
            (fun acc b ->
              match verify (block_path ~dir ~gen:g ~block:b) with
              | Ok () -> acc +. 1.
              | Error _ -> acc)
            0. mine
        in
        if int_of_float (reduce_sum ok) = nblocks then Some g else pick rest
  in
  pick gens

(* Pick the newest valid generation, then each rank loads the blocks
   [owner] assigns to it ([coupler_of b] supplies block [b]'s coupler;
   [perf] is shared).  Verification is split by the restoring ownership. *)
let load_latest_valid_blocks ?perf ~dir ~rank ~nranks ~nblocks ~reduce_sum
    ~owner ~coupler_of () =
  ignore nranks;
  let mine = List.filter (fun b -> owner.(b) = rank) (List.init nblocks Fun.id) in
  match pick_latest_valid_gen ~dir ~nblocks ~mine ~reduce_sum with
  | None -> None
  | Some g ->
      let blocks =
        List.map
          (fun b ->
            let path = block_path ~dir ~gen:g ~block:b in
            (b, load_block ~expect_block:b ?perf ~coupler:(coupler_of b) path))
          mine
      in
      Some (blocks, g)
