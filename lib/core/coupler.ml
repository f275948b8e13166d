module Sf = Vpic_grid.Scalar_field
module Bc = Vpic_grid.Bc
module Em_field = Vpic_field.Em_field
module Boundary = Vpic_field.Boundary
module Species = Vpic_particle.Species

type t = {
  bc : Bc.t;
  fill_em : Em_field.t -> unit;
  fill_em_begin : Em_field.t -> unit;
  fill_em_finish : Em_field.t -> unit;
  fill_e : Em_field.t -> unit;
  fill_scalar : Sf.t -> unit;
  fill_list : Sf.t list -> unit;
  fold_currents : Em_field.t -> unit;
  fold_rho : Em_field.t -> unit;
  migrate :
    ?accum:Vpic_particle.Accumulator.t ->
    Species.t ->
    Em_field.t ->
    Vpic_particle.Push.Movers.t ->
    unit;
  reduce_sum : float -> float;
  reduce_max : float -> float;
  barrier : unit -> unit;
  comm_bytes : unit -> float;
  migrate_rng : Vpic_util.Rng.t option;
  rank : int;
  nranks : int;
}

(* [migrate] keeps an optional [?accum] label for callers written against
   it, but every finished move deposits into an accumulator: a missing
   one is a caller error, reported before any mover is touched. *)
let need_accum = function
  | Some accum -> accum
  | None ->
      invalid_arg
        "Coupler.migrate: no accumulator (pass ?accum, the one the step's \
         pushes deposited into)"

let local bc =
  { bc;
    fill_em = (fun f -> Boundary.fill_em bc f);
    (* Local ghosts are a plain copy: nothing to overlap, so the split
       fill degenerates to (no-op, full fill). *)
    fill_em_begin = (fun _ -> ());
    fill_em_finish = (fun f -> Boundary.fill_em bc f);
    fill_e = (fun f -> Boundary.fill_scalars bc (Em_field.e_components f));
    fill_scalar = (fun s -> Boundary.fill_scalars bc [ s ]);
    fill_list = (fun ss -> Boundary.fill_scalars bc ss);
    fold_currents = (fun f -> Boundary.fold_currents bc f);
    fold_rho = (fun f -> Boundary.fold_rho bc f);
    migrate =
      (fun ?accum _ _ movers ->
        ignore (need_accum accum);
        assert (Vpic_particle.Push.Movers.count movers = 0));
    reduce_sum = (fun x -> x);
    reduce_max = (fun x -> x);
    barrier = (fun () -> ());
    comm_bytes = (fun () -> 0.);
    migrate_rng = None;
    rank = 0;
    nranks = 1 }

(* One-entry memo keyed on physical equality: the coupler is called with
   the same Em_field every step, so the component list is built once, not
   once per exchange (the comm path stays allocation-free in steady
   state). *)
let memo1 build =
  let cache = ref None in
  fun f ->
    match !cache with
    | Some (f0, v) when f0 == f -> v
    | _ ->
        let v = build f in
        cache := Some (f, v);
        v

let parallel comm bc ~grid =
  let module Comm = Vpic_parallel.Comm in
  let module Exchange = Vpic_parallel.Exchange in
  let module Migrate = Vpic_parallel.Migrate in
  let ports = Exchange.create comm bc grid in
  let ems = memo1 Em_field.em_components in
  let es = memo1 Em_field.e_components in
  let js = memo1 Em_field.j_components in
  let migrate_rng = Vpic_util.Rng.of_int (0x5EED + Comm.rank comm) in
  { bc;
    fill_em = (fun f -> Exchange.fill_ghosts ports (ems f));
    fill_em_begin = (fun f -> Exchange.fill_begin ports (ems f));
    fill_em_finish = (fun f -> Exchange.fill_finish ports (ems f));
    fill_e = (fun f -> Exchange.fill_ghosts ports (es f));
    fill_scalar = (fun s -> Exchange.fill_ghosts ports [ s ]);
    fill_list = (fun ss -> Exchange.fill_ghosts ports ss);
    fold_currents = (fun f -> Exchange.fold_ghosts ports (js f));
    fold_rho = (fun f -> Exchange.fold_ghosts ports [ f.Em_field.rho ]);
    migrate =
      (fun ?accum s f movers ->
        let accum = need_accum accum in
        ignore (Migrate.exchange ~rng:migrate_rng ~accum ports s f movers));
    reduce_sum = (fun x -> Comm.allreduce_sum comm x);
    reduce_max = (fun x -> Comm.allreduce_max comm x);
    barrier = (fun () -> Comm.barrier comm);
    comm_bytes = (fun () -> Exchange.bytes_moved ports);
    migrate_rng = Some migrate_rng;
    rank = Comm.rank comm;
    nranks = Comm.size comm }

let marder_hooks t f =
  { Vpic_field.Marder.fill_e = (fun () -> t.fill_e f);
    fill_scalar = (fun s -> t.fill_scalar s) }
