module Grid = Vpic_grid.Grid
module Bc = Vpic_grid.Bc
module Axis = Vpic_grid.Axis
module Species = Vpic_particle.Species
module Push = Vpic_particle.Push
module Movers = Vpic_particle.Push.Movers

type stats = { sent : int; received : int; settled : int; absorbed : int }

let floats_per_mover = Movers.stride

let exchange ?rng ~accum ports s fields (movers : Movers.t) =
  let bc = Exchange.bc ports in
  let g = s.Species.grid in
  let sent = ref 0 and received = ref 0 in
  let settled = ref 0 and absorbed = ref 0 in
  let pending = movers in
  let stride = Movers.stride in
  let open Bigarray.Array1 in
  (* A mover stops at its first Domain face, which can be any axis; after
     finishing on the neighbour it may need an axis the sweep already
     passed.  Each x->y->z sweep completes at least one crossing and a
     particle crosses at most three faces per step, so three sweeps always
     drain the buffer (all ranks run the same fixed count: collective). *)
  for _sweep = 1 to 3 do
    List.iter
      (fun axis ->
        let ax = Axis.index axis in
        let n_axis =
          match axis with
          | Axis.X -> g.Grid.nx
          | Axis.Y -> g.Grid.ny
          | Axis.Z -> g.Grid.nz
        in
        let ship side =
          match Bc.face bc axis side with
          | Bc.Domain _ ->
              let ghost, rebased =
                match side with `Lo -> (0, n_axis) | `Hi -> (n_axis + 1, 1)
              in
              (* Partition the pending buffer in place: movers sitting in
                 this axis ghost are copied into the migrate port's
                 staging buffer (axis cell rebased to the receiver's
                 frame, which has identical local dims), the rest compact
                 toward the front.  The staging buffer IS the packed
                 Float32 mover format — posting it is one flat copy. *)
              let buf = pending.Movers.buf in
              let nsend = ref 0 in
              for idx = 0 to pending.Movers.n - 1 do
                if int_of_float (unsafe_get buf ((idx * stride) + ax)) = ghost
                then incr nsend
              done;
              let dir = match side with `Lo -> 0 | `Hi -> 1 in
              let port, stg = Exchange.migrate_send ports ~axis ~dir in
              let stg =
                if dim stg < !nsend * stride then
                  Exchange.migrate_staging_grow ports ~axis ~dir
                    (!nsend * stride)
                else stg
              in
              let so = ref 0 in
              let kept = ref 0 in
              for idx = 0 to pending.Movers.n - 1 do
                let o = idx * stride in
                if int_of_float (unsafe_get buf (o + ax)) = ghost then begin
                  for q = 0 to stride - 1 do
                    unsafe_set stg (!so + q) (unsafe_get buf (o + q))
                  done;
                  unsafe_set stg (!so + ax) (float_of_int rebased);
                  so := !so + stride
                end
                else begin
                  if !kept <> idx then begin
                    let d = !kept * stride in
                    for q = 0 to stride - 1 do
                      unsafe_set buf (d + q) (unsafe_get buf (o + q))
                    done
                  end;
                  incr kept
                end
              done;
              pending.Movers.n <- !kept;
              sent := !sent + !nsend;
              Comm.port_post port stg ~len:(!nsend * stride);
              Exchange.add_migrate_bytes ports (!nsend * stride)
          | _ -> ()
        in
        ship `Lo;
        ship `Hi;
        let arrive side =
          match Bc.face bc axis side with
          | Bc.Domain _ ->
              (* Movers arriving across my lo face were sent by my lo
                 neighbour toward its hi side (dir = 1). *)
              let dir = match side with `Lo -> 1 | `Hi -> 0 in
              Comm.port_wait ?deadline:(Exchange.deadline ports)
                (Exchange.migrate_recv ports ~axis ~dir)
                ~f:(fun rbuf len ->
                  assert (len mod stride = 0);
                  let ms = Movers.of_wire rbuf (len / stride) in
                  received := !received + Movers.count ms;
                  (* Re-emitted movers land straight back in [pending]. *)
                  let st, ab, _re =
                    Push.finish_movers ~movers_out:pending ~accum ?rng s
                      fields bc ms
                  in
                  settled := !settled + st;
                  absorbed := !absorbed + ab)
          | _ -> ()
        in
        arrive `Lo;
        arrive `Hi)
      Axis.all
  done;
  assert (Movers.count pending = 0);
  { sent = !sent; received = !received; settled = !settled; absorbed = !absorbed }

(* ------------------------------------------------------ block world ---- *)

(* One species' runtime state on one owned block, for the block-routed
   sweep below.  [bc] faces carry neighbour {e block} ids. *)
type block_target = {
  id : int;
  bc : Bc.t;
  species : Species.t;
  fields : Vpic_field.Em_field.t;
  accum : Vpic_particle.Accumulator.t;
  rng : Vpic_util.Rng.t option;
  movers : Movers.t;
}

(* Same three-sweep schedule as [exchange], but routed by the ownership
   table: movers bound for a co-resident block finish directly into it
   (no wire), the rest travel through the block-keyed migrate ports.
   [targets] is indexed by block id (Some = owned here); [extent] gives
   any block's interior cell count along an axis — the rebasing offset,
   which with remainder-safe decomposition differs between blocks. *)
let exchange_blocks ports ~(targets : block_target option array) ~extent =
  let sent = ref 0 and received = ref 0 in
  let settled = ref 0 and absorbed = ref 0 in
  let stride = Movers.stride in
  let me = Exchange.Blocks.my_rank ports in
  let open Bigarray.Array1 in
  let finish_into (d : block_target) stg nsend =
    let ms = Movers.of_wire stg nsend in
    received := !received + nsend;
    let st, ab, _re =
      Push.finish_movers ~movers_out:d.movers ~accum:d.accum ?rng:d.rng
        d.species d.fields d.bc ms
    in
    settled := !settled + st;
    absorbed := !absorbed + ab
  in
  for _sweep = 1 to 3 do
    List.iter
      (fun axis ->
        let ax = Axis.index axis in
        (* ship: partition every owned block's pending buffer *)
        Array.iter
          (function
            | None -> ()
            | Some t ->
                let g = t.species.Species.grid in
                let n_axis =
                  match axis with
                  | Axis.X -> g.Grid.nx
                  | Axis.Y -> g.Grid.ny
                  | Axis.Z -> g.Grid.nz
                in
                let ship side =
                  match Bc.face t.bc axis side with
                  | Bc.Domain nbr ->
                      let ghost, rebased =
                        match side with
                        | `Lo -> (0, extent nbr axis)
                        | `Hi -> (n_axis + 1, 1)
                      in
                      let dir = match side with `Lo -> 0 | `Hi -> 1 in
                      let pending = t.movers in
                      let buf = pending.Movers.buf in
                      let nsend = ref 0 in
                      for idx = 0 to pending.Movers.n - 1 do
                        if
                          int_of_float (unsafe_get buf ((idx * stride) + ax))
                          = ghost
                        then incr nsend
                      done;
                      let stg =
                        Exchange.Blocks.migrate_staging ports ~dest:nbr ~axis
                          ~dir ~len:(!nsend * stride)
                      in
                      let so = ref 0 in
                      let kept = ref 0 in
                      for idx = 0 to pending.Movers.n - 1 do
                        let o = idx * stride in
                        if int_of_float (unsafe_get buf (o + ax)) = ghost
                        then begin
                          for q = 0 to stride - 1 do
                            unsafe_set stg (!so + q) (unsafe_get buf (o + q))
                          done;
                          unsafe_set stg (!so + ax) (float_of_int rebased);
                          so := !so + stride
                        end
                        else begin
                          if !kept <> idx then begin
                            let d = !kept * stride in
                            for q = 0 to stride - 1 do
                              unsafe_set buf (d + q) (unsafe_get buf (o + q))
                            done
                          end;
                          incr kept
                        end
                      done;
                      pending.Movers.n <- !kept;
                      sent := !sent + !nsend;
                      if Exchange.Blocks.owner_of ports nbr = me then begin
                        match targets.(nbr) with
                        | Some d -> finish_into d stg !nsend
                        | None -> assert false
                      end
                      else
                        Exchange.Blocks.migrate_post ports ~dest:nbr ~axis ~dir
                          stg ~len:(!nsend * stride)
                  | _ -> ()
                in
                ship `Lo;
                ship `Hi)
          targets;
        (* arrive: drain every owned block's remote faces *)
        Array.iter
          (function
            | None -> ()
            | Some t ->
                let arrive side =
                  match Bc.face t.bc axis side with
                  | Bc.Domain nbr
                    when Exchange.Blocks.owner_of ports nbr <> me ->
                      let dir = match side with `Lo -> 1 | `Hi -> 0 in
                      Comm.port_wait
                        ?deadline:(Exchange.Blocks.deadline ports)
                        (Exchange.Blocks.migrate_recv ports ~block:t.id ~axis
                           ~dir)
                        ~f:(fun rbuf len ->
                          assert (len mod stride = 0);
                          let ms = Movers.of_wire rbuf (len / stride) in
                          let n = Movers.count ms in
                          received := !received + n;
                          let st, ab, _re =
                            Push.finish_movers ~movers_out:t.movers
                              ~accum:t.accum ?rng:t.rng t.species t.fields
                              t.bc ms
                          in
                          settled := !settled + st;
                          absorbed := !absorbed + ab)
                  | _ -> ()
                in
                arrive `Lo;
                arrive `Hi)
          targets)
      Axis.all
  done;
  Array.iter
    (function
      | None -> ()
      | Some t -> assert (Movers.count t.movers = 0))
    targets;
  { sent = !sent; received = !received; settled = !settled; absorbed = !absorbed }
