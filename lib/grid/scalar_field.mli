(** A scalar quantity stored on every voxel of a grid (including ghosts),
    backed by a flat float64 bigarray.  One of these per field component. *)

type data = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type t

val create : Grid.t -> t
val grid : t -> Grid.t
val data : t -> data

(** {1 Element access} *)

val get : t -> int -> int -> int -> float
val set : t -> int -> int -> int -> float -> unit
val add : t -> int -> int -> int -> float -> unit

(** Raw flat-voxel access (hot paths precompute voxel indices). *)
val get_v : t -> int -> float

val set_v : t -> int -> float -> unit
val add_v : t -> int -> float -> unit

(** {1 Whole-array operations} *)

val fill : t -> float -> unit
val copy : t -> t
val blit : src:t -> dst:t -> unit

(** [axpy a x y] does y <- a*x + y over all voxels. *)
val axpy : float -> t -> t -> unit

val map_inplace : t -> (float -> float) -> unit

(** Set (i,j,k)-dependent values over every voxel including ghosts. *)
val set_all : t -> (int -> int -> int -> float) -> unit

(** {1 Interior reductions} *)

val sum_interior : t -> float
val sum_sq_interior : t -> float
val max_abs_interior : t -> float

(** Max |a-b| over interior voxels. *)
val max_abs_diff_interior : t -> t -> float

(** {1 Plane operations}

    A plane is the set of voxels with a fixed index along [axis]; it spans
    the {e full allocated extent} (ghosts included) of the two other axes,
    in (fast axis first) row-major order.  These primitives implement both
    periodic boundaries and the parallel ghost exchange. *)

(** Number of voxels in a plane perpendicular to [axis]. *)
val plane_size : Grid.t -> axis:Axis.t -> int

val extract_plane : t -> axis:Axis.t -> index:int -> float array

(** Write [values] (length [plane_size]) into the plane. *)
val set_plane : t -> axis:Axis.t -> index:int -> float array -> unit

(** [copy_plane f ~axis ~src ~dst] copies plane [src] onto plane [dst]. *)
val copy_plane : t -> axis:Axis.t -> src:int -> dst:int -> unit

(** [accumulate_plane f ~axis ~src ~dst] adds plane [src] into plane [dst]. *)
val accumulate_plane : t -> axis:Axis.t -> src:int -> dst:int -> unit

(** Copy a plane from one field into another (co-resident sibling
    blocks exchange ghosts this way, full f64, no wire).  The two grids
    must agree on the transverse extents of the plane. *)
val copy_plane_between :
  src:t -> src_index:int -> dst:t -> dst_index:int -> axis:Axis.t -> unit

(** Accumulate a plane of [src] into a plane of [dst] (current folding
    between sibling blocks). *)
val accumulate_plane_between :
  src:t -> src_index:int -> dst:t -> dst_index:int -> axis:Axis.t -> unit

(** {1 Wire-buffer plane traffic}

    Allocation-free variants over caller-provided Float32 buffers (the
    comm layer's persistent port buffers).  Values are narrowed to f32 on
    pack and widened back on unpack; slot order matches
    {!extract_plane}. *)

type buf32 = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Copy the plane into [buf] starting at [off]. *)
val pack_plane : t -> axis:Axis.t -> index:int -> buf:buf32 -> off:int -> unit

(** Overwrite the plane from [buf] starting at [off]. *)
val unpack_plane :
  t -> axis:Axis.t -> index:int -> buf:buf32 -> off:int -> unit

(** Accumulate [buf] (from [off]) into the plane (current folding). *)
val unpack_plane_add :
  t -> axis:Axis.t -> index:int -> buf:buf32 -> off:int -> unit

(** Set every voxel of the plane to [v] (zeroing shipped fold planes). *)
val fill_plane : t -> axis:Axis.t -> index:int -> float -> unit
