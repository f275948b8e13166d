(* Table-driven CRC-32, reflected polynomial 0xEDB88320 (IEEE).  The
   running value is kept pre- and post-conditioned (xor 0xFFFFFFFF) by
   [init]/[finish], matching zlib's crc32(). *)

(* Built eagerly at module initialisation, never [lazy]: forcing a lazy
   value from two domains at once raises [CamlinternalLazy.Undefined],
   and ranks saving checkpoints or campaign worker lanes hashing jobs do
   hash concurrently.  The array is never written after this. *)
let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        if Int32.logand !c 1l <> 0l then
          c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
        else c := Int32.shift_right_logical !c 1
      done;
      !c)

let init = 0xFFFFFFFFl
let finish crc = Int32.logxor crc 0xFFFFFFFFl

let update crc b pos len =
  assert (pos >= 0 && len >= 0 && pos + len <= Bytes.length b);
  let t = table in
  let crc = ref crc in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code (Bytes.unsafe_get b i)))) 0xFFl)
    in
    crc := Int32.logxor t.(idx) (Int32.shift_right_logical !crc 8)
  done;
  !crc

let bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  finish (update init b pos len)

let string s = bytes (Bytes.unsafe_of_string s)
