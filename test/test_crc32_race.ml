(* First use of the CRC-32 table from several domains at once.  Every
   domain waits at a barrier, then hashes; each must get zlib's check
   value for "123456789".  Runs as its own executable so no earlier test
   has touched the table. *)

let domains = 4

let () =
  let arrived = Atomic.make 0 in
  let hash () =
    Atomic.incr arrived;
    while Atomic.get arrived < domains do
      Domain.cpu_relax ()
    done;
    match Vpic_util.Crc32.string "123456789" with
    | crc -> Ok crc
    | exception e -> Error (Printexc.to_string e)
  in
  let results =
    List.init domains (fun _ -> Domain.spawn hash) |> List.map Domain.join
  in
  let failures =
    List.filter_map
      (function
        | Ok 0xCBF43926l -> None
        | Ok crc -> Some (Printf.sprintf "wrong checksum %08lx" crc)
        | Error e -> Some ("raised " ^ e))
      results
  in
  match failures with
  | [] -> print_endline "crc32 race: 4 concurrent first uses agree"
  | fs ->
      List.iter prerr_endline fs;
      exit 1
