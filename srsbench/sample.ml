(* Samples strictly above [v]: how many lie beyond a reported
   percentile ([Vpic_util.Stats.percentile] interpolates, so this counts
   real samples rather than ranks). *)
let beyond v samples =
  Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 samples
