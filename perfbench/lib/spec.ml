(* BENCHMARK.json is the single list of workloads and metrics: the runner
   reports exactly the metrics named there, with the units named there,
   and the A/B verdict reads its bounds from there. *)

type metric = {
  name : string;
  unit_ : string;
  better : Quant.better;
  bound : float option;
}

type t = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

module J = Obs.Json

let metric j =
  { name = J.to_string (J.member "name" j);
    unit_ = J.to_string (J.member "unit" j);
    better = Quant.better_of_string (J.to_string (J.member "better" j));
    bound =
      (match j with
      | J.Obj fields -> Option.map J.to_float (List.assoc_opt "bound" fields)
      | _ -> None) }

let of_string s =
  let j = J.parse s in
  { workloads =
      List.map (fun w -> J.to_string (J.member "name" w)) (J.to_list (J.member "workloads" j));
    end_to_end = List.map metric (J.to_list (J.member "end_to_end" j));
    per_layer = List.map metric (J.to_list (J.member "per_layer" j)) }

let load path = of_string (In_channel.with_open_bin path In_channel.input_all)
