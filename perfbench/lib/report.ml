module J = Obs.Json

(* One reported figure: its value, unit, and the samples it summarises
   (empty for a single measurement or an exact count). *)
type figure = {
  value : float;
  unit_ : string;
  samples : float list;
}

let one ~unit_ value = { value; unit_; samples = [] }
let median ~unit_ xs = { value = Quant.median xs; unit_; samples = xs }
let p90 ~unit_ xs = { value = Quant.p90 xs; unit_; samples = xs }
let geomean ~unit_ xs = { value = Quant.geomean xs; unit_; samples = xs }

let count f = List.length f.samples

(* Bring a figure to the reference host's speed ({!Host.factor}):
   durations scale with the factor, rates against it, and counts, ratios
   and percentages not at all. *)
let at_host_speed factor f =
  let k =
    match f.unit_ with
    | "s" | "ms" | "us" | "ns" -> factor
    | "1/s" | "Minstr/s" -> 1.0 /. factor
    | _ -> 1.0
  in
  { f with value = f.value *. k; samples = List.map (fun x -> x *. k) f.samples }

let spread f = if List.length f.samples >= 2 then Some (Quant.rel_iqr f.samples) else None

(* --- Provenance ------------------------------------------------------------ *)

let read_file path =
  try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
  with Sys_error _ -> None

(* Read the revision straight from [.git] in the working directory (no
   subprocess, nothing read outside the tree); a plain source tree has
   none and reports "unknown". *)
let git_rev () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
    let prefix = "ref: " in
    if not (String.starts_with ~prefix head) then head
    else
      let r = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" r) with
      | Some rev -> rev
      | None -> (
        match read_file ".git/packed-refs" with
        | None -> "unknown"
        | Some packed ->
          String.split_on_char '\n' packed
          |> List.find_map (fun line ->
                 match String.split_on_char ' ' line with
                 | [ rev; name ] when name = r -> Some rev
                 | _ -> None)
          |> Option.value ~default:"unknown")

let provenance ~workload ~seed ~trace ~runs ~spread ~host_factor =
  J.Obj
    [ ("benchmark", J.Str "perfbench");
      ("workload", J.Str workload);
      ("git_rev", J.Str (git_rev ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("nproc", J.Num (float_of_int (Domain.recommended_domain_count ())));
      ("jobs", J.Num (float_of_int (Core.Parallel.default_jobs ())));
      ("backend", J.Str (Sim.Backend.name (Sim.Backend.current ())));
      ("seed", J.Num (float_of_int seed));
      ("trace", J.Bool trace);
      ("runs", J.Num (float_of_int runs));
      ("host_factor", J.Num host_factor);
      ("spread", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) spread)) ]

(* --- Output ----------------------------------------------------------------- *)

(* [f] is at the reference host's speed; [raw] is the same figure as
   measured. *)
let fig_json ?spec ~raw f =
  let base =
    [ ("value", J.Num f.value); ("raw_value", J.Num raw.value); ("unit", J.Str f.unit_);
      ("samples", J.Num (float_of_int (count f))) ]
  in
  let quart =
    match f.samples with
    | _ :: _ :: _ ->
      let q1, _, q3 = Quant.quartiles f.samples in
      [ ("q1", J.Num q1); ("q3", J.Num q3) ]
    | _ -> []
  in
  let dir =
    match (spec : Spec.metric option) with
    | None -> []
    | Some m ->
      [ ("better", J.Str (Quant.string_of_better m.Spec.better)) ]
      @ (match m.Spec.bound with Some b -> [ ("bound", J.Num b) ] | None -> [])
  in
  J.Obj (base @ quart @ dir)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let pp_fig name f =
  let n = count f in
  Printf.printf "  %-34s %14.6g %-6s%s\n" name f.value f.unit_
    (if n >= 2 then
       Printf.sprintf "  (n=%d, iqr/median %.3f)" n (Quant.rel_iqr f.samples)
     else "")

type outcome = {
  attempted : int;
  failed : int;
  figures : (string * figure) list;  (** everything measured *)
}

(* Print the human summary, write the result document, print the final
   JSON line with exactly the metric set BENCHMARK.json names for this
   mode.  A per-layer metric this workload does not exercise reads 0.
   Returns whether the run may exit 0. *)
let finish ~(spec : Spec.t) ~workload ~seed ~trace ~out_dir o =
  let wanted = if trace then spec.Spec.per_layer else spec.Spec.end_to_end in
  let calibration_ms = Host.calibration_ms () and host_factor = Host.factor () in
  let host =
    [ ("host.calibration_ms", one ~unit_:"ms" calibration_ms);
      ("host.factor", one ~unit_:"ratio" host_factor) ]
  in
  let raw = o.figures @ host in
  let raw_of name f = Option.value (List.assoc_opt name raw) ~default:f in
  let figures = List.map (fun (n, f) -> (n, at_host_speed host_factor f)) o.figures @ host in
  let missing = ref [] in
  let reported =
    List.map
      (fun (m : Spec.metric) ->
        match List.assoc_opt m.Spec.name figures with
        | Some f when f.unit_ = m.Spec.unit_ -> (m, f)
        | Some f ->
          failwith
            (Printf.sprintf "metric %s measured in %s, BENCHMARK.json says %s"
               m.Spec.name f.unit_ m.Spec.unit_)
        | None ->
          if not trace then missing := m.Spec.name :: !missing;
          (m, one ~unit_:m.Spec.unit_ 0.0))
      wanted
  in
  let correct = o.failed = 0 && !missing = [] in
  Printf.printf "perfbench %s (seed %d, %s)\n" workload seed
    (if trace then "traced" else "untraced");
  Printf.printf "  ops attempted %d, failed %d, oracles %s\n" o.attempted
    o.failed (if correct then "pass" else "FAIL");
  List.iter (fun (m, f) -> pp_fig m.Spec.name f) reported;
  let extra =
    List.filter
      (fun (n, _) -> not (List.exists (fun (m, _) -> m.Spec.name = n) reported))
      figures
  in
  if extra <> [] then begin
    Printf.printf "  detail:\n";
    List.iter (fun (n, f) -> pp_fig n f) extra
  end;
  if !missing <> [] then
    Printf.printf "  missing metrics: %s\n" (String.concat ", " !missing);
  let runs = List.fold_left (fun acc (_, f) -> max acc (count f)) 1 figures in
  let spreads =
    List.filter_map
      (fun (m, f) -> Option.map (fun s -> (m.Spec.name, s)) (spread f))
      reported
  in
  let doc =
    J.Obj
      [ ("format", J.Str "perfbench-result");
        ("version", J.Num 1.0);
        ("provenance", provenance ~workload ~seed ~trace ~runs ~spread:spreads ~host_factor);
        ("correct", J.Bool correct);
        ("attempted", J.Num (float_of_int o.attempted));
        ("failed", J.Num (float_of_int o.failed));
        ( "metrics",
          J.Obj
            (List.map
               (fun (m, f) -> (m.Spec.name, fig_json ~spec:m ~raw:(raw_of m.Spec.name f) f))
               reported) );
        ("detail", J.Obj (List.map (fun (n, f) -> (n, fig_json ~raw:(raw_of n f) f)) extra)) ]
  in
  mkdir_p out_dir;
  let file =
    Filename.concat out_dir
      (Printf.sprintf "%s-seed%d-%s.json" workload seed
         (if trace then "traced" else "untraced"))
  in
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (Serve.Protocol.json_to_string doc);
      Out_channel.output_char oc '\n');
  Printf.printf "  (result written to %s)\n" file;
  let last =
    J.Obj
      [ ("correct", J.Bool correct);
        ("attempted", J.Num (float_of_int o.attempted));
        ("failed", J.Num (float_of_int o.failed));
        ( "metrics",
          J.Obj
            (List.map
               (fun (m, f) ->
                 (m.Spec.name, J.Obj [ ("value", J.Num f.value); ("unit", J.Str f.unit_) ]))
               reported) ) ]
  in
  print_endline (Serve.Protocol.json_to_string last);
  correct
