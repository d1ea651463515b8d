type t = {
  acc : float array;
  weights : Sim.Tally.weights;
}

let default_idle_weight = 0.17

let weights ?(complexity = Tie.Component.complexity) ext =
  match ext with
  | None -> Sim.Tally.no_weights
  | Some e ->
    let cat c = Tie.Component.category_index c.Tie.Component.category in
    Sim.Tally.make_weights
      ~custom:(fun insn ~busy ->
        let cycles = float_of_int busy in
        Sim.Tally.contribution
          (List.map
             (fun c -> (cat c, complexity c *. cycles))
             insn.Tie.Compile.components))
      ~reads:
        (Sim.Tally.contribution
           (List.map
              (fun c -> (cat c, default_idle_weight *. complexity c))
              (Tie.Compile.bus_facing_components e)))

let create ?complexity ext =
  { acc = Array.make (List.length Tie.Component.all_categories) 0.0;
    weights = weights ?complexity ext }

let observe t e = Sim.Tally.add t.acc (Sim.Tally.of_event t.weights e)

let observer t : Sim.Cpu.observer = fun e -> observe t e

let totals t = Array.copy t.acc

let total_for t cat = t.acc.(Tie.Component.category_index cat)
