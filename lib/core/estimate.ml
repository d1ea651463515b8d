type result = {
  energy_pj : float;
  energy_uj : float;
  cycles : int;
  instructions : int;
}

let make model variables ~cycles ~instructions =
  let energy_pj = Template.energy model variables in
  { energy_pj; energy_uj = Power.Report.to_uj energy_pj; cycles; instructions }

let of_profile model (p : Extract.profile) =
  make model p.Extract.variables ~cycles:p.Extract.cycles
    ~instructions:p.Extract.instructions

let of_entry model (e : Eval_cache.entry) =
  make model e.Eval_cache.e_variables ~cycles:e.Eval_cache.e_cycles
    ~instructions:e.Eval_cache.e_instructions

let run ?config model c = of_profile model (Extract.profile ?config c)
