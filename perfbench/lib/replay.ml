(* Observer folds measured apart from the simulator: record a run's
   retirement events once, then feed the same stream to each fold's
   public [observe] as often as timing needs. *)

type recording = {
  case : Core.Extract.case;
  events : Sim.Event.t array;
}

let record ?(config = Sim.Config.default) (c : Core.Extract.case) =
  let buf = ref [] in
  ignore
    (Sim.Backend.run_program ~config ?extension:c.Core.Extract.extension
       ~observers:[ (fun e -> buf := e :: !buf) ]
       c.Core.Extract.asm);
  { case = c; events = Array.of_list (List.rev !buf) }

let stats ?(config = Sim.Config.default) r =
  let st = Sim.Stats.create config in
  Array.iter (Sim.Stats.observe st) r.events;
  st

let resource r =
  let res = Core.Resource.create r.case.Core.Extract.extension in
  Array.iter (Core.Resource.observe res) r.events;
  res

let power ?(config = Sim.Config.default) r =
  let est = Power.Estimator.create ?extension:r.case.Core.Extract.extension config in
  Array.iter (Power.Estimator.observe est) r.events;
  est
