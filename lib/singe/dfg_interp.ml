type inputs = {
  temp : float;
  pressure : float;
  mole_frac : float array;
  diffusion : float array;
}

let point_inputs mech grid p =
  let computed = Chem.Mechanism.computed_species mech in
  let full = Chem.Grid.point_mole_fracs grid mech p in
  let diff = Chem.Grid.point_diffusion grid p in
  {
    temp = Chem.Grid.point_temperature grid p;
    pressure = Chem.Grid.point_pressure grid p;
    mole_frac = Array.map (fun sp -> full.(sp)) computed;
    diffusion = Array.map (fun sp -> diff.(sp)) computed;
  }

(* The interpreter is input-layout agnostic: callers supply the load
   environment. Before the stencil frontend existed, the chemistry group
   names were hardwired here (and a store to anything but "out" was an
   [invalid_arg]), so any non-combustion graph crashed the oracle with an
   unpositioned exception. *)
let eval_env (dfg : Dfg.t) ~load =
  let values = Array.make (max 1 (Array.length dfg.Dfg.values)) 0.0 in
  let out = Hashtbl.create 8 in
  Array.iter
    (fun op_id ->
      let op = dfg.Dfg.ops.(op_id) in
      match op.Dfg.kind with
      | Dfg.Load { group; field; _ } ->
          values.(Option.get op.Dfg.output) <- load ~group ~field
      | Dfg.Compute e ->
          let consts = Array.of_list (Sexpr.constants e) in
          let v =
            Sexpr.eval e ~consts ~input:(fun i -> values.(op.Dfg.inputs.(i)))
          in
          values.(Option.get op.Dfg.output) <- v
      | Dfg.Fence -> ()
      | Dfg.Store { group; field } ->
          if group = "out" then Hashtbl.replace out field values.(op.Dfg.inputs.(0))
          else
            Diagnostics.failf ~pass:"dfg-interp" ~loc:dfg.Dfg.graph_name
              "graph %s stores to group %S; the interpreter only captures \
               \"out\""
              dfg.Dfg.graph_name group)
    (Dfg.topo_order dfg);
  out

let chem_load (dfg : Dfg.t) inputs ~group ~field =
  match group with
  | "temperature" -> inputs.temp
  | "pressure" -> inputs.pressure
  | "mole_frac" -> inputs.mole_frac.(field)
  | "diffusion_in" -> inputs.diffusion.(field)
  | other ->
      Diagnostics.failf ~pass:"dfg-interp" ~loc:dfg.Dfg.graph_name
        "graph %s loads group %S, not one of the chemistry input groups \
         (a stencil graph takes eval_stencil)"
        dfg.Dfg.graph_name other

let eval dfg inputs = eval_env dfg ~load:(chem_load dfg inputs)

let stencil_load (dfg : Dfg.t) ~source ~group ~field =
  match group with
  | "image" ->
      if field < 0 || field >= Array.length source then
        Diagnostics.failf ~pass:"dfg-interp" ~loc:dfg.Dfg.graph_name
          "graph %s loads image column %d, source row has %d"
          dfg.Dfg.graph_name field (Array.length source)
      else source.(field)
  | other ->
      Diagnostics.failf ~pass:"dfg-interp" ~loc:dfg.Dfg.graph_name
        "graph %s loads group %S, not a stencil input group"
        dfg.Dfg.graph_name other

let eval_stencil dfg ~source =
  eval_env dfg ~load:(stencil_load dfg ~source)

let eval_field dfg inputs f =
  let out = eval dfg inputs in
  match Hashtbl.find_opt out f with
  | Some v -> v
  | None -> raise Not_found
