type node = {
  species : int;
  produced_by : (int * int) list;
  consumed_by : (int * int) list;
}

let tau = 1e-3

let build (mech : Mechanism.t) =
  let side_coeff side sp =
    match List.assoc_opt sp side with Some c -> c | None -> 0
  in
  Array.map
    (fun sp ->
      let produced_by = ref [] and consumed_by = ref [] in
      Array.iteri
        (fun ri r ->
          let p = side_coeff r.Reaction.products sp in
          let c = side_coeff r.Reaction.reactants sp in
          if p > 0 then produced_by := (ri, p) :: !produced_by;
          if c > 0 then consumed_by := (ri, c) :: !consumed_by)
        mech.Mechanism.reactions;
      {
        species = sp;
        produced_by = List.rev !produced_by;
        consumed_by = List.rev !consumed_by;
      })
    mech.Mechanism.stiff

let eval nodes ~mole_frac ~diffusion ~rr_f ~rr_r =
  let gammas =
    Array.map
      (fun node ->
        let cons =
          List.fold_left
            (fun acc (r, nu) -> acc +. (float_of_int nu *. rr_f.(r)))
            0.0 node.consumed_by
        in
        let x = mole_frac.(node.species) in
        x /. (x +. (tau *. (cons +. diffusion.(node.species)))))
      nodes
  in
  Array.iteri
    (fun k node ->
      let gamma = gammas.(k) in
      List.iter (fun (r, _) -> rr_f.(r) <- rr_f.(r) *. gamma) node.consumed_by;
      List.iter (fun (r, _) -> rr_r.(r) <- rr_r.(r) *. gamma) node.produced_by)
    nodes;
  gammas
