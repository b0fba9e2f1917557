type t = {
  globals : float array array array;
  shared : float array array;
  local : float array array;
  n_points : int;
}

let create (p : Isa.program) ~n_points ~resident_ctas =
  let globals =
    Array.map
      (fun (g : Isa.group_info) ->
        Array.init g.Isa.fields (fun _ -> Array.make n_points 0.0))
      p.Isa.groups
  in
  let shared =
    Array.init resident_ctas (fun _ -> Array.make (max 1 p.Isa.shared_doubles) 0.0)
  in
  let local =
    Array.init resident_ctas (fun _ ->
        Array.make (max 1 (p.Isa.n_warps * 32 * p.Isa.local_doubles)) 0.0)
  in
  { globals; shared; local; n_points }

let copy t =
  {
    t with
    globals = Array.map (Array.map Array.copy) t.globals;
    shared = Array.map Array.copy t.shared;
    local = Array.map Array.copy t.local;
  }

let doubles t =
  let sum = Array.fold_left (fun n a -> n + Array.length a) 0 in
  Array.fold_left (fun n g -> n + sum g) (sum t.shared + sum t.local) t.globals

let group_index (p : Isa.program) name =
  let found = ref None in
  Array.iteri
    (fun i (g : Isa.group_info) ->
      if !found = None && g.Isa.group_name = name then found := Some i)
    p.Isa.groups;
  match !found with Some i -> i | None -> raise Not_found

let set_field t ~group ~field data =
  assert (Array.length data = t.n_points);
  Array.blit data 0 t.globals.(group).(field) 0 t.n_points
