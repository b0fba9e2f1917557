type kernel =
  | Viscosity
  | Conductivity
  | Diffusion
  | Chemistry
  | Stencil of Stencil_pipe.id

let kernel_name = function
  | Viscosity -> "viscosity"
  | Conductivity -> "conductivity"
  | Diffusion -> "diffusion"
  | Chemistry -> "chemistry"
  | Stencil id -> Stencil_pipe.id_name id

let all_kernels =
  [ Viscosity; Conductivity; Diffusion; Chemistry ]
  @ List.map (fun id -> Stencil id) Stencil_pipe.all_ids

let kernel_of_string s =
  match String.lowercase_ascii s with
  | "viscosity" -> Some Viscosity
  | "conductivity" -> Some Conductivity
  | "diffusion" -> Some Diffusion
  | "chemistry" -> Some Chemistry
  | other -> Option.map (fun id -> Stencil id) (Stencil_pipe.id_of_string other)

let out_fields mech = function
  | Viscosity | Conductivity -> 1
  | Diffusion | Chemistry -> Array.length (Chem.Mechanism.computed_species mech)
  | Stencil id -> (Stencil_pipe.get id).Stencil_pipe.width

let groups mech kernel =
  match kernel with
  | Stencil id ->
      (* Stencil kernels live in an image-shaped address space: one field
         per column, each grid point an independent scanline. The
         chemistry groups are absent on purpose — a pass that assumes
         their presence is exactly the kind of bug this workload exists
         to flush out. *)
      let w = (Stencil_pipe.get id).Stencil_pipe.width in
      [|
        { Gpusim.Isa.group_name = "image"; fields = w };
        { Gpusim.Isa.group_name = "out"; fields = w };
      |]
  | Viscosity | Conductivity | Diffusion | Chemistry ->
      let n = Array.length (Chem.Mechanism.computed_species mech) in
      [|
        { Gpusim.Isa.group_name = "temperature"; fields = 1 };
        { Gpusim.Isa.group_name = "pressure"; fields = 1 };
        { Gpusim.Isa.group_name = "mole_frac"; fields = n };
        { Gpusim.Isa.group_name = "diffusion_in"; fields = n };
        { Gpusim.Isa.group_name = "out"; fields = out_fields mech kernel };
      |]

let group_id program name = Gpusim.Memstate.group_index program name

(* The source image of a stencil scanline, derived deterministically from
   the point's grid temperature by [Stencil_pipe.source_value], which
   [fill_inputs] also calls, so oracle comparisons start bit-identical. *)
let stencil_source grid ~points ~width =
  Array.init points (fun p ->
      let temp = Chem.Grid.point_temperature grid p in
      Array.init width (fun col -> Stencil_pipe.source_value ~temp ~col))

let fill_inputs mech (grid : Chem.Grid.t) kernel program
    (mem : Gpusim.Memstate.t) n =
  assert (grid.Chem.Grid.points >= n && mem.Gpusim.Memstate.n_points = n);
  let field name f = mem.Gpusim.Memstate.globals.(group_id program name).(f) in
  let copy name f src = Array.blit src 0 (field name f) 0 n in
  match kernel with
  | Stencil id ->
      let w = (Stencil_pipe.get id).Stencil_pipe.width in
      let image = Array.init w (field "image") in
      for p = 0 to n - 1 do
        let temp = Chem.Grid.point_temperature grid p in
        for col = 0 to w - 1 do
          image.(col).(p) <- Stencil_pipe.source_value ~temp ~col
        done
      done
  | Viscosity | Conductivity | Diffusion | Chemistry ->
      copy "temperature" 0 grid.Chem.Grid.temperature;
      copy "pressure" 0 grid.Chem.Grid.pressure;
      let computed = Chem.Mechanism.computed_species mech in
      Array.iteri
        (fun pos sp ->
          copy "mole_frac" pos grid.Chem.Grid.mole_frac.(sp);
          copy "diffusion_in" pos grid.Chem.Grid.diffusion_in.(sp))
        computed

let read_outputs program (mem : Gpusim.Memstate.t) =
  mem.Gpusim.Memstate.globals.(group_id program "out")

let reference_outputs mech grid kernel ~points =
  let computed = Chem.Mechanism.computed_species mech in
  let n = Array.length computed in
  match kernel with
  | Viscosity ->
      let out = Array.make points 0.0 in
      for p = 0 to points - 1 do
        out.(p) <-
          Chem.Ref_kernels.viscosity_point mech
            ~temp:(Chem.Grid.point_temperature grid p)
            ~mole_frac:(Chem.Grid.point_mole_fracs grid mech p)
      done;
      [| out |]
  | Conductivity ->
      let out = Array.make points 0.0 in
      for p = 0 to points - 1 do
        out.(p) <-
          Chem.Ref_kernels.conductivity_point mech
            ~temp:(Chem.Grid.point_temperature grid p)
            ~mole_frac:(Chem.Grid.point_mole_fracs grid mech p)
      done;
      [| out |]
  | Diffusion ->
      let out = Array.init n (fun _ -> Array.make points 0.0) in
      for p = 0 to points - 1 do
        let d =
          Chem.Ref_kernels.diffusion_point mech
            ~temp:(Chem.Grid.point_temperature grid p)
            ~pressure:(Chem.Grid.point_pressure grid p)
            ~mole_frac:(Chem.Grid.point_mole_fracs grid mech p)
        in
        Array.iteri (fun i v -> out.(i).(p) <- v) d
      done;
      out
  | Chemistry ->
      let out = Array.init n (fun _ -> Array.make points 0.0) in
      for p = 0 to points - 1 do
        let r =
          Chem.Ref_kernels.chemistry_point mech
            ~temp:(Chem.Grid.point_temperature grid p)
            ~pressure:(Chem.Grid.point_pressure grid p)
            ~mole_frac:(Chem.Grid.point_mole_fracs grid mech p)
            ~diffusion:(Chem.Grid.point_diffusion grid p)
        in
        Array.iteri (fun i v -> out.(i).(p) <- v) r.Chem.Ref_kernels.wdot
      done;
      out
  | Stencil id ->
      let pipe = Stencil_pipe.get id in
      let w = pipe.Stencil_pipe.width in
      let rows = stencil_source grid ~points ~width:w in
      let out = Array.init w (fun _ -> Array.make points 0.0) in
      for p = 0 to points - 1 do
        let res = Stencil_pipe.reference pipe ~source:rows.(p) in
        Array.iteri (fun col v -> out.(col).(p) <- v) res
      done;
      out
