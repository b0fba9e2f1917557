(* "a, b or c" *)
let rec alternatives = function
  | [] -> ""
  | [ x ] -> x
  | [ x; y ] -> x ^ " or " ^ y
  | x :: rest -> x ^ ", " ^ alternatives rest

let lookup what of_string choices s =
  match of_string s with
  | Some v -> Ok v
  | None ->
      Error
        (Printf.sprintf "unknown %s %S (expected %s)" what s
           (alternatives choices))

let mech_of_string =
  let gen s = List.assoc_opt (String.lowercase_ascii s) Chem.Mech_gen.bundled in
  lookup "mechanism"
    (fun s -> Option.map (fun g -> g ()) (gen s))
    (List.map fst Chem.Mech_gen.bundled)

let kernel_of_string =
  lookup "kernel" Kernel_abi.kernel_of_string
    (List.map Kernel_abi.kernel_name Kernel_abi.all_kernels)

let archs =
  [ ("fermi", Gpusim.Arch.fermi_c2070); ("kepler", Gpusim.Arch.kepler_k20c) ]

let arch_of_string =
  lookup "architecture" Gpusim.Arch.by_name (List.map fst archs)

let arch_name (arch : Gpusim.Arch.t) =
  fst (List.find (fun (_, (a : Gpusim.Arch.t)) -> a.name = arch.name) archs)

let version_of_string =
  lookup "version" Compile.version_of_string
    (List.map Compile.version_name
       Compile.[ Warp_specialized; Baseline; Naive_warp_specialized ])

type partition_mode = Hand | Auto

let partition_modes = [ ("hand", Hand); ("auto", Auto) ]

let partition_of_string =
  lookup "partition mode"
    (fun s -> List.assoc_opt s partition_modes)
    (List.map fst partition_modes)

let partition_mode_name m =
  fst (List.find (fun (_, m') -> m' = m) partition_modes)

let default_mech = "dme"
let default_kernel = Kernel_abi.Viscosity
let default_arch = Gpusim.Arch.kepler_k20c
let default_version = Compile.Warp_specialized
let default_warps = (Compile.default_options default_arch).Compile.n_warps

(* §4.2: a CTA may hold 16 / (CTAs per SM) of the 16 hardware named
   barriers. Chemistry's long phases want every barrier, at one resident
   CTA by default; the other kernels keep 8, at two. *)
let options ?(n_warps = default_warps) ?ctas_per_sm arch kernel =
  let chem = kernel = Kernel_abi.Chemistry in
  let ctas_per_sm = Option.value ctas_per_sm ~default:(if chem then 1 else 2) in
  {
    (Compile.default_options arch) with
    Compile.n_warps;
    max_barriers = (if chem then 16 / ctas_per_sm else 8);
    ctas_per_sm_target = ctas_per_sm;
  }
