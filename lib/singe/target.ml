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

let arch_of_string =
  lookup "architecture" Gpusim.Arch.by_name [ "fermi"; "kepler" ]

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

(* §4.2: a CTA may hold 16 / (CTAs per SM) of the 16 hardware named
   barriers. Chemistry's long phases want every barrier, at one resident
   CTA by default; the other kernels keep 8, at two. *)
let options ?n_warps ?ctas_per_sm arch kernel =
  let chem = kernel = Kernel_abi.Chemistry in
  let ctas_per_sm = Option.value ctas_per_sm ~default:(if chem then 1 else 2) in
  let d = Compile.default_options arch in
  {
    d with
    Compile.n_warps = Option.value n_warps ~default:d.Compile.n_warps;
    max_barriers = (if chem then 16 / ctas_per_sm else 8);
    ctas_per_sm_target = ctas_per_sm;
  }

(* The bounds the CLI's flag converters and [of_json] share. *)
let at_least min n =
  if n >= min then Ok n
  else Error (Printf.sprintf "must be >= %d, got %d" min n)

let sms_in_range n =
  Result.bind (at_least 1 n) (fun n ->
      if n <= 1024 then Ok n
      else Error (Printf.sprintf "must be <= 1024, got %d" n))

let skew_in_range s =
  if Float.abs s < 2.0 then Ok s
  else Error (Printf.sprintf "must satisfy |S| < 2, got %g" s)

type t = {
  t_mech : string;
  t_kernel : string;
  t_arch : string;
  t_version : string;
  t_warps : int;
  t_points : int;
  t_synth : bool option;
  t_overlap : bool;
  t_partition : string;
  t_sms : int option;
  t_skew : float option;
}

let default =
  {
    t_mech = "dme";
    t_kernel = "viscosity";
    t_arch = "kepler";
    t_version = "ws";
    t_warps = 8;
    t_points = 8192;
    t_synth = None;
    t_overlap = true;
    t_partition = "hand";
    t_sms = None;
    t_skew = None;
  }

module J = Sutil.Json

(* One row per JSON member, in wire order. *)
type field = {
  key : string;
  get : t -> J.t option;
  decode : J.t -> t -> (t, string) result;
}

let field ?check ~what conv key set get =
  let decode doc t =
    Result.map
      (Option.fold ~none:t ~some:(set t))
      (J.field ?check ~what conv key doc)
  in
  { key; get; decode }

let str key set get =
  field ~what:"a string" J.str key set (fun t -> Some (J.Str (get t)))

let count ?(check = at_least 1) key set get =
  field ~check ~what:"a positive integer" J.int key set (fun t ->
      Option.map J.of_int (get t))

(* The members every request names, always written... *)
let named =
  [
    str "mech" (fun t v -> { t with t_mech = v }) (fun t -> t.t_mech);
    str "kernel" (fun t v -> { t with t_kernel = v }) (fun t -> t.t_kernel);
    str "arch" (fun t v -> { t with t_arch = v }) (fun t -> t.t_arch);
    str "version" (fun t v -> { t with t_version = v }) (fun t -> t.t_version);
    count "warps" (fun t v -> { t with t_warps = v }) (fun t -> Some t.t_warps);
    count "points"
      (fun t v -> { t with t_points = v })
      (fun t -> Some t.t_points);
  ]

(* ...and the ones written only when they differ from [default], so a
   request that leaves them alone encodes as it did before they
   existed. *)
let overrides =
  [
    field ~what:"a boolean" J.bool "synth_exchange"
      (fun t v -> { t with t_synth = Some v })
      (fun t -> Option.map (fun b -> J.Bool b) t.t_synth);
    str "partition" (fun t v -> { t with t_partition = v }) (fun t ->
        t.t_partition);
    field ~what:"a boolean" J.bool "stencil_overlap"
      (fun t v -> { t with t_overlap = v })
      (fun t -> Some (J.Bool t.t_overlap));
    count ~check:sms_in_range "sms"
      (fun t v -> { t with t_sms = Some v })
      (fun t -> t.t_sms);
    field ~check:skew_in_range ~what:"a number" J.num "skew"
      (fun t v -> { t with t_skew = Some v })
      (fun t -> Option.map (fun s -> J.Num s) t.t_skew);
  ]

let fields = named @ overrides
let keys = List.map (fun f -> f.key) fields

let of_json doc =
  List.fold_left
    (fun acc f -> Result.bind acc (f.decode doc))
    (Ok default) fields

let to_json t =
  let member f = Option.map (fun v -> (f.key, v)) (f.get t) in
  List.filter_map member named
  @ List.filter_map
      (fun f -> if f.get t = f.get default then None else member f)
      overrides

type resolved = {
  mech : Chem.Mechanism.t;
  kernel : Kernel_abi.kernel;
  arch : Gpusim.Arch.t;
  version : Compile.version;
  options : Compile.options;
  partition : partition_mode;
}

let resolve ?mech t =
  let ( let* ) = Result.bind in
  let* mech =
    match mech with Some m -> Ok m | None -> mech_of_string t.t_mech
  in
  let* kernel = kernel_of_string t.t_kernel in
  let* arch = arch_of_string t.t_arch in
  let* version = version_of_string t.t_version in
  let* partition = partition_of_string t.t_partition in
  Ok
    {
      mech;
      kernel;
      arch;
      version;
      options =
        {
          (options ~n_warps:t.t_warps arch kernel) with
          Compile.synth_exchange = t.t_synth;
          stencil_overlap = t.t_overlap;
        };
      partition;
    }
