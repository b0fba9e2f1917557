type op_kind =
  | Load of { group : string; field : int; via_tex : bool }
  | Store of { group : string; field : int }
  | Compute of Sexpr.t
  | Fence

type op = {
  id : int;
  name : string;
  kind : op_kind;
  inputs : int array;
  output : int option;
  hint : int option;
  shared_hint : bool;
  align : string option;
}

type value = {
  vid : int;
  vname : string;
  producer : int;
  consumers : int list;
}

type t = { graph_name : string; ops : op array; values : value array }

module Builder = struct
  type b = {
    bname : string;
    mutable ops_rev : op list;
    mutable n_ops : int;
    mutable vals_rev : (string * int) list;  (** name, producer *)
    mutable n_vals : int;
  }

  let create bname =
    { bname; ops_rev = []; n_ops = 0; vals_rev = []; n_vals = 0 }

  let new_value b name producer =
    let vid = b.n_vals in
    b.vals_rev <- (name, producer) :: b.vals_rev;
    b.n_vals <- b.n_vals + 1;
    vid

  let add_op b op =
    b.ops_rev <- op :: b.ops_rev;
    b.n_ops <- b.n_ops + 1

  let load b ?hint ?align ?(shared_hint = false) ?(via_tex = true) ~name
      ~group ~field () =
    let id = b.n_ops in
    let vid = new_value b name id in
    add_op b
      { id; name; kind = Load { group; field; via_tex }; inputs = [||];
        output = Some vid; hint; shared_hint; align };
    vid

  (* Dependence order: every input names a value an earlier op produced. *)
  let check_inputs b what name inputs =
    for i = 0 to Array.length inputs - 1 do
      if inputs.(i) < 0 || inputs.(i) >= b.n_vals then
        invalid_arg
          (Printf.sprintf "%s %s: input %d is not a value yet" what name
             inputs.(i))
    done

  let compute b ?hint ?align ?(shared_hint = false) ~name ~inputs expr =
    if Sexpr.n_inputs expr > Array.length inputs then
      invalid_arg
        (Printf.sprintf "compute %s: expression uses %d inputs, %d given" name
           (Sexpr.n_inputs expr) (Array.length inputs));
    check_inputs b "compute" name inputs;
    let id = b.n_ops in
    let vid = new_value b name id in
    add_op b
      { id; name; kind = Compute expr; inputs; output = Some vid; hint;
        shared_hint; align };
    vid

  let fence b ~inputs =
    let id = b.n_ops in
    let name = Printf.sprintf "fence%d" id in
    check_inputs b "fence" name inputs;
    add_op b
      { id; name; kind = Fence; inputs; output = None; hint = Some 0;
        shared_hint = false; align = None }

  let store b ?hint ?align ~name ~group ~field input =
    check_inputs b "store" name [| input |];
    let id = b.n_ops in
    add_op b
      { id; name; kind = Store { group; field }; inputs = [| input |];
        output = None; hint; shared_hint = false; align }

  (* Static placeholders for the arrays [finish] fills (see
     {!Sutil.Filled}). *)
  let no_op =
    { id = -1; name = ""; kind = Fence; inputs = [||]; output = None;
      hint = None; shared_hint = false; align = None }

  let no_value = { vid = -1; vname = ""; producer = -1; consumers = [] }

  let finish b =
    let ops = Sutil.Filled.of_rev_list no_op b.ops_rev in
    (* Walking the ops backwards leaves each consumer list ascending; an
       op reading one value twice meets it adjacently. *)
    let consumers = Array.make b.n_vals [] in
    for i = Array.length ops - 1 downto 0 do
      Array.iter
        (fun v ->
          match consumers.(v) with
          | c :: _ when c = i -> ()
          | l -> consumers.(v) <- i :: l)
        ops.(i).inputs
    done;
    let values = Array.make b.n_vals no_value in
    List.iteri
      (fun i (vname, producer) ->
        let vid = b.n_vals - 1 - i in
        values.(vid) <- { vid; vname; producer; consumers = consumers.(vid) })
      b.vals_rev;
    { graph_name = b.bname; ops; values }
end

let op_flops op =
  match op.kind with
  | Compute e -> Sexpr.flops e
  | Load _ | Store _ | Fence -> 0

let is_fence op = match op.kind with Fence -> true | _ -> false

let total_flops t = Array.fold_left (fun acc op -> acc + op_flops op) 0 t.ops

let op_constants op =
  match op.kind with
  | Compute e -> Sexpr.constants e
  | Load _ | Store _ | Fence -> []

(* The emission order is the topological order unless an op reads a value
   produced at or after itself; every cycle contains such a back edge. *)
let topo_order t =
  let nv = Array.length t.values in
  let late = ref [] in
  Array.iteri
    (fun i op ->
      let reads_late v = v < 0 || v >= nv || t.values.(v).producer >= i in
      if Array.exists reads_late op.inputs then late := op.name :: !late)
    t.ops;
  if !late <> [] then
    Diagnostics.failf ~pass:"dfg-build" ~loc:t.graph_name
      "dataflow graph %s is out of dependence order (a cycle or a forward \
       reference): %d op(s) read a value produced at or after themselves, \
       e.g. %s"
      t.graph_name (List.length !late)
      (String.concat ", " (List.filteri (fun i _ -> i < 4) (List.rev !late)));
  Array.init (Array.length t.ops) Fun.id

let validate ?n_warps t =
  let problems = ref [] in
  let err fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let nv = Array.length t.values in
  Array.iteri
    (fun i op ->
      if op.id <> i then err "op %d has id %d" i op.id;
      Array.iter
        (fun v -> if v < 0 || v >= nv then err "op %s: bad value id %d" op.name v)
        op.inputs;
      (match (op.hint, n_warps) with
      | Some h, Some nw when h < 0 || h >= nw ->
          err "op %s: warp hint %d out of range [0, %d)" op.name h nw
      | _ -> ());
      match op.kind with
      | Compute e ->
          if Sexpr.n_inputs e > Array.length op.inputs then
            err "op %s: arity mismatch" op.name;
          if op.output = None then err "op %s: compute without output" op.name
      | Load _ -> if op.output = None then err "op %s: load without output" op.name
      | Fence -> if op.output <> None then err "op %s: fence with output" op.name
      | Store _ ->
          if Array.length op.inputs <> 1 then err "op %s: store arity" op.name)
    t.ops;
  Array.iteri
    (fun vid v ->
      if v.vid <> vid then err "value %d has id %d" vid v.vid;
      match t.ops.(v.producer).output with
      | Some o when o = vid -> ()
      | _ -> err "value %s: producer mismatch" v.vname)
    t.values;
  (try ignore (topo_order t) with
  | Failure m -> err "%s" m
  | Diagnostics.Fail d -> err "%s" (Diagnostics.to_string d));
  match !problems with [] -> Ok () | l -> Error (List.rev l)

let pp_stats ppf t =
  let loads = ref 0 and stores = ref 0 and computes = ref 0 in
  Array.iter
    (fun op ->
      match op.kind with
      | Load _ -> incr loads
      | Store _ -> incr stores
      | Fence -> ()
      | Compute _ -> incr computes)
    t.ops;
  Format.fprintf ppf
    "%s: %d ops (%d loads, %d computes, %d stores), %d values, %d flops/point"
    t.graph_name (Array.length t.ops) !loads !computes !stores
    (Array.length t.values) (total_flops t)

let pp_dump ppf t =
  Format.fprintf ppf "%a@," pp_stats t;
  Array.iter
    (fun op ->
      let inputs =
        String.concat ","
          (Array.to_list (Array.map (fun v -> t.values.(v).vname) op.inputs))
      in
      let hint =
        match op.hint with Some w -> Printf.sprintf " hint=w%d" w | None -> ""
      in
      let shared = if op.shared_hint then " shared" else "" in
      let align =
        match op.align with Some a -> Printf.sprintf " align=%s" a | None -> ""
      in
      (match op.kind with
      | Load { group; field; via_tex } ->
          Format.fprintf ppf "  %%%d %s = load %s.%d%s%s%s%s" op.id op.name
            group field
            (if via_tex then " tex" else "")
            hint shared align
      | Store { group; field } ->
          Format.fprintf ppf "  %%%d %s: store %s.%d <- %s%s%s" op.id op.name
            group field inputs hint align
      | Fence -> Format.fprintf ppf "  %%%d fence [%s]" op.id inputs
      | Compute e ->
          Format.fprintf ppf "  %%%d %s = %a  (inputs %s)%s%s%s" op.id op.name
            Sexpr.pp e inputs hint shared align);
      Format.pp_print_cut ppf ())
    t.ops
