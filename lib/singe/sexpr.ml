type t =
  | Imm of float
  | C of float
  | In of int
  | Un of Gpusim.Isa.fop * t
  | Bin of Gpusim.Isa.fop * t * t
  | Fma3 of t * t * t
  | Let of t * t
  | Var of int

let let_ def body = Let (def, body)

let add a b = Bin (Gpusim.Isa.Add, a, b)
let sub a b = Bin (Gpusim.Isa.Sub, a, b)
let mul a b = Bin (Gpusim.Isa.Mul, a, b)
let fma a b c = Fma3 (a, b, c)
let div a b = Bin (Gpusim.Isa.Div, a, b)
let exp_ a = Un (Gpusim.Isa.Exp, a)
let log_ a = Un (Gpusim.Isa.Log, a)
let max_ a b = Bin (Gpusim.Isa.Max, a, b)
let min_ a b = Bin (Gpusim.Isa.Min, a, b)
let neg a = Un (Gpusim.Isa.Neg, a)

let poly3 x ~c0 ~c1 ~c2 ~c3 =
  (* c0 + x*(c1 + x*(c2 + x*c3)) as an FMA chain. *)
  fma (fma (fma (C c3) x (C c2)) x (C c1)) x (C c0)

let sum = function
  | [] -> Imm 0.0
  | [ e ] -> e
  | first :: rest -> List.fold_left add first rest

let dot terms =
  match terms with
  | [] -> Imm 0.0
  | (c0, x0) :: rest ->
      List.fold_left (fun acc (c, x) -> fma (C c) x acc) (mul (C c0) x0) rest

let rec n_inputs = function
  | Imm _ | C _ | Var _ -> 0
  | In i -> i + 1
  | Un (_, a) -> n_inputs a
  | Bin (_, a, b) -> max (n_inputs a) (n_inputs b)
  | Fma3 (a, b, c) -> max (n_inputs a) (max (n_inputs b) (n_inputs c))
  | Let (d, b) -> max (n_inputs d) (n_inputs b)

let constants e =
  let acc = ref [] in
  let rec go = function
    | Imm _ | In _ | Var _ -> ()
    | C v -> acc := v :: !acc
    | Un (_, a) -> go a
    | Bin (_, a, b) ->
        go a;
        go b
    | Fma3 (a, b, c) ->
        go a;
        go b;
        go c
    | Let (d, b) ->
        go d;
        go b
  in
  go e;
  List.rev !acc

let n_constants e = List.length (constants e)

let canonical_bits v =
  if Float.is_nan v then if Float.sign_bit v then -1L else Int64.max_int
  else Int64.bits_of_float v

let rec same_shape a b =
  match (a, b) with
  | Imm x, Imm y -> Int64.equal (canonical_bits x) (canonical_bits y)
  | C _, C _ -> true
  | In i, In j | Var i, Var j -> i = j
  | Un (o, a), Un (p, b) -> o = p && same_shape a b
  | Bin (o, a1, a2), Bin (p, b1, b2) ->
      o = p && same_shape a1 b1 && same_shape a2 b2
  | Fma3 (a1, a2, a3), Fma3 (b1, b2, b3) ->
      same_shape a1 b1 && same_shape a2 b2 && same_shape a3 b3
  | Let (a1, a2), Let (b1, b2) -> same_shape a1 b1 && same_shape a2 b2
  | (Imm _ | C _ | In _ | Var _ | Un _ | Bin _ | Fma3 _ | Let _), _ -> false

let shape_hash e =
  let mix h x = ((h * 65599) + x) land max_int in
  let rec go h = function
    | Imm v -> mix (mix h 1) (Int64.to_int (canonical_bits v))
    | C _ -> mix h 2
    | In i -> mix (mix h 3) i
    | Var i -> mix (mix h 4) i
    | Un (op, a) -> go (mix (mix h 5) (Hashtbl.hash op)) a
    | Bin (op, a, b) -> go (go (mix (mix h 6) (Hashtbl.hash op)) a) b
    | Fma3 (a, b, c) -> go (go (go (mix h 7) a) b) c
    | Let (d, b) -> go (go (mix h 8) d) b
  in
  go 0 e

module Shape_tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = same_shape
  let hash = shape_hash
end)

let rec flops = function
  | Imm _ | C _ | In _ | Var _ -> 0
  | Let (d, b) -> flops d + flops b
  | Un (op, a) -> Gpusim.Isa.fop_flops op + flops a
  | Bin (op, a, b) -> Gpusim.Isa.fop_flops op + flops a + flops b
  | Fma3 (a, b, c) -> 2 + flops a + flops b + flops c

let rec depth = function
  | Imm _ | C _ | In _ | Var _ -> 0
  | Let (d, b) -> max (1 + depth d) (depth b)
  | Un (_, a) -> 1 + depth a
  | Bin (_, a, b) -> 1 + max (depth a) (depth b)
  | Fma3 (a, b, c) -> 1 + max (depth a) (max (depth b) (depth c))

let eval e ~consts ~input =
  let next_const = ref 0 in
  let rec go env = function
    | Imm v -> v
    | C _ ->
        let v = consts.(!next_const) in
        incr next_const;
        v
    | In i -> input i
    | Var i -> (
        match List.nth_opt env i with
        | Some v -> v
        | None ->
            Diagnostics.failf ~pass:"sexpr-eval"
              "malformed expression: Var %d with only %d let-binding(s) in \
               scope"
              i (List.length env))
    | Let (d, b) ->
        let vd = go env d in
        go (vd :: env) b
    | Un (op, a) ->
        let va = go env a in
        (match op with
        | Gpusim.Isa.Sqrt -> sqrt va
        | Gpusim.Isa.Exp -> exp va
        | Gpusim.Isa.Log -> log va
        | Gpusim.Isa.Neg -> -.va
        | _ -> invalid_arg "eval: non-unary op in Un")
    | Bin (op, a, b) ->
        let va = go env a in
        let vb = go env b in
        (match op with
        | Gpusim.Isa.Add -> va +. vb
        | Gpusim.Isa.Sub -> va -. vb
        | Gpusim.Isa.Mul -> va *. vb
        | Gpusim.Isa.Div -> va /. vb
        | Gpusim.Isa.Max -> Float.max va vb
        | Gpusim.Isa.Min -> Float.min va vb
        | _ -> invalid_arg "eval: non-binary op in Bin")
    | Fma3 (a, b, c) ->
        let va = go env a in
        let vb = go env b in
        let vc = go env c in
        Float.fma va vb vc
  in
  go [] e

let rec pp ppf = function
  | Imm v -> Format.fprintf ppf "%g" v
  | Var i -> Format.fprintf ppf "v%d" i
  | Let (d, b) -> Format.fprintf ppf "let %a in %a" pp d pp b
  | C v -> Format.fprintf ppf "c(%g)" v
  | In i -> Format.fprintf ppf "$%d" i
  | Un (op, a) -> Format.fprintf ppf "%s(%a)" (op_name op) pp a
  | Bin (op, a, b) -> Format.fprintf ppf "%s(%a, %a)" (op_name op) pp a pp b
  | Fma3 (a, b, c) -> Format.fprintf ppf "fma(%a, %a, %a)" pp a pp b pp c

and op_name (op : Gpusim.Isa.fop) =
  match op with
  | Gpusim.Isa.Add -> "add"
  | Gpusim.Isa.Sub -> "sub"
  | Gpusim.Isa.Mul -> "mul"
  | Gpusim.Isa.Fma -> "fma"
  | Gpusim.Isa.Div -> "div"
  | Gpusim.Isa.Sqrt -> "sqrt"
  | Gpusim.Isa.Exp -> "exp"
  | Gpusim.Isa.Log -> "log"
  | Gpusim.Isa.Max -> "max"
  | Gpusim.Isa.Min -> "min"
  | Gpusim.Isa.Neg -> "neg"
