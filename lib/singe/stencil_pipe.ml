(* Multi-stage stencil pipelines (ROADMAP item 4, arXiv 1909.07190).

   A pipeline is a 1-D image of [width] columns flowing through stages of
   fixed halo radius. Each grid point is an independent scanline: the
   simulator's per-thread point maps to one image row, and the columns map
   to *fields* of the "image" global group, so a halo tap is a static field
   offset — no cross-point addressing, exactly the layout the chemistry
   kernels use for species.

   This module is deliberately Chem-independent: the only contact with the
   combustion world is [source_value], which derives a deterministic pixel
   row from the grid temperature so the existing grid generators keep
   working as image sources. *)

type stage = {
  stage_name : string;
  radius : int;
  uses_source : bool;
      (* skip connection: the stage also reads the original source pixel
         at its column (unsharp masking's "x + a*(x - blur(x))") *)
  expr : Sexpr.t;
      (* inputs [In 0 .. In 2r] are the previous stage's columns
         [c-r .. c+r] (clamped to the edge); when [uses_source] is set,
         [In (2r+1)] is the source pixel at column [c] *)
}

type t = { pipe_name : string; width : int; stages : stage list }

type id = Edge3 | Unsharp2

let all_ids = [ Edge3; Unsharp2 ]
let id_name = function Edge3 -> "edge3" | Unsharp2 -> "unsharp2"

let id_of_string s =
  match String.lowercase_ascii s with
  | "edge3" -> Some Edge3
  | "unsharp2" -> Some Unsharp2
  | _ -> None

(* 3-tap binomial blur with bankable weights (the C nodes exercise the
   constant-bank path on a non-chemistry constant stream). *)
let blur_stage =
  {
    stage_name = "blur";
    radius = 1;
    uses_source = false;
    expr =
      Sexpr.fma (Sexpr.C 0.25) (Sexpr.In 0)
        (Sexpr.fma (Sexpr.C 0.5) (Sexpr.In 1)
           (Sexpr.mul (Sexpr.C 0.25) (Sexpr.In 2)));
  }

(* Gradient energy: central-difference square plus a Laplacian-square
   term, so every tap (including the center) is a real data dependence. *)
let gradient_stage =
  {
    stage_name = "gradient";
    radius = 1;
    uses_source = false;
    expr =
      Sexpr.let_
        (Sexpr.mul (Sexpr.sub (Sexpr.In 2) (Sexpr.In 0)) (Sexpr.Imm 0.5))
        (Sexpr.let_
           (Sexpr.sub
              (Sexpr.add (Sexpr.In 0) (Sexpr.In 2))
              (Sexpr.mul (Sexpr.Imm 2.0) (Sexpr.In 1)))
           (Sexpr.fma (Sexpr.Var 1) (Sexpr.Var 1)
              (Sexpr.mul
                 (Sexpr.mul (Sexpr.Var 0) (Sexpr.Var 0))
                 (Sexpr.C 0.0625))));
  }

(* Pointwise soft threshold. Sexpr has no comparisons; clamp through
   max/min like the full-range thermo tables do. *)
let threshold_stage =
  {
    stage_name = "threshold";
    radius = 0;
    uses_source = false;
    expr =
      Sexpr.min_
        (Sexpr.max_
           (Sexpr.sub (Sexpr.In 0) (Sexpr.C 0.05))
           (Sexpr.Imm 0.0))
        (Sexpr.Imm 1.0);
  }

(* Unsharp mask: sharpened = src + amount * (src - wide_blur), where the
   wide blur re-blurs the first stage's output and the skip connection
   carries the source pixel (input 2r+1 = In 3). *)
let sharpen_stage =
  {
    stage_name = "sharpen";
    radius = 1;
    uses_source = true;
    expr =
      Sexpr.let_
        (Sexpr.fma (Sexpr.C 0.25) (Sexpr.In 0)
           (Sexpr.fma (Sexpr.C 0.5) (Sexpr.In 1)
              (Sexpr.mul (Sexpr.C 0.25) (Sexpr.In 2))))
        (Sexpr.fma
           (Sexpr.sub (Sexpr.In 3) (Sexpr.Var 0))
           (Sexpr.C 0.6) (Sexpr.In 3));
  }

let width = 32

let get = function
  | Edge3 ->
      {
        pipe_name = "edge3";
        width;
        stages = [ blur_stage; gradient_stage; threshold_stage ];
      }
  | Unsharp2 ->
      { pipe_name = "unsharp2"; width; stages = [ blur_stage; sharpen_stage ] }

(* Deterministic, bounded source pixel for (scanline temperature, column):
   a quadratic in both so neighbouring columns differ and the stencils
   have real structure to find. Both the device fill and the host
   reference call this exact function, so the oracle comparison starts
   from bit-identical inputs. *)
let source_value ~temp ~col =
  let t = Float.rem temp 1000.0 /. 1000.0 in
  let c = float_of_int col /. float_of_int width in
  Float.abs (Float.rem (((t +. c) *. (t +. c)) +. (0.25 *. c)) 1.0)

let clamp_col ~w c = if c < 0 then 0 else if c >= w then w - 1 else c

(* Host reference: evaluate every stage row by row with the very Sexpr
   trees the DFG carries, in tap order. The lowering never reassociates
   and the simulator's ALU is IEEE double (Fma3 = Float.fma), so the
   device outputs match this bit for bit — the oracle comparison is
   exact, not tolerance-based. *)
let reference (p : t) ~(source : float array) =
  if Array.length source <> p.width then
    invalid_arg
      (Printf.sprintf "stencil_pipe: source row has %d columns, pipeline %s \
                       wants %d"
         (Array.length source) p.pipe_name p.width);
  let w = p.width in
  List.fold_left
    (fun prev st ->
      let consts = Array.of_list (Sexpr.constants st.expr) in
      Array.init w (fun c ->
          let input i =
            if i <= 2 * st.radius then
              prev.(clamp_col ~w (c - st.radius + i))
            else source.(c)
          in
          Sexpr.eval st.expr ~consts ~input))
    source p.stages

let pp ppf (p : t) =
  Format.fprintf ppf "stencil %s: %d columns, %d stages@," p.pipe_name p.width
    (List.length p.stages);
  List.iter
    (fun st ->
      Format.fprintf ppf "  %-10s radius %d%s: %a@," st.stage_name st.radius
        (if st.uses_source then " +source" else "")
        Sexpr.pp st.expr)
    p.stages
