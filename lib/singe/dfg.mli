(** The dataflow-graph IR produced by the partitioning stage (§4, Fig. 8):
    nodes are {e operations} (units of computation) and edges are data
    dependences between them. Every value is produced by exactly one
    operation and is one double per grid point. *)

type op_kind =
  | Load of { group : string; field : int; via_tex : bool }
      (** read the lane's point of one global field *)
  | Store of { group : string; field : int }
  | Compute of Sexpr.t
  | Fence
      (** explicit phase boundary: becomes a CTA-wide barrier after which
          every earlier production is visible to every warp — partitioners
          place one after all-to-all exchange phases (e.g. staging the
          species vectors into shared memory) *)

type op = {
  id : int;
  name : string;
  kind : op_kind;
  inputs : int array;  (** value ids, positional for [Compute]/[Store] *)
  output : int option;  (** the value this op defines *)
  hint : int option;
      (** preferred warp from domain-specific partitioning (e.g. the
          diffusion column scheme of Fig. 5); the mapper may honor or
          ignore it *)
  shared_hint : bool;
      (** partitioner prefers this op's result in shared memory under the
          Mixed strategy (diffusion's row partial sums) *)
  align : string option;
      (** overlay alignment tag: only ops carrying equal tags may be fused
          into one warp group. Partitioners tag symmetric roles (the k-th
          accumulator update, the j-th staging copy) so same-shaped but
          unrelated operations from skewed streams never pair up — the
          paper's "standardize variable names to avoid false AST
          differences" *)
}

type value = {
  vid : int;
  vname : string;
  producer : int;  (** op id *)
  consumers : int list;  (** op ids, ascending, without duplicates *)
}

type t = { graph_name : string; ops : op array; values : value array }
(** [ops] are in dependence order: each op reads only values produced by
    earlier ops, so the emission order is a topological order. *)

(** Imperative builder. *)
module Builder : sig
  type b

  val create : string -> b

  val load : b -> ?hint:int -> ?align:string -> ?shared_hint:bool -> ?via_tex:bool -> name:string -> group:string -> field:int -> unit -> int
  (** Returns the loaded value's id. *)

  val compute :
    b -> ?hint:int -> ?align:string -> ?shared_hint:bool -> name:string ->
    inputs:int array -> Sexpr.t -> int
  (** Returns the defined value's id. Raises [Invalid_argument] if the
      expression references more inputs than provided, or if an input
      (here and in {!fence}/{!store}) is not a value produced yet. *)

  val fence : b -> inputs:int array -> unit
  (** Sequenced after the producers of [inputs] by ordinary dataflow. *)

  val store : b -> ?hint:int -> ?align:string -> name:string -> group:string -> field:int -> int -> unit

  val finish : b -> t
end

val op_flops : op -> int

val total_flops : t -> int

val op_constants : op -> float list
(** Bankable constants of the op's expression (empty for loads/stores). *)

val validate : ?n_warps:int -> t -> (unit, string list) result
(** Checks: dependence order (every op reads only values produced by
    earlier ops, {!topo_order}), positional input arities, single producer
    per value. With [n_warps], partitioner warp hints must also lie in
    [\[0, n_warps)] (the mapper would silently ignore a stray one). *)

val topo_order : t -> int array
(** The emission order, checked in O(ops + edges). Raises a positioned
    {!Diagnostics.Fail} (pass ["dfg-build"]) naming ops that read a value
    produced at or after themselves: every cycle, and any graph listed
    out of dependence order (rejected, not reordered). *)

val pp_dump : Format.formatter -> t -> unit
(** Full IR listing, one line per operation with its expression
    ({!Sexpr.pp}), inputs, defined value and partitioning hints — the
    [--dump-ir dfg] output. *)
