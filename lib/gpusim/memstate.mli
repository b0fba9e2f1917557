(** Functional memory state for a simulated SM: the global field groups
    (shared by all resident CTAs), per-CTA shared memory, and per-thread
    local (spill) backing store. *)

type t = {
  globals : float array array array;
      (** [globals.(group).(field).(point)] *)
  shared : float array array;  (** [shared.(cta_slot).(addr)] *)
  local : float array array;
      (** [local.(cta_slot).((warp*32 + lane) * local_doubles + slot)] *)
  n_points : int;
}

val create :
  Isa.program -> n_points:int -> resident_ctas:int -> t
(** Global arrays are zero-initialized; the harness fills input groups. *)

val group_index : Isa.program -> string -> int
(** Index of a named field group. Raises [Not_found]. *)

val set_field : t -> group:int -> field:int -> float array -> unit
(** Copy input data into a global field (length must be [n_points]). *)
