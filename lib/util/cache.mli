(** Bounded caches, one policy. Each entry has a cost ([1] by default),
    and the summed cost is kept within the capacity by evicting the
    least recently used entry first: a logical clock is bumped at every
    hit and insertion, and eviction scans for the oldest stamp. Every
    operation holds the cache's own mutex; a caller computes a missing
    value outside it and offers it with [add]. [clear] drops entries,
    not counts. *)

type stats = {
  size : int;  (** entries held *)
  cost : int;  (** their summed cost *)
  limit : int;  (** the capacity [cost] is kept within *)
  hits : int;
  misses : int;  (** failed verifications included *)
  evictions : int;
  corruptions : int;  (** entries dropped because [verify] failed *)
}

val stats_to_json : stats -> Json.t
(** The seven fields as one JSON object, keyed by field name. *)

module Make (K : Hashtbl.HashedType) : sig
  type key = K.t
  type 'v t

  val create : ?cost:('v -> int) -> ?verify:('v -> bool) -> int -> 'v t
  (** [create capacity]. A value's [cost] may change only inside
      {!update}. [verify] is checked on every hit: a value it fails is
      dropped and counted as a corruption and a miss. *)

  val find : ?accept:('v -> bool) -> 'v t -> key -> 'v option
  (** A found value is counted as a hit and made the most recently used,
      unless [accept] refuses it: then it is returned uncounted and
      untouched. *)

  val add : 'v t -> key -> 'v -> 'v
  (** Insert a value a {!find} missed and return the value now held for
      the key. When another caller added one first, that one is returned
      and this caller's miss is recounted as a hit, so the counters do
      not depend on how racing callers interleave. A value that alone
      costs more than the capacity is returned but not kept. *)

  val update : 'v t -> key -> ('v -> unit) -> unit
  (** Mutate the value under the key, if any, then evict down to the
      capacity. Counts no lookup. *)

  val remove : 'v t -> key -> unit
  val clear : 'v t -> unit

  val set_capacity : 'v t -> int -> unit
  (** Evicts down to the new capacity at once. *)

  val stats : 'v t -> stats

  val to_list : 'v t -> (key * 'v) list
  (** The entries, most recently used first. *)
end
