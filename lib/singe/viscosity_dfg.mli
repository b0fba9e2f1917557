(** Dataflow graph of the viscosity kernel (§3.2).

    The outer Wilke sum is partitioned by species across warps (Fig. 9's
    peaks at warp counts dividing the species count come from this
    contiguous assignment). Cross-species molar fractions and
    log-viscosities live in shared memory (the Store strategy), but the
    inner pair loop stages them through registers one tile at a time, so
    shared traffic is O(N) per warp per batch instead of O(N^2) — making
    the kernel math-throughput-limited as in §6.1.

    Pair constants [a_kj = 0.25 (ln m_j - ln m_k)] and
    [b_kj = 1/sqrt(1 + m_k/m_j)] are the paper's "2 double precision
    constants" per pair, frozen in {!Chem.Ref_kernels}. *)

val species_warp : n:int -> n_warps:int -> int -> int
(** Owning warp of a species: contiguous ranges. *)

val build : Chem.Mechanism.t -> n_warps:int -> Dfg.t
