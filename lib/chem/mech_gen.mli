(** Deterministic synthetic mechanisms.

    The paper's real DME and n-heptane CHEMKIN inputs are not
    redistributable, so we generate mechanisms that reproduce their published
    statistics (Fig. 3):

    {v
      mechanism   reactions  species  QSSA  stiff
      DME            175        39      9     22
      Heptane        283        68     16     27
    v}

    Kernel cost and working-set structure depend only on these statistics
    (species count fixes the N^2 pair loops and constant footprints;
    reaction count and rate-model mix fix the chemistry phases), not on the
    physical constants' values — see DESIGN.md.

    Species carry real names and element-balanced compositions; reactions
    are drawn from four templates (H-abstraction, decomposition/
    recombination, radical-radical exchange, O2-association), all atom
    conserving by construction. All randomness flows from a fixed seed, so
    the mechanisms are identical across runs and machines. *)

val dme : unit -> Mechanism.t
(** 39 species / 175 reactions / 9 QSSA / 22 stiff. Memoized. *)

val heptane : unit -> Mechanism.t
(** 68 species / 283 reactions / 16 QSSA / 27 stiff. Memoized. *)

val methane : unit -> Mechanism.t
(** GRI-3.0's footprint: 53 species (nitrogen sub-mechanism and argon
    included), 325 reactions — a size point between DME and heptane with a
    very different element mix. *)

val hydrogen : unit -> Mechanism.t
(** A small handwritten H2/O2/CO system (13 species, ~20 reactions, 2 QSSA,
    3 stiff): fast enough for unit tests and the quickstart example. *)

val bundled : (string * (unit -> Mechanism.t)) list
(** The shipped mechanisms under the names the CLI and serve accept:
    dme, heptane, methane and hydrogen. Each generator is memoized, so a
    repeat lookup returns the mechanism without regenerating it, and
    domains that call it at once all get the same physical value. *)
