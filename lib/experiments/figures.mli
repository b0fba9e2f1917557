(** Reproduction harness: one entry point per table and figure of the
    paper (see DESIGN.md's experiment index). Each prints the same rows or
    series the paper reports, on stdout.

    Simulated numbers are deterministic, so the paper's twenty-iteration
    harmonic mean collapses to a single run. Absolute magnitudes depend on
    the simulator calibration (see {!Gpusim.Arch}); the comparisons the
    paper argues from — who wins, by what factor, where crossovers fall —
    are the reproduction target (EXPERIMENTS.md records both sides). *)

val registry : (string * (unit -> unit)) list
(** Every table, figure and ablation under its command-line name
    ([singe figures NAME], [bench/main.exe NAME]), in order. *)

val run : string list -> (unit, string) result
(** Run the named entries of {!registry} in the order given, ["all"]
    standing for every entry. Every name is checked before any entry
    runs: an unknown one runs nothing and is an [Error] that names it and
    the available names. *)
