(* Compatibility alias for [Chip], kept only because the frozen
   benchmark driver (perfbench/perfbench.ml) still names
   [Gpusim.Machine.sm_cycles] and [.simulated_points]. Everything else
   uses [Chip]; delete this file with the next benchmark change. *)
include Chip
