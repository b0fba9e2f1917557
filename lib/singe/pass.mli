(** Pass manager for the compilation pipeline (Fig. 8).

    The driver registers each stage — partitioning into the dataflow graph,
    mapping, barrier scheduling, lowering — as a named {e pass} and each
    inter-stage invariant check as a named {e validation pass}. The manager
    times every execution with a wall clock, collects per-artifact
    statistics, and produces a {!report} that the CLI ([--timings]), the
    benchmark harness (machine-readable JSON) and tests can inspect.

    A pass name may be run several times (the driver's register- and
    shared-memory fitting loops rebuild the schedule and re-lower): repeat
    runs accumulate into one record, keeping the run count, the cumulative
    wall time, and the {e last} run's artifact statistics — the artifact
    that survives into the final {!Compile.t}. *)

type stat = string * float
(** One artifact statistic, e.g. [("ops", 412.)] for a dataflow graph. *)

type kind = Transform | Validate

type record = {
  pass_name : string;
  kind : kind;
  runs : int;  (** executions merged into this record *)
  wall_ns : float;  (** cumulative wall-clock time over all runs *)
  stats : stat list;  (** artifact statistics of the last run *)
  ok : bool;
      (** false when a run of the pass failed: a validation pass that found
          problems, or a transform pass that raised *)
}

type report = {
  pipeline : string;
  records : record list;  (** in first-execution order *)
  total_ns : float;  (** wall-clock of the whole pipeline so far *)
}

type t
(** A pass manager instance; one per compilation. *)

val create : string -> t
(** [create pipeline_name] starts the pipeline clock. *)

val run : t -> name:string -> ?stats:('a -> stat list) -> (unit -> 'a) -> 'a
(** Execute a transform pass: time [f ()], record the artifact statistics
    [stats] extracts from its result, and return the result. Exceptions
    propagate untouched, after the run is recorded as failed. *)

val validate : t -> name:string -> (unit -> (unit, string list) result) -> unit
(** Execute a validation pass. On [Error problems] the record is marked
    failed and {!Diagnostics.Fail} is raised with the pass name as
    provenance and the first problems as the message. *)

val report : t -> report

val pp_report : Format.formatter -> report -> unit
(** Human-readable per-pass table (the CLI's [--timings] output). *)

val report_to_json : report -> Sutil.Json.t
(** The deterministic part of a report, a JSON object:
    [{"pipeline": ..., "passes": [{"name", "kind", "runs", "ok", "stats"},
      ...]}]. Wall times are left out: two compiles of the same target
    render identically. *)
