(** [singe serve]: a hardened long-running request loop.

    One warm process answers many [compile] / [run] / [predict] /
    [tune] / [health] / [stats] requests over newline-delimited JSON
    (one request object per line in, one response object per line out),
    sharing the digest-keyed compile cache ({!Compile.compile_cached},
    bounded LRU) and a tuned-configuration cache across requests and
    fanning simulation sweeps onto {!Sutil.Domain_pool}.

    Robustness is the headline, not the transport (DESIGN §15):

    {ul
    {- {b Fault containment.} Every request is handled under a boundary
       that converts {e all} failure modes — malformed JSON, unknown
       fields, {!Diagnostics.Fail}, {!Gpusim.Chip.Occupancy_rejected},
       {!Gpusim.Sm.Simulation_fault}, [Invalid_argument] fault specs,
       and unexpected exceptions — into typed error responses mirroring
       the CLI's exit-code taxonomy. A poisoned request leaves the loop
       serving; {!handle_line} never raises.}
    {- {b Deadlines and degradation.} Each request runs under a
       deadline: the wall-clock budget ([deadline_ms], defaulted from
       the config) derives a simulator cycle budget
       ([cycles_per_ms * deadline_ms], capped by the watchdog ceiling
       and any explicit [max_cycles] in the request). A simulation that
       exhausts the budget answers [degraded: true] from
       {!Perf_model.predict} with an explicit accuracy caveat instead of
       hanging the client; a tune sweep whose candidates all die
       degrades to a model-only ranking the same way.}
    {- {b Backpressure.} A bounded admission queue in front of the loop
       rejects overflow requests immediately with a [busy] response
       carrying a [retry_after_ms] hint, instead of buffering without
       limit.}
    {- {b Idempotent retries.} A request carrying an ["id"] is answered
       bit-identically on retry (a bounded response cache keyed by id,
       re-keyed on the payload digest so an id reused for a different
       payload is rejected rather than silently answered with stale
       bytes).}
    {- {b Self-checking output.} Every emitted response is validated
       with {!Sutil.Json_check.validate} before it is written; a
       validation failure (an emitter bug) is counted and replaced by a
       statically known-good error document.}} *)

type config = {
  deadline_ms : int;  (** default per-request wall budget (ms) *)
  cycles_per_ms : int;
      (** deadline → simulator budget conversion; the derived budget is
          [deadline_ms * cycles_per_ms], floored at 10k cycles and
          capped at the 2e8 watchdog ceiling *)
  max_queue : int;  (** admission queue bound *)
  retry_after_ms : int;  (** hint attached to [busy] responses *)
  cache_entries : int;
      (** bound installed on {!Compile.compile_cached}'s memo table *)
  id_cache_entries : int;  (** idempotency-cache bound *)
}

val default_config : config
(** [{ deadline_ms = 2000; cycles_per_ms = 50_000; max_queue = 64;
      retry_after_ms = 50; cache_entries = 512; id_cache_entries = 256 }] *)

(** {1 Wire protocol} *)

type target = Target.t = {
  t_mech : string;
  t_kernel : string;
  t_arch : string;
  t_version : string;
  t_warps : int;
  t_points : int;
  t_synth : bool option;
  t_overlap : bool;
  t_partition : string;
  t_sms : int option;
  t_skew : float option;
}
(** {!Target.t}, re-exported with its fields for the benchmark driver
    alone. *)

type payload =
  | Compile_req of target
  | Run_req of {
      target : target;
      faults : string list;  (** {!Gpusim.Fault.of_string} specs *)
      max_cycles : int option;  (** explicit watchdog budget *)
    }
  | Predict_req of target
  | Tune_req of { target : target; top_k : int option }
      (** [top_k]: the pruned sweep's ({!Autotune.default_prune_keep}) or
          the partition search's ({!Partition_search.default_top_k})
          width when [None] *)
  | Health_req
  | Stats_req
  | Shutdown_req

type request = {
  req_id : string option;  (** idempotency key, echoed in the response *)
  req_deadline_ms : int option;  (** overrides [config.deadline_ms] *)
  req : payload;
}

val default_target : target
(** {!Target.default}, under the name the benchmark driver uses. *)

val request_to_json : request -> string
(** Canonical one-line encoding (optional fields omitted when [None],
    the target's as {!Target.to_json} omits them).
    [parse_request (request_to_json r)] returns [Ok r] — the qcheck
    round-trip property of the wire protocol. *)

val parse_request : string -> (request, string) result
(** Parse and validate one request line: well-formed JSON, a known
    ["kind"], no member the kind does not take, the target by
    {!Target.of_json}, positive integer budgets. The error string is the
    [bad-request] response's message; a bad name answers [bad-request]
    when the request runs ({!Target.resolve}). *)

(** {1 The serving state} *)

type state

val create : ?config:config -> unit -> state
(** Fresh counters and caches; installs [config.cache_entries] as the
    compile-memo bound. Raises [Invalid_argument] when any config field
    is non-positive — notably [deadline_ms <= 0], which would otherwise
    silently clamp every defaulted request's cycle budget to the 10k
    floor and answer it [degraded:true]. *)

val handle_line : state -> string -> string * bool
(** Answer one raw request line with one response line (no trailing
    newline). Never raises; every failure mode maps to a typed error
    response. The boolean is [true] only for a [Shutdown_req]: the
    response is still written, then the caller stops its loop (EOF
    stops it without a response). *)

val busy_line : state -> string -> string
(** The [busy] backpressure response for a request line rejected at
    admission (the line is parsed best-effort for its ["id"]). Counts
    the rejection. *)

val queue_depth : state -> int
val requests_total : state -> int

(** {1 The loop} *)

val serve_fds : state -> Unix.file_descr -> Unix.file_descr -> unit
(** Serve newline-delimited requests from the input descriptor to the
    output descriptor until EOF or a [shutdown] request. Reads are
    drained greedily into the bounded admission queue ([config.max_queue]);
    overflow lines are answered with {!busy_line} immediately. Responses
    are written in admission order. A write failure (client gone) stops
    the loop cleanly. *)
