(** Structured compiler diagnostics.

    Every user-reachable failure of the compilation pipeline is reported as
    a {!t} carrying the pass it originated from, instead of an ad-hoc
    [failwith] backtrace. Drivers (the CLI, the benchmark harness,
    autotuning) match on {!Fail} or use the [_checked] entry points of
    {!Compile} and render the diagnostic with {!pp}. *)

type t = {
  pass : string option;  (** originating pipeline pass, when known *)
  loc : string option;
      (** source position (["input.mech:12"]) when the failure points at
          user-written input rather than a pipeline stage *)
  message : string;
}

exception Fail of t
(** Raised by validation passes and option checking; caught at the
    [_checked] API boundary and converted into a [result]. *)

val error : ?pass:string -> ?loc:string -> string -> t

val errorf : ?pass:string -> ?loc:string -> ('a, unit, string, t) format4 -> 'a

val fail : ?pass:string -> ?loc:string -> string -> 'b
(** [fail msg] raises {!Fail} with the diagnostic [error msg]. *)

val failf : ?pass:string -> ?loc:string -> ('a, unit, string, 'b) format4 -> 'a

val of_srcloc : ?pass:string -> Chem.Srcloc.error -> t
(** Lift a positioned parser error ({!Chem.Srcloc.error}) into a
    diagnostic: the location renders into {!field-loc}, the offending
    token into the message. *)

val to_string : t -> string
(** ["error: ..."] / ["error[pass]: ..."] /
    ["error[parse]: input.mech:12: ..."] rendering, one line. *)

val pp : Format.formatter -> t -> unit
