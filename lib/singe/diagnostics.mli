(** Structured compiler diagnostics.

    Every user-reachable failure of the compilation pipeline is reported as
    a {!t} carrying the pass it originated from, instead of an ad-hoc
    [failwith] backtrace. {!Compile.compile} returns it as a [result];
    drivers raise it with {!ok_exn} where they need the artifact, catch
    {!Fail} at their boundary and render it with {!pp}. *)

type t = {
  pass : string option;  (** originating pipeline pass, when known *)
  loc : string option;
      (** source position (["input.mech:12"]) when the failure points at
          user-written input rather than a pipeline stage *)
  message : string;
}

exception Fail of t
(** Raised inside the pipeline (where {!Compile.compile} turns it into a
    [result]), by {!ok_exn}, and by {!Compile.run} on a launch or safety
    failure. *)

val ok_exn : ('a, t) result -> 'a
(** The [Ok] value, or raise the [Error] diagnostic as {!Fail}. *)

val error : ?pass:string -> ?loc:string -> string -> t

val errorf : ?pass:string -> ?loc:string -> ('a, unit, string, t) format4 -> 'a

val fail : ?pass:string -> ?loc:string -> string -> 'b
(** [fail msg] raises {!Fail} with the diagnostic [error msg]. *)

val failf : ?pass:string -> ?loc:string -> ('a, unit, string, 'b) format4 -> 'a

val of_problems : pass:string -> string list -> t
(** A failed check's problems as one diagnostic: the first four joined
    by ["; "], then [(and N more)]. *)

val of_srcloc : ?pass:string -> Chem.Srcloc.error -> t
(** Lift a positioned parser error ({!Chem.Srcloc.error}) into a
    diagnostic: the location renders into {!field-loc}, the offending
    token into the message. *)

val to_string : t -> string
(** ["error: ..."] / ["error[pass]: ..."] /
    ["error[parse]: input.mech:12: ..."] rendering, one line. *)

val pp : Format.formatter -> t -> unit
