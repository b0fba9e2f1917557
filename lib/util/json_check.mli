(** Minimal JSON syntax validator, the independent check on what
    {!Json.emit} renders (no JSON library is vendored). Checks the full RFC 8259
    grammar — strings with escapes, numbers, nesting, and that nothing
    trails the document — without building any values. *)

val validate : string -> (unit, string) result
(** [Ok ()] iff the whole string is exactly one valid JSON document;
    [Error msg] pinpoints the first offending byte offset. *)
