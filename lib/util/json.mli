(** Minimal JSON reader/writer for the serve wire protocol.

    {!Json_check} only validates syntax; the long-running [singe serve]
    loop also has to {e read} client requests, so this module parses the
    full RFC 8259 grammar into a small value type (no JSON library is
    vendored). Numbers are kept as OCaml [float]s — the protocol's
    integers are all well below 2{^53} — and object member order is
    preserved so emitted documents round-trip byte-identically through
    [parse |> emit]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse exactly one JSON document (trailing whitespace allowed,
    anything else after it is an error). [Error msg] pinpoints the first
    offending byte offset, like {!Json_check.validate}. *)

val of_int : int -> t
(** [Num] of an integer; every [int] the emitters write is far below
    2{^53}, so it round-trips exactly. *)

val emit : t -> string
(** Compact single-line rendering. Always satisfies
    {!Json_check.validate}; [parse (emit v)] is [Ok v] up to the float
    formatting of {!num} below. *)

val escape : string -> string
(** The body of a JSON string literal for [s] (no surrounding quotes):
    control characters, backslash and quote escaped, everything else
    byte-preserved. Used by serve's statically known-good fallback
    response, which must not go through {!emit}. *)

val member : string -> t -> t option
(** [member k (Obj _)] is the first binding of [k]; [None] on missing
    keys and non-objects. *)

val str : t -> string option
val num : t -> float option
val int : t -> int option
(** {!int} accepts only integral numbers that fit an OCaml [int]. *)

val bool : t -> bool option
val list : t -> t list option

val field :
  ?check:('a -> ('a, string) result) ->
  what:string ->
  (t -> 'a option) ->
  string ->
  t ->
  ('a option, string) result
(** [field ~what conv key doc] decodes the optional member [key]
    strictly: absent is [Ok None]; a value [conv] refuses, or one [check]
    answers [Error m] for, is an error naming the field
    ([field "key" must be <what>, got <shape>] / [field "key" <m>]). *)

val to_string_brief : t -> string
(** One-line description of a value's shape for error messages
    (["string"], ["number"], ["object"], ...). *)
