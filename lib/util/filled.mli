(** Arrays built from a static placeholder.

    OCaml 5 runs a minor collection whenever it makes an array of more
    than 256 words whose initial value is a block in the minor heap, as
    [Array.of_list] and [Array.map] do with their first element.
    Compile-sized arrays of records, tuples, options or arrays would each
    cost one collection. These functions start the array filled with
    [placeholder] instead and write the elements in. [placeholder] must
    not be a young block: a constant constructor, an int, or a literal
    whose fields are all constants. *)

val of_rev_list : 'a -> 'a list -> 'a array
(** [of_rev_list placeholder l] is [Array.of_list (List.rev l)]. *)

val map : 'b -> ('a -> 'b) -> 'a array -> 'b array
(** [map placeholder f a] is [Array.map f a], applying [f] in index
    order. *)
