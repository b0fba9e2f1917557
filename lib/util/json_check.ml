(* A minimal JSON syntax validator (RFC 8259 grammar, no semantics).

   Every emitter renders through [Json.emit]; this is the independent
   check on that rendering: serve runs each response through [validate]
   before writing it, and the CLI's [--check] modes and the profiler
   tests run every emitted document through it. Recursive descent over
   the byte string; no values are built, so arbitrarily large documents
   cost no memory. *)

exception Bad of int * string

let validate s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect ch =
    match peek () with
    | Some c when c = ch -> incr pos
    | Some c -> fail (Printf.sprintf "expected %C, found %C" ch c)
    | None -> fail (Printf.sprintf "expected %C, found end of input" ch)
  in
  let literal word =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then pos := !pos + l
    else fail (Printf.sprintf "expected %s" word)
  in
  let is_digit c = c >= '0' && c <= '9' in
  let digits () =
    let start = !pos in
    while !pos < n && is_digit s.[!pos] do
      incr pos
    done;
    if !pos = start then fail "expected digit"
  in
  let number () =
    if peek () = Some '-' then incr pos;
    (match peek () with
    | Some '0' -> incr pos (* no leading zeros: 0 must stand alone *)
    | Some c when is_digit c -> digits ()
    | _ -> fail "expected digit");
    if peek () = Some '.' then begin
      incr pos;
      digits ()
    end;
    match peek () with
    | Some ('e' | 'E') ->
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
    | _ -> ()
  in
  let hex_digit () =
    match peek () with
    | Some (('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') as _c) -> incr pos
    | _ -> fail "expected hex digit in \\u escape"
  in
  let string_lit () =
    expect '"';
    let closed = ref false in
    while not !closed do
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
          incr pos;
          closed := true
      | Some '\\' -> (
          incr pos;
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> incr pos
          | Some 'u' ->
              incr pos;
              for _ = 1 to 4 do
                hex_digit ()
              done
          | _ -> fail "invalid escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some _ -> incr pos
    done
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "expected value, found end of input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then incr pos
        else begin
          let more = ref true in
          while !more do
            skip_ws ();
            string_lit ();
            skip_ws ();
            expect ':';
            value ();
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos
            | Some '}' ->
                incr pos;
                more := false
            | _ -> fail "expected ',' or '}' in object"
          done
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then incr pos
        else begin
          let more = ref true in
          while !more do
            value ();
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos
            | Some ']' ->
                incr pos;
                more := false
            | _ -> fail "expected ',' or ']' in array"
          done
        end
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    value ();
    skip_ws ();
    if !pos <> n then fail "trailing garbage after document"
  with
  | () -> Ok ()
  | exception Bad (at, msg) ->
      Error (Printf.sprintf "invalid JSON at byte %d: %s" at msg)
