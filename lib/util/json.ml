(* Recursive-descent JSON reader plus a compact writer.

   The grammar matches Json_check's validator exactly (RFC 8259): the
   serve loop parses requests with this module and re-validates every
   response it emits with Json_check, so both directions of the wire
   protocol go through an independently tested grammar. Strings decode
   \uXXXX escapes to UTF-8 (surrogate pairs included); numbers go
   through [float_of_string] on the scanned slice. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of int * string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect ch =
    match peek () with
    | Some c when c = ch -> advance ()
    | Some c -> error (Printf.sprintf "expected %C, got %C" ch c)
    | None -> error (Printf.sprintf "expected %C, got end of input" ch)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else error (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then error "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | c -> error (Printf.sprintf "bad hex digit %C in \\u escape" c)
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then error "unterminated escape";
           match s.[!pos] with
           | '"' -> Buffer.add_char buf '"'; advance ()
           | '\\' -> Buffer.add_char buf '\\'; advance ()
           | '/' -> Buffer.add_char buf '/'; advance ()
           | 'b' -> Buffer.add_char buf '\b'; advance ()
           | 'f' -> Buffer.add_char buf '\012'; advance ()
           | 'n' -> Buffer.add_char buf '\n'; advance ()
           | 'r' -> Buffer.add_char buf '\r'; advance ()
           | 't' -> Buffer.add_char buf '\t'; advance ()
           | 'u' ->
               advance ();
               let cp = hex4 () in
               (* Surrogate pair: a high surrogate must be followed by
                  \uDC00-\uDFFF; anything else is malformed. *)
               if cp >= 0xD800 && cp <= 0xDBFF then begin
                 if
                   !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                 then begin
                   advance ();
                   advance ();
                   let lo = hex4 () in
                   if lo < 0xDC00 || lo > 0xDFFF then
                     error "unpaired high surrogate";
                   add_utf8 buf
                     (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
                 end
                 else error "unpaired high surrogate"
               end
               else if cp >= 0xDC00 && cp <= 0xDFFF then
                 error "unpaired low surrogate"
               else add_utf8 buf cp
           | c -> error (Printf.sprintf "bad escape \\%C" c));
          go ()
      | c when Char.code c < 0x20 ->
          error "unescaped control character in string"
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' -> advance ()
    | Some ('1' .. '9') ->
        while
          match peek () with Some ('0' .. '9') -> true | _ -> false
        do
          advance ()
        done
    | _ -> error "bad number");
    if peek () = Some '.' then begin
      advance ();
      (match peek () with
      | Some ('0' .. '9') -> ()
      | _ -> error "digit expected after decimal point");
      while match peek () with Some ('0' .. '9') -> true | _ -> false do
        advance ()
      done
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        (match peek () with
        | Some ('0' .. '9') -> ()
        | _ -> error "digit expected in exponent");
        while match peek () with Some ('0' .. '9') -> true | _ -> false do
          advance ()
        done
    | _ -> ());
    float_of_string (String.sub s start (!pos - start))
  in
  let rec parse_value depth =
    if depth > 512 then error "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> error "value expected, got end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let members = ref [] in
          let rec go () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            members := (k, v) :: !members;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); go ()
            | Some '}' -> advance ()
            | _ -> error "expected ',' or '}' in object"
          in
          go ();
          Obj (List.rev !members)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec go () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); go ()
            | Some ']' -> advance ()
            | _ -> error "expected ',' or ']' in array"
          in
          go ();
          List (List.rev !items)
        end
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> error (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then error "trailing characters after document";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
      Error (Printf.sprintf "byte %d: %s" at msg)

(* ---- writing ---- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Integral floats print as integers so protocol counters round-trip
   textually; everything else prints with %.17g, which is not the
   shortest form but reads back as the same double (%h is not JSON). *)
let num_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let of_int n = Num (float_of_int n)

let rec emit = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num v -> num_to_string v
  | Str s -> "\"" ^ escape s ^ "\""
  | List items -> "[" ^ String.concat "," (List.map emit items) ^ "]"
  | Obj members ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ emit v) members)
      ^ "}"

(* ---- accessors ---- *)

let member k = function
  | Obj members -> List.assoc_opt k members
  | _ -> None

let str = function Str s -> Some s | _ -> None
let num = function Num v -> Some v | _ -> None

let int = function
  | Num v when Float.is_integer v && Float.abs v <= 1e15 ->
      Some (int_of_float v)
  | _ -> None

let bool = function Bool b -> Some b | _ -> None
let list = function List l -> Some l | _ -> None

let to_string_brief = function
  | Null -> "null"
  | Bool _ -> "boolean"
  | Num _ -> "number"
  | Str _ -> "string"
  | List _ -> "array"
  | Obj _ -> "object"

let field ?(check = Result.ok) ~what conv key doc =
  match member key doc with
  | None -> Ok None
  | Some v -> (
      match conv v with
      | None ->
          Error
            (Printf.sprintf "field %S must be %s, got %s" key what
               (to_string_brief v))
      | Some x -> (
          match check x with
          | Ok x -> Ok (Some x)
          | Error m -> Error (Printf.sprintf "field %S %s" key m)))
