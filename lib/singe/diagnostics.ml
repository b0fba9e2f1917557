type t = {
  pass : string option;
  loc : string option;
  message : string;
}

exception Fail of t

let error ?pass ?loc message = { pass; loc; message }

let errorf ?pass ?loc fmt =
  Printf.ksprintf (fun message -> error ?pass ?loc message) fmt

let fail ?pass ?loc message = raise (Fail (error ?pass ?loc message))

let failf ?pass ?loc fmt =
  Printf.ksprintf (fun message -> fail ?pass ?loc message) fmt

let ok_exn = function Ok v -> v | Error d -> raise (Fail d)

let of_problems ~pass problems =
  let n = List.length problems in
  let shown = List.filteri (fun i _ -> i < 4) problems in
  let suffix = if n > 4 then Printf.sprintf " (and %d more)" (n - 4) else "" in
  errorf ~pass "%s%s" (String.concat "; " shown) suffix

let of_srcloc ?pass (e : Chem.Srcloc.error) =
  error ?pass
    ?loc:(Chem.Srcloc.loc_string e.Chem.Srcloc.loc)
    (Chem.Srcloc.message_string e)

let to_string d =
  let head =
    match d.pass with Some p -> Printf.sprintf "error[%s]" p | None -> "error"
  in
  match d.loc with
  | Some l -> Printf.sprintf "%s: %s: %s" head l d.message
  | None -> Printf.sprintf "%s: %s" head d.message

let pp ppf d = Format.pp_print_string ppf (to_string d)
