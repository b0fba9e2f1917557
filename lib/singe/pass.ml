type stat = string * float

type kind = Transform | Validate

type record = {
  pass_name : string;
  kind : kind;
  runs : int;
  wall_ns : float;
  stats : stat list;
  ok : bool;
}

type report = {
  pipeline : string;
  records : record list;
  total_ns : float;
  warnings : Diagnostics.t list;
}

type t = {
  pipeline : string;
  started_ns : float;
  mutable records_rev : record list;  (* most recent first *)
  mutable warnings_rev : Diagnostics.t list;
}

let now_ns = Sutil.Clock.now_ns

let create pipeline =
  { pipeline; started_ns = now_ns (); records_rev = []; warnings_rev = [] }

(* Merge a finished execution into the existing record of the same name, if
   any: the fitting loops rerun schedule/lower several times and should
   show up as one line with a run count, not one line per retry. *)
let record t ~name ~kind ~wall_ns ~stats ~ok =
  let rec merge acc = function
    | [] ->
        let r = { pass_name = name; kind; runs = 1; wall_ns; stats; ok } in
        r :: List.rev acc
    | r :: rest when r.pass_name = name ->
        let r =
          { r with runs = r.runs + 1; wall_ns = r.wall_ns +. wall_ns; stats;
            ok = r.ok && ok }
        in
        List.rev_append acc (r :: rest)
    | r :: rest -> merge (r :: acc) rest
  in
  t.records_rev <- merge [] t.records_rev

let run t ~name ?(stats = fun _ -> []) f =
  let t0 = now_ns () in
  match f () with
  | v ->
      record t ~name ~kind:Transform ~wall_ns:(now_ns () -. t0)
        ~stats:(stats v) ~ok:true;
      v
  | exception e ->
      record t ~name ~kind:Transform ~wall_ns:(now_ns () -. t0) ~stats:[]
        ~ok:false;
      raise e

let validate t ~name f =
  let t0 = now_ns () in
  let result = f () in
  let wall_ns = now_ns () -. t0 in
  match result with
  | Ok () -> record t ~name ~kind:Validate ~wall_ns ~stats:[] ~ok:true
  | Error problems ->
      record t ~name ~kind:Validate ~wall_ns ~stats:[] ~ok:false;
      let n = List.length problems in
      let shown = List.filteri (fun i _ -> i < 4) problems in
      let suffix = if n > 4 then Printf.sprintf " (and %d more)" (n - 4) else "" in
      Diagnostics.failf ~pass:name "%s%s" (String.concat "; " shown) suffix

let warn t ?pass message =
  t.warnings_rev <- Diagnostics.warning ?pass message :: t.warnings_rev

let report t =
  {
    pipeline = t.pipeline;
    records = List.rev t.records_rev;
    total_ns = now_ns () -. t.started_ns;
    warnings = List.rev t.warnings_rev;
  }

let pp_report ppf (r : report) =
  Format.fprintf ppf "pipeline %s: %.2f ms total@," r.pipeline
    (r.total_ns /. 1e6);
  List.iter
    (fun rec_ ->
      let kind = match rec_.kind with Transform -> "pass" | Validate -> "check" in
      Format.fprintf ppf "  %-5s %-18s %8.3f ms" kind rec_.pass_name
        (rec_.wall_ns /. 1e6);
      if rec_.runs > 1 then Format.fprintf ppf "  (%d runs)" rec_.runs;
      if not rec_.ok then Format.fprintf ppf "  FAILED";
      (match rec_.stats with
      | [] -> ()
      | stats ->
          Format.fprintf ppf "  [%s]"
            (String.concat ", "
               (List.map
                  (fun (k, v) ->
                    if Float.is_integer v && Float.abs v < 1e15 then
                      Printf.sprintf "%s=%.0f" k v
                    else Printf.sprintf "%s=%g" k v)
                  stats)));
      Format.pp_print_cut ppf ())
    r.records;
  List.iter
    (fun w -> Format.fprintf ppf "  %a@," Diagnostics.pp w)
    r.warnings

let report_to_json (r : report) =
  let open Sutil.Json in
  let pass_json rec_ =
    Obj
      [
        ("name", Str rec_.pass_name);
        ( "kind",
          Str
            (match rec_.kind with
            | Transform -> "transform"
            | Validate -> "validate") );
        ("runs", of_int rec_.runs);
        ("ok", Bool rec_.ok);
        ("stats", Obj (List.map (fun (k, v) -> (k, Num v)) rec_.stats));
      ]
  in
  Obj
    [
      ("pipeline", Str r.pipeline);
      ("passes", List (List.map pass_json r.records));
      ( "warnings",
        List (List.map (fun w -> Str (Diagnostics.to_string w)) r.warnings) );
    ]
