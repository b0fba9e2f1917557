type stat = string * float

type kind = Transform | Validate

type record = {
  pass_name : string;
  kind : kind;
  runs : int;
  wall_ns : float;
  minor_words : float;
  minor_collections : int;
  stats : stat list;
  ok : bool;
}

type report = {
  pipeline : string;
  records : record list;
  total_ns : float;
}

type t = {
  pipeline : string;
  started_ns : float;
  mutable records_rev : record list;  (* most recent first *)
}

let now_ns = Sutil.Clock.now_ns

let create pipeline =
  { pipeline; started_ns = now_ns (); records_rev = [] }

(* What one execution cost the host: wall time, and the minor heap's
   words and collections. [Gc.minor_words] counts the words exactly;
   [Gc.quick_stat]'s own figure only moves at a collection. *)
type cost = { wall_ns : float; minor_words : float; minor_collections : int }

let start () =
  {
    wall_ns = now_ns ();
    minor_words = Gc.minor_words ();
    minor_collections = (Gc.quick_stat ()).Gc.minor_collections;
  }

let since c0 =
  let c1 = start () in
  {
    wall_ns = c1.wall_ns -. c0.wall_ns;
    minor_words = c1.minor_words -. c0.minor_words;
    minor_collections = c1.minor_collections - c0.minor_collections;
  }

(* Merge a finished execution into the existing record of the same name, if
   any: the fitting loops rerun schedule/lower several times and should
   show up as one line with a run count, not one line per retry. *)
let record t ~name ~kind ~(cost : cost) ~stats ~ok =
  let rec merge acc = function
    | [] ->
        let r =
          { pass_name = name; kind; runs = 1; wall_ns = cost.wall_ns;
            minor_words = cost.minor_words;
            minor_collections = cost.minor_collections; stats; ok }
        in
        r :: List.rev acc
    | r :: rest when r.pass_name = name ->
        let r =
          { r with runs = r.runs + 1; wall_ns = r.wall_ns +. cost.wall_ns;
            minor_words = r.minor_words +. cost.minor_words;
            minor_collections = r.minor_collections + cost.minor_collections;
            stats; ok = r.ok && ok }
        in
        List.rev_append acc (r :: rest)
    | r :: rest -> merge (r :: acc) rest
  in
  t.records_rev <- merge [] t.records_rev

let run t ~name ?(stats = fun _ -> []) f =
  let c0 = start () in
  match f () with
  | v ->
      record t ~name ~kind:Transform ~cost:(since c0) ~stats:(stats v)
        ~ok:true;
      v
  | exception e ->
      record t ~name ~kind:Transform ~cost:(since c0) ~stats:[] ~ok:false;
      raise e

let validate t ~name f =
  let c0 = start () in
  let result = f () in
  let cost = since c0 in
  match result with
  | Ok () -> record t ~name ~kind:Validate ~cost ~stats:[] ~ok:true
  | Error problems ->
      record t ~name ~kind:Validate ~cost ~stats:[] ~ok:false;
      raise (Diagnostics.Fail (Diagnostics.of_problems ~pass:name problems))

let report t =
  {
    pipeline = t.pipeline;
    records = List.rev t.records_rev;
    total_ns = now_ns () -. t.started_ns;
  }

let pp_report ppf (r : report) =
  Format.fprintf ppf "pipeline %s: %.2f ms total@," r.pipeline
    (r.total_ns /. 1e6);
  List.iter
    (fun rec_ ->
      let kind = match rec_.kind with Transform -> "pass" | Validate -> "check" in
      Format.fprintf ppf "  %-5s %-18s %8.3f ms %9.0f kw %3d minor" kind
        rec_.pass_name (rec_.wall_ns /. 1e6) (rec_.minor_words /. 1e3)
        rec_.minor_collections;
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
    r.records

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
    ]
