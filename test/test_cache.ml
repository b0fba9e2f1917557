(* Sutil.Cache against a list-based reference LRU. *)

module C = Sutil.Cache.Make (Int)

(* A value is its identity and a cost an [update] may change. *)
type value = { id : int; cost : int ref }

type op =
  | Find of int * bool  (** key, whether [accept] takes the value *)
  | Add of int * int  (** key, cost *)
  | Update of int * int  (** key, new cost *)
  | Remove of int
  | Set_capacity of int
  | Clear

let pp_op = function
  | Find (k, a) -> Printf.sprintf "find %d%s" k (if a then "" else " refused")
  | Add (k, c) -> Printf.sprintf "add %d cost %d" k c
  | Update (k, c) -> Printf.sprintf "update %d cost %d" k c
  | Remove k -> Printf.sprintf "remove %d" k
  | Set_capacity n -> Printf.sprintf "capacity %d" n
  | Clear -> "clear"

let gen_op =
  QCheck.Gen.(
    let key = int_bound 5 and cost = int_bound 6 in
    frequency
      [
        ( 6,
          map2
            (fun k a -> Find (k, a))
            key
            (frequency [ (5, return true); (1, return false) ]) );
        (6, map2 (fun k c -> Add (k, c)) key cost);
        (2, map2 (fun k c -> Update (k, c)) key cost);
        (1, map (fun k -> Remove k) key);
        (1, map (fun n -> Set_capacity n) (int_bound 20));
        (1, return Clear);
      ])

(* The reference: entries most recently used first, as (key, id, cost). *)
type model = {
  mutable entries : (int * int * int) list;
  mutable capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable evicted : int list;  (** keys, latest first *)
}

let total m = List.fold_left (fun n (_, _, c) -> n + c) 0 m.entries

let rec evict m =
  if total m > m.capacity then
    match List.rev m.entries with
    | (k, _, _) :: older ->
        m.entries <- List.rev older;
        m.evicted <- k :: m.evicted;
        evict m
    | [] -> ()

let model_step m id = function
  | Find (k, accept) -> (
      match List.find_opt (fun (k', _, _) -> k' = k) m.entries with
      | None ->
          m.misses <- m.misses + 1;
          None
      | Some ((_, i, _) as e) ->
          if accept then begin
            m.hits <- m.hits + 1;
            m.entries <- e :: List.filter (( != ) e) m.entries
          end;
          Some i)
  | Add (k, c) -> (
      match List.find_opt (fun (k', _, _) -> k' = k) m.entries with
      | Some ((_, i, _) as e) ->
          m.misses <- m.misses - 1;
          m.hits <- m.hits + 1;
          m.entries <- e :: List.filter (( != ) e) m.entries;
          Some i
      | None ->
          if c <= m.capacity then begin
            m.entries <- (k, id, c) :: m.entries;
            evict m
          end;
          Some id)
  | Update (k, c) ->
      m.entries <-
        List.map
          (fun (k', i, c') -> if k' = k then (k', i, c) else (k', i, c'))
          m.entries;
      evict m;
      None
  | Remove k ->
      m.entries <- List.filter (fun (k', _, _) -> k' <> k) m.entries;
      None
  | Set_capacity n ->
      m.capacity <- n;
      evict m;
      None
  | Clear ->
      m.entries <- [];
      None

let run_ops ops =
  let evicted = ref [] in
  let c =
    C.create
      ~cost:(fun v -> !(v.cost))
      ~on_evict:(fun k _ -> evicted := k :: !evicted)
      10
  in
  let m = { entries = []; capacity = 10; hits = 0; misses = 0; evicted = [] } in
  List.iteri
    (fun step op ->
      let got =
        match op with
        | Find (k, accept) ->
            Option.map (fun v -> v.id) (C.find ~accept:(fun _ -> accept) c k)
        | Add (k, cost) -> Some (C.add c k { id = step; cost = ref cost }).id
        | Update (k, cost) ->
            C.update c k (fun v -> v.cost := cost);
            None
        | Remove k ->
            C.remove c k;
            None
        | Set_capacity n ->
            C.set_capacity c n;
            None
        | Clear ->
            C.clear c;
            None
      in
      let want = model_step m step op in
      let fail what =
        QCheck.Test.fail_reportf "step %d (%s): %s differs" step (pp_op op)
          what
      in
      if got <> want then fail "the returned value";
      let contents = C.to_list c in
      if List.map (fun (k, v) -> (k, v.id, !(v.cost))) contents <> m.entries
      then fail "the contents, in recency order";
      if !evicted <> m.evicted then fail "the eviction order";
      let s = C.stats c in
      if
        s
        <> {
             Sutil.Cache.size = List.length m.entries;
             cost = total m;
             limit = m.capacity;
             hits = m.hits;
             misses = m.misses;
             evictions = List.length m.evicted;
             corruptions = 0;
           }
      then fail "the stats")
    ops;
  true

let qcheck_model =
  QCheck.Test.make ~count:500 ~name:"cache equals a reference LRU"
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
        Gen.(list_size (int_range 1 80) gen_op))
    run_ops

let test_over_capacity () =
  let c = C.create ~cost:(fun v -> !(v.cost)) 5 in
  let big = { id = 0; cost = ref 6 } in
  Alcotest.(check bool) "returned" true (C.add c 0 big == big);
  Alcotest.(check int) "not kept" 0 (C.stats c).Sutil.Cache.size;
  Alcotest.(check bool) "so a lookup misses" true (C.find c 0 = None)

let test_failing_verify () =
  let evicted = ref 0 in
  let c =
    C.create
      ~verify:(fun v -> !(v.cost) = 1)
      ~on_evict:(fun _ _ -> incr evicted)
      4
  in
  let v = { id = 0; cost = ref 1 } in
  ignore (C.add c 0 v);
  Alcotest.(check bool) "a verified hit" true
    (match C.find c 0 with Some v' -> v' == v | None -> false);
  v.cost := 2;
  Alcotest.(check bool) "a failed verification misses" true
    (C.find c 0 = None);
  let s = C.stats c in
  Alcotest.(check (list int))
    "size, hits, misses, corruptions, evictions"
    [ 0; 1; 1; 1; 0 ]
    Sutil.Cache.[ s.size; s.hits; s.misses; s.corruptions; s.evictions ];
  Alcotest.(check int) "on_evict ran for the dropped entry" 1 !evicted

(* Two domains look one key up and add it on a miss: whichever adds
   first, every lookup is counted once, and the loser's miss is counted
   as the hit it became. *)
let test_racing_domains () =
  let c = C.create 4 in
  let n = 10_000 in
  let worker id () =
    for _ = 1 to n do
      match C.find c 0 with
      | Some _ -> ()
      | None -> ignore (C.add c 0 { id; cost = ref 1 })
    done
  in
  let d1 = Domain.spawn (worker 1) and d2 = Domain.spawn (worker 2) in
  Domain.join d1;
  Domain.join d2;
  let s = C.stats c in
  Alcotest.(check int) "hits + misses = lookups" (2 * n)
    (s.Sutil.Cache.hits + s.Sutil.Cache.misses);
  Alcotest.(check int) "one miss" 1 s.Sutil.Cache.misses;
  Alcotest.(check int) "one entry" 1 s.Sutil.Cache.size

let tests =
  [
    QCheck_alcotest.to_alcotest qcheck_model;
    Alcotest.test_case "a value over the capacity is not kept" `Quick
      test_over_capacity;
    Alcotest.test_case "a failed verification is a corruption" `Quick
      test_failing_verify;
    Alcotest.test_case "racing domains keep the counters" `Quick
      test_racing_domains;
  ]
