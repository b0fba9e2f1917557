type stats = {
  size : int;
  cost : int;
  limit : int;
  hits : int;
  misses : int;
  evictions : int;
  corruptions : int;
}

let stats_to_json { size; cost; limit; hits; misses; evictions; corruptions } =
  Json.Obj
    (List.map
       (fun (k, v) -> (k, Json.of_int v))
       [ ("size", size); ("cost", cost); ("limit", limit); ("hits", hits);
         ("misses", misses); ("evictions", evictions);
         ("corruptions", corruptions) ])

module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type key = K.t
  type 'v entry = { value : 'v; mutable last_use : int }

  type 'v t = {
    table : 'v entry H.t;
    mutex : Mutex.t;
    cost : 'v -> int;
    verify : 'v -> bool;
    on_evict : key -> 'v -> unit;
    mutable capacity : int;
    mutable total : int;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable corruptions : int;
  }

  let create ?(cost = fun _ -> 1) ?(verify = fun _ -> true)
      ?(on_evict = fun _ _ -> ()) capacity =
    { table = H.create 64; mutex = Mutex.create (); cost; verify; on_evict;
      capacity; total = 0; clock = 0; hits = 0; misses = 0; evictions = 0;
      corruptions = 0 }

  let locked c f = Mutex.protect c.mutex f

  (* The helpers below run under the mutex. *)
  let drop c key e =
    H.remove c.table key;
    c.total <- c.total - c.cost e.value

  let touch c e =
    c.clock <- c.clock + 1;
    e.last_use <- c.clock

  (* Oldest first, one scan per eviction. *)
  let rec evict_down c =
    let older key e = function
      | Some (_, o) as oldest when o.last_use <= e.last_use -> oldest
      | _ -> Some (key, e)
    in
    if c.total > c.capacity then
      Option.iter
        (fun (key, e) ->
          drop c key e;
          c.evictions <- c.evictions + 1;
          c.on_evict key e.value;
          evict_down c)
        (H.fold older c.table None)

  let find ?(accept = fun _ -> true) c key =
    locked c (fun () ->
        match H.find_opt c.table key with
        | None ->
            c.misses <- c.misses + 1;
            None
        | Some e when not (c.verify e.value) ->
            drop c key e;
            c.corruptions <- c.corruptions + 1;
            c.misses <- c.misses + 1;
            c.on_evict key e.value;
            None
        | Some e ->
            if accept e.value then begin
              c.hits <- c.hits + 1;
              touch c e
            end;
            Some e.value)

  let add c key v =
    locked c (fun () ->
        match H.find_opt c.table key with
        | Some winner ->
            c.misses <- c.misses - 1;
            c.hits <- c.hits + 1;
            touch c winner;
            winner.value
        | None ->
            if c.cost v <= c.capacity then begin
              let e = { value = v; last_use = 0 } in
              touch c e;
              H.replace c.table key e;
              c.total <- c.total + c.cost v;
              evict_down c
            end;
            v)

  let update c key f =
    locked c (fun () ->
        Option.iter
          (fun e ->
            let before = c.cost e.value in
            f e.value;
            c.total <- c.total + c.cost e.value - before;
            evict_down c)
          (H.find_opt c.table key))

  let remove c key =
    locked c (fun () -> Option.iter (drop c key) (H.find_opt c.table key))

  let clear c =
    locked c (fun () ->
        H.reset c.table;
        c.total <- 0)

  let set_capacity c n =
    locked c (fun () ->
        c.capacity <- n;
        evict_down c)

  let stats c =
    locked c (fun () ->
        { size = H.length c.table; cost = c.total; limit = c.capacity;
          hits = c.hits; misses = c.misses; evictions = c.evictions;
          corruptions = c.corruptions })

  let to_list c =
    locked c (fun () ->
        H.fold (fun key e acc -> (e.last_use, (key, e.value)) :: acc) c.table [])
    |> List.sort (fun (a, _) (b, _) -> compare b a)
    |> List.map snd
end
