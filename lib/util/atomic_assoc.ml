type ('k, 'v) t = ('k * 'v) list Atomic.t

let find t key = List.assoc_opt key (Atomic.get t)

let rec add t key v =
  let l = Atomic.get t in
  match List.assoc_opt key l with
  | Some bound -> (bound, false)
  | None ->
      if Atomic.compare_and_set t l ((key, v) :: l) then (v, true)
      else add t key v
