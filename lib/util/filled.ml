let of_rev_list placeholder l =
  let a = Array.make (List.length l) placeholder in
  let last = Array.length a - 1 in
  List.iteri (fun i x -> a.(last - i) <- x) l;
  a

let map placeholder f src =
  let a = Array.make (Array.length src) placeholder in
  for i = 0 to Array.length src - 1 do
    a.(i) <- f src.(i)
  done;
  a
