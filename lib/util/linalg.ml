exception Singular

let solve a b =
  let n = Array.length b in
  assert (Array.length a = n);
  let m = Array.map Array.copy a in
  let v = Array.copy b in
  for col = 0 to n - 1 do
    (* Partial pivoting: bring the largest remaining entry into the pivot row. *)
    let pivot = ref col in
    for row = col + 1 to n - 1 do
      if abs_float m.(row).(col) > abs_float m.(!pivot).(col) then pivot := row
    done;
    if abs_float m.(!pivot).(col) < 1e-300 then raise Singular;
    if !pivot <> col then begin
      let tmp = m.(col) in
      m.(col) <- m.(!pivot);
      m.(!pivot) <- tmp;
      let tv = v.(col) in
      v.(col) <- v.(!pivot);
      v.(!pivot) <- tv
    end;
    for row = col + 1 to n - 1 do
      let factor = m.(row).(col) /. m.(col).(col) in
      if factor <> 0.0 then begin
        for k = col to n - 1 do
          m.(row).(k) <- m.(row).(k) -. (factor *. m.(col).(k))
        done;
        v.(row) <- v.(row) -. (factor *. v.(col))
      end
    done
  done;
  let x = Array.make n 0.0 in
  for row = n - 1 downto 0 do
    let s = ref v.(row) in
    for k = row + 1 to n - 1 do
      s := !s -. (m.(row).(k) *. x.(k))
    done;
    x.(row) <- !s /. m.(row).(row)
  done;
  x
