(* Utility-library tests: deterministic PRNG and small dense linear
   algebra. *)

let test_prng_determinism () =
  let a = Sutil.Prng.create 42L and b = Sutil.Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sutil.Prng.int64 a) (Sutil.Prng.int64 b)
  done

let test_prng_bounds () =
  let t = Sutil.Prng.create 7L in
  for _ = 1 to 1000 do
    let v = Sutil.Prng.int t 17 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 17);
    let f = Sutil.Prng.range t 2.0 3.0 in
    Alcotest.(check bool) "float in range" true (f >= 2.0 && f < 3.0);
    let g = Sutil.Prng.log_range t 1e-3 1e3 in
    Alcotest.(check bool) "log range" true (g >= 1e-3 && g < 1e3)
  done

let test_prng_sample () =
  let t = Sutil.Prng.create 9L in
  let s = Sutil.Prng.sample t 5 10 in
  Alcotest.(check int) "sample size" 5 (List.length s);
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare s));
  List.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 10)) s

let test_prng_split_independent () =
  let t = Sutil.Prng.create 1L in
  let a = Sutil.Prng.split t "a" and b = Sutil.Prng.split t "b" in
  Alcotest.(check bool) "different streams" true
    (Sutil.Prng.int64 a <> Sutil.Prng.int64 b)

let test_solve_exact () =
  let a = [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Sutil.Linalg.solve a [| 5.0; 10.0 |] in
  Alcotest.(check (float 1e-12)) "x0" 1.0 x.(0);
  Alcotest.(check (float 1e-12)) "x1" 3.0 x.(1)

let test_solve_singular () =
  let a = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" Sutil.Linalg.Singular (fun () ->
      ignore (Sutil.Linalg.solve a [| 1.0; 2.0 |]))

let test_polyfit_exact () =
  (* A cubic is recovered exactly from its own samples by the frozen
     least-squares fit the transport fits are checked against. *)
  let coeffs = [| 1.5; -2.0; 0.25; 0.125 |] in
  let pts =
    List.init 10 (fun i ->
        let x = float_of_int i in
        (x, Array.fold_right (fun c acc -> (acc *. x) +. c) coeffs 0.0))
  in
  let fit = Fit_reference.polyfit ~degree:3 pts in
  Array.iteri
    (fun i c -> Alcotest.(check (float 1e-8)) (Printf.sprintf "c%d" i) c fit.(i))
    coeffs

let qcheck_solve =
  QCheck.Test.make ~count:200 ~name:"solve satisfies a*x = b"
    QCheck.(
      pair
        (array_of_size (Gen.return 3) (float_range (-10.) 10.))
        (array_of_size (Gen.return 9) (float_range (-10.) 10.)))
    (fun (b, flat) ->
      let a = Array.init 3 (fun i -> Array.sub flat (3 * i) 3) in
      (* make it diagonally dominant so it is well conditioned *)
      Array.iteri (fun i row -> row.(i) <- row.(i) +. 50.0) a;
      let x = Sutil.Linalg.solve a b in
      Array.for_all Fun.id
        (Array.init 3 (fun i ->
             let s = ref 0.0 in
             for j = 0 to 2 do
               s := !s +. (a.(i).(j) *. x.(j))
             done;
             abs_float (!s -. b.(i)) < 1e-6)))

let tests =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng sample" `Quick test_prng_sample;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    Alcotest.test_case "solve exact" `Quick test_solve_exact;
    Alcotest.test_case "solve singular" `Quick test_solve_singular;
    Alcotest.test_case "polyfit exact" `Quick test_polyfit_exact;
    QCheck_alcotest.to_alcotest qcheck_solve;
  ]
