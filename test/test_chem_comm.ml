(* The three chemistry communication policies (staged / mixed / recompute)
   must agree with the host reference and with each other; single-consumer
   placement must eliminate those values from shared memory. *)

let hydrogen = Chem.Mech_gen.hydrogen
let dme = Chem.Mech_gen.dme

let policies =
  [
    ("staged", Singe.Compile.Chem_staged);
    ("recompute", Singe.Compile.Chem_recompute);
    ("mixed", Singe.Compile.Chem_mixed);
  ]

let run mech arch version nw comm =
  let opts =
    { (Singe.Target.options ~n_warps:nw arch Singe.Kernel_abi.Chemistry) with
      Singe.Compile.chem_comm = Some comm }
  in
  let c =
    Singe.Diagnostics.ok_exn
      (Singe.Compile.compile mech Singe.Kernel_abi.Chemistry version opts)
  in
  (c, Singe.Compile.run c ~total_points:(32 * 32))

let test_policies_match_reference () =
  List.iter
    (fun (name, comm) ->
      let _, r =
        run (hydrogen ()) Gpusim.Arch.kepler_k20c
          Singe.Compile.Warp_specialized 4 comm
      in
      Alcotest.(check bool)
        (name ^ " matches reference")
        true
        (r.Singe.Compile.max_rel_err < 1e-9))
    policies

let test_policies_match_each_other () =
  (* Policies reassociate a few sums, so outputs agree to rounding, not
     bitwise. *)
  let outs =
    List.map
      (fun (_, comm) ->
        let _, r =
          run (hydrogen ()) Gpusim.Arch.kepler_k20c
            Singe.Compile.Warp_specialized 4 comm
        in
        r.Singe.Compile.outputs)
      policies
  in
  match outs with
  | a :: rest ->
      List.iter
        (fun b ->
          Array.iteri
            (fun f fa ->
              Array.iteri
                (fun p v ->
                  let w = b.(f).(p) in
                  let scale = Float.max 1e-300 (Float.max (Float.abs v) (Float.abs w)) in
                  Alcotest.(check bool) "policies agree" true
                    (Float.abs (v -. w) /. scale < 1e-9 || Float.abs (v -. w) < 1e-280))
                fa)
            a)
        rest
  | [] -> assert false

let test_recompute_reduces_shared () =
  let shared comm =
    let c, _ = run (dme ()) Gpusim.Arch.kepler_k20c Singe.Compile.Warp_specialized 6 comm in
    c.Singe.Compile.lowered.Singe.Lower.program.Gpusim.Isa.shared_doubles
  in
  let st = shared Singe.Compile.Chem_staged in
  let rc = shared Singe.Compile.Chem_recompute in
  let mx = shared Singe.Compile.Chem_mixed in
  Alcotest.(check bool)
    (Printf.sprintf "recompute (%d) < staged (%d)" rc st)
    true (rc < st);
  Alcotest.(check bool)
    (Printf.sprintf "mixed (%d) <= staged (%d)" mx st)
    true (mx <= st)

let test_policies_on_fermi () =
  List.iter
    (fun (name, comm) ->
      let _, r =
        run (hydrogen ()) Gpusim.Arch.fermi_c2070
          Singe.Compile.Warp_specialized 4 comm
      in
      Alcotest.(check bool) (name ^ " on fermi") true
        (r.Singe.Compile.max_rel_err < 1e-9))
    policies

let test_naive_agrees_under_policies () =
  List.iter
    (fun (name, comm) ->
      let _, a =
        run (hydrogen ()) Gpusim.Arch.kepler_k20c
          Singe.Compile.Warp_specialized 4 comm
      in
      let _, b =
        run (hydrogen ()) Gpusim.Arch.kepler_k20c
          Singe.Compile.Naive_warp_specialized 4 comm
      in
      Array.iteri
        (fun f fa ->
          Array.iteri
            (fun p v ->
              Alcotest.(check (float 0.0))
                (name ^ ": overlay == naive")
                v
                b.Singe.Compile.outputs.(f).(p))
            fa)
        a.Singe.Compile.outputs)
    policies

let test_autotune_explores_policies () =
  (* The tuner must consider both staged and mixed for chemistry and return
     a numerically verified winner. *)
  let o =
    Singe.Autotune.tune ~points:(32 * 32)
      ~warp_candidates:[ 4 ] ~cta_targets:[ 1 ]
      (hydrogen ()) Singe.Kernel_abi.Chemistry
      Singe.Compile.Warp_specialized Gpusim.Arch.kepler_k20c
  in
  Alcotest.(check bool) "tried both policies" true (o.Singe.Autotune.tried >= 2);
  Alcotest.(check bool) "winner verified" true
    (o.Singe.Autotune.best.Singe.Autotune.result.Singe.Compile.max_rel_err < 1e-6)

let test_dme_policies_slow () =
  List.iter
    (fun (name, comm) ->
      let _, r =
        run (dme ()) Gpusim.Arch.kepler_k20c Singe.Compile.Warp_specialized 8 comm
      in
      Alcotest.(check bool) (name ^ " dme") true
        (r.Singe.Compile.max_rel_err < 1e-8))
    policies

let tests =
  [
    Alcotest.test_case "policies match reference" `Quick test_policies_match_reference;
    Alcotest.test_case "policies agree pairwise" `Quick test_policies_match_each_other;
    Alcotest.test_case "recompute shrinks shared" `Quick test_recompute_reduces_shared;
    Alcotest.test_case "policies on fermi" `Quick test_policies_on_fermi;
    Alcotest.test_case "naive agrees under policies" `Quick test_naive_agrees_under_policies;
    Alcotest.test_case "autotune explores policies" `Quick test_autotune_explores_policies;
    Alcotest.test_case "dme policies (slow)" `Slow test_dme_policies_slow;
  ]
