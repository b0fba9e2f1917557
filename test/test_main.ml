let () =
  Alcotest.run "singe"
    [
      ("mech-gen", Test_chem.first_tests);
      ("util", Test_util.tests);
      ("cache", Test_cache.tests);
      ("chem", Test_chem.tests);
      ("mech-load", Test_mech_load.tests);
      ("gpusim", Test_gpusim.tests);
      ("singe", Test_singe.tests);
      ("codegen", Test_codegen.tests);
      ("chem-comm", Test_chem_comm.tests);
      ("stats", Test_stats.tests);
      ("full-range", Test_full_range.tests);
      ("properties", Test_properties.tests);
      ("sri", Test_sri.tests);
      ("conductivity", Test_conductivity.tests);
      ("isa-text", Test_isa_text.tests);
      ("methane", Test_methane.tests);
      ("gpusim2", Test_gpusim2.tests);
      ("cuda-emit", Test_cuda_emit.tests);
      ("plog", Test_plog.tests);
      ("compiler-props", Test_compiler_props.tests);
      ("passes", Test_passes.tests);
      ("parallel", Test_parallel.tests);
      ("faults", Test_faults.tests);
      ("profile", Test_profile.tests);
      ("perf-model", Test_perf_model.tests);
      ("chip", Test_chip.tests);
      ("synth", Test_synth.tests);
      ("partition", Test_partition.tests);
      ("serve", Test_serve.tests);
      ("stencil", Test_stencil.tests);
      ("target", Test_target.tests);
    ]
