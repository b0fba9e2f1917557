(** Textual assembly for {!Isa.program}: a SASS-like, line-oriented format,
    the one printed form of a lowered program.

    Uses: inspecting generated code ([singe compile --emit-asm FILE], and
    [--dump-ir lower], which prints the same text after its summary lines),
    diffing two compilations, and printing counterexamples in tests.

    Format sketch:
    {v
    .program dme-viscosity-ws6
    .warps 6 .fregs 24 .iregs 3 .shared 1296 .local 0 .barriers 4
    .pointmap coop
    .expconsts false
    .group temperature 1
    ...
    .bank w0 l0 = 0x3ff0000000000000 ...
    .param w0 l0 = 3 17
    .constmem = 0x4008000000000000 ...
    .prologue {
      ld.cb f0, 0
    }
    .body {
      ld.g f1, g0.f0
      fma f2, f1, c[3], imm(0x3fe0000000000000)
      if 0xf {
        st.s f2, [128+32w+1l] @l<4
      }
      switch {
        warp 0 {
          bar.arr 2, 3
        }
        warp 1 {
          bar.sync 2, 3
        }
      }
      st.g f2, g4.f0
      bar.cta
    }
    v}

    Floats print as their 64-bit hexadecimal bit patterns, so the text
    names every constant exactly. *)

val emit : Isa.program -> string
(** The full textual form: header, banks, prologue and body. *)

val emit_block : Isa.block -> string
(** Just a code block, indented as in {!emit}. *)
