type broadcast_style = Shared_mirror | Shuffle

type t = {
  name : string;
  n_sms : int;
  clock_mhz : float;
  regfile_per_sm : int;
  max_regs_per_thread : int;
  shared_bytes_per_sm : int;
  max_warps_per_sm : int;
  max_ctas_per_sm : int;
  named_barriers_per_sm : int;
  schedulers : int;
  dp_issue_per_cycle : float;
  const_operand_penalty : float;
  alu_issue_per_cycle : float;
  arith_latency : int;
  shared_latency : int;
  global_latency : int;
  icache_miss_latency : int;
  tex_bytes_per_cycle : float;
  global_bytes_per_cycle : float;
  local_bytes_per_cycle : float;
  shared_banks : int;
  shared_issue_per_cycle : float;
  const_cache_bytes : int;
  const_line_bytes : int;
  icache_bytes : int;
  icache_line_instrs : int;
  icache_assoc : int;
  instr_bytes : int;
  broadcast : broadcast_style;
  has_ldg : bool;
  shared_operand_collector : bool;
  l2_bytes : int;
  dram_gbs_peak : float;
  sm_clock_skew : float;
}

(* Bytes per SM-cycle for an aggregate bandwidth in GB/s. *)
let per_sm_cycle ~gbs ~sms ~mhz = gbs *. 1e9 /. (float_of_int sms *. mhz *. 1e6)

let fermi_c2070 =
  let sms = 14 and mhz = 1147.0 in
  {
    name = "Fermi C2070";
    n_sms = sms;
    clock_mhz = mhz;
    regfile_per_sm = 32768;
    max_regs_per_thread = 64;
    shared_bytes_per_sm = 49152;
    max_warps_per_sm = 48;
    max_ctas_per_sm = 8;
    named_barriers_per_sm = 16;
    schedulers = 2;
    dp_issue_per_cycle = 0.5;
    const_operand_penalty = 1.0;
    alu_issue_per_cycle = 2.0;
    arith_latency = 18;
    shared_latency = 30;
    global_latency = 500;
    icache_miss_latency = 120;
    tex_bytes_per_cycle = per_sm_cycle ~gbs:144.0 ~sms ~mhz;
    global_bytes_per_cycle = per_sm_cycle ~gbs:144.0 ~sms ~mhz;
    local_bytes_per_cycle = per_sm_cycle ~gbs:88.0 ~sms ~mhz;
    shared_banks = 32;
    shared_issue_per_cycle = 1.0;
    const_cache_bytes = 8192;
    const_line_bytes = 64;
    icache_bytes = 8192;
    icache_line_instrs = 8;
    icache_assoc = 4;
    instr_bytes = 8;
    broadcast = Shared_mirror;
    has_ldg = false;
    (* Fermi arithmetic reads shared-memory operands through the operand
       collector, without a separate LD/ST issue slot. *)
    shared_operand_collector = true;
    l2_bytes = 786432;
    dram_gbs_peak = 144.0;
    sm_clock_skew = 0.0;
  }

let kepler_k20c =
  let sms = 13 and mhz = 705.0 in
  {
    name = "Kepler K20c";
    n_sms = sms;
    clock_mhz = mhz;
    regfile_per_sm = 65536;
    max_regs_per_thread = 255;
    shared_bytes_per_sm = 49152;
    max_warps_per_sm = 64;
    max_ctas_per_sm = 16;
    named_barriers_per_sm = 16;
    schedulers = 4;
    dp_issue_per_cycle = 2.0;
    const_operand_penalty = 1.35;
    alu_issue_per_cycle = 4.0;
    arith_latency = 10;
    shared_latency = 30;
    global_latency = 440;
    icache_miss_latency = 120;
    tex_bytes_per_cycle = per_sm_cycle ~gbs:165.0 ~sms ~mhz;
    global_bytes_per_cycle = per_sm_cycle ~gbs:190.0 ~sms ~mhz;
    local_bytes_per_cycle = per_sm_cycle ~gbs:100.0 ~sms ~mhz;
    shared_banks = 32;
    shared_issue_per_cycle = 1.0;
    const_cache_bytes = 8192;
    const_line_bytes = 64;
    icache_bytes = 8192;
    icache_line_instrs = 8;
    icache_assoc = 4;
    instr_bytes = 8;
    broadcast = Shuffle;
    has_ldg = true;
    shared_operand_collector = false;
    l2_bytes = 1572864;
    dram_gbs_peak = 208.0;
    sm_clock_skew = 0.0;
  }

let by_name s =
  match String.lowercase_ascii s with
  | "fermi" | "c2070" | "fermi_c2070" -> Some fermi_c2070
  | "kepler" | "k20c" | "kepler_k20c" -> Some kepler_k20c
  | _ -> None

let peak_dp_gflops t =
  t.dp_issue_per_cycle *. 64.0 *. t.clock_mhz *. 1e6 *. float_of_int t.n_sms
  /. 1e9

let icache_line_bytes t = t.icache_line_instrs * t.instr_bytes

let dram_bytes_per_chip_cycle t =
  t.dram_gbs_peak *. 1e9 /. (t.clock_mhz *. 1e6)

let pp ppf t =
  Format.fprintf ppf "%s: %d SMs @ %.0f MHz, peak %.0f DP GFLOPS" t.name
    t.n_sms t.clock_mhz (peak_dp_gflops t)
