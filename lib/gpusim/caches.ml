module Icache = struct
  type stats = {
    mutable hits : int;
    mutable stream_hits : int;
    mutable misses : int;
    mutable fill_stall_cycles : int;
        (** Latency of every fill this cache initiated, counted once per
            fill — warps that pile onto an in-flight fill add nothing.
            Per-warp wait time lives in the profiler's buckets. *)
  }

  type t = {
    sets : int array array;  (** [set][way] = line tag, -1 empty *)
    lru : int array array;  (** [set][way] = last-use stamp *)
    ready : int array array;  (** [set][way] = cycle the fill completes *)
    streams : int array;  (** next expected line per stream, -1 idle *)
    stream_lru : int array;
    mutable stamp : int;
    n_sets : int;
    assoc : int;
    miss_latency : int;
    prefetch_cost : int;
    st : stats;
  }

  (* Concurrent sequential streams the front end can track; calibrated so
     that naive warp-specialized code begins thrashing at six divergent
     paths (Fig. 9). *)
  let max_streams = 5

  (* A fetch this many lines ahead of a stream still counts as covered:
     the prefetcher runs ahead, so skipping a short masked block does not
     break the sequence (§5.1: short divergent regions are fine). *)
  let stream_window = 16

  (* Catch-up cost of a stream-covered fetch. *)
  let prefetch_fill = 6

  let create (arch : Arch.t) =
    let line_bytes = arch.Arch.icache_line_instrs * arch.Arch.instr_bytes in
    let lines = arch.Arch.icache_bytes / line_bytes in
    let assoc = arch.Arch.icache_assoc in
    let n_sets = max 1 (lines / assoc) in
    {
      sets = Array.make_matrix n_sets assoc (-1);
      lru = Array.make_matrix n_sets assoc 0;
      ready = Array.make_matrix n_sets assoc 0;
      streams = Array.make max_streams (-1);
      stream_lru = Array.make max_streams 0;
      stamp = 0;
      n_sets;
      assoc;
      miss_latency = arch.Arch.icache_miss_latency;
      prefetch_cost = prefetch_fill;
      st = { hits = 0; stream_hits = 0; misses = 0; fill_stall_cycles = 0 };
    }

  (* The lookups below are plain loops, not [Array.iteri] closures, so an
     access allocates nothing; each keeps the last match, as a full scan
     in way order would. *)
  let insert t ~now ~fill line =
    let set = line mod t.n_sets in
    let ways = t.sets.(set) and lru = t.lru.(set) in
    let found = ref false in
    for w = 0 to Array.length ways - 1 do
      if ways.(w) = line then begin
        found := true;
        lru.(w) <- t.stamp
      end
    done;
    if not !found then begin
      let victim = ref 0 in
      for w = 0 to Array.length ways - 1 do
        if lru.(w) < lru.(!victim) then victim := w
      done;
      ways.(!victim) <- line;
      lru.(!victim) <- t.stamp;
      t.ready.(set).(!victim) <- now + fill
    end

  (* Residency probe: the stall until the line is ready (0 when it is
     resident), or -1 when it is absent. *)
  let probe t ~now line =
    let set = line mod t.n_sets in
    let ways = t.sets.(set) in
    let result = ref (-1) in
    for w = 0 to Array.length ways - 1 do
      if ways.(w) = line then begin
        t.lru.(set).(w) <- t.stamp;
        result := max 0 (t.ready.(set).(w) - now)
      end
    done;
    !result

  let access t ~now ~line =
    t.stamp <- t.stamp + 1;
    let wait = probe t ~now line in
    if wait >= 0 then begin
      t.st.hits <- t.st.hits + 1;
      wait
    end
    else begin
      (* Does a prefetch stream cover this line (within its run-ahead
         window)? *)
      let stream = ref (-1) in
      for s = 0 to Array.length t.streams - 1 do
        let next = t.streams.(s) in
        if next >= 0 && line >= next && line < next + stream_window then
          stream := s
      done;
      if !stream >= 0 then begin
        let s = !stream in
        t.streams.(s) <- line + 1;
        t.stream_lru.(s) <- t.stamp;
        insert t ~now ~fill:t.prefetch_cost line;
        t.st.stream_hits <- t.st.stream_hits + 1;
        t.st.fill_stall_cycles <- t.st.fill_stall_cycles + t.prefetch_cost;
        t.prefetch_cost
      end
      else begin
        (* Full miss: allocate (or steal) a stream for the new
           sequence. *)
        let victim = ref 0 in
        for s = 0 to Array.length t.streams - 1 do
          if t.stream_lru.(s) < t.stream_lru.(!victim) then victim := s
        done;
        t.streams.(!victim) <- line + 1;
        t.stream_lru.(!victim) <- t.stamp;
        insert t ~now ~fill:t.miss_latency line;
        t.st.misses <- t.st.misses + 1;
        t.st.fill_stall_cycles <- t.st.fill_stall_cycles + t.miss_latency;
        t.miss_latency
      end
    end

  let stats t = t.st

  let line_of_addr (arch : Arch.t) addr =
    addr / (arch.Arch.icache_line_instrs * arch.Arch.instr_bytes)
end

module Ccache = struct
  type stats = {
    mutable hits : int;
    mutable misses : int;
    mutable fill_stall_cycles : int;
        (** Latency of every fill, once per initiated fill (see
            {!Icache.stats.fill_stall_cycles}). *)
  }

  type t = {
    lines : int array;
    lru : int array;
    ready : int array;
    mutable slot_of_line : int array;
        (** [slot_of_line.(line)]: the index in [lines] holding [line], -1
            when absent; grown on a miss, so a hit allocates nothing *)
    mutable stamp : int;
    slots_per_line : int;
    miss_latency : int;
    st : stats;
  }

  let create (arch : Arch.t) =
    let n_lines = arch.Arch.const_cache_bytes / arch.Arch.const_line_bytes in
    {
      lines = Array.make n_lines (-1);
      lru = Array.make n_lines 0;
      ready = Array.make n_lines 0;
      slot_of_line = Array.make n_lines (-1);
      stamp = 0;
      slots_per_line = arch.Arch.const_line_bytes / 8;
      miss_latency = arch.Arch.global_latency;
      st = { hits = 0; misses = 0; fill_stall_cycles = 0 };
    }

  let access t ~now ~slot =
    t.stamp <- t.stamp + 1;
    let line = slot / t.slots_per_line in
    let hit =
      if line < Array.length t.slot_of_line then t.slot_of_line.(line) else -1
    in
    if hit >= 0 then begin
      t.lru.(hit) <- t.stamp;
      t.st.hits <- t.st.hits + 1;
      (* A line still in flight stalls followers until the fill lands. *)
      max 0 (t.ready.(hit) - now)
    end
    else begin
      (* Least recently used, ties to the lowest index. *)
      let victim = ref 0 in
      for i = 0 to Array.length t.lines - 1 do
        if t.lru.(i) < t.lru.(!victim) then victim := i
      done;
      let old = t.lines.(!victim) and n = Array.length t.slot_of_line in
      if old >= 0 then t.slot_of_line.(old) <- -1;
      if line >= n then begin
        let grown = Array.make (max (line + 1) (2 * n)) (-1) in
        Array.blit t.slot_of_line 0 grown 0 n;
        t.slot_of_line <- grown
      end;
      t.slot_of_line.(line) <- !victim;
      t.lines.(!victim) <- line;
      t.lru.(!victim) <- t.stamp;
      t.ready.(!victim) <- now + t.miss_latency;
      t.st.misses <- t.st.misses + 1;
      t.st.fill_stall_cycles <- t.st.fill_stall_cycles + t.miss_latency;
      t.miss_latency
    end

  let stats t = t.st
end
