(* Per-warp cycle attribution: the data produced by [Sm.run ?profile].

   The simulator issues at most [schedulers] instructions per cycle and
   fast-forwards over dead time, so the profiler cannot walk every
   (warp, cycle) pair. Instead each warp carries a tiny ledger — the
   cycle its current *span* started and the bucket that span accrues
   into — and a span is flushed whenever the warp's classification
   changes (it issues, its block reason changes, it stalls, parks on a
   barrier, or retires). Because every flush advances the span origin to
   the current cycle and issue cycles are credited explicitly, the
   buckets of one warp always sum to the total cycle count exactly:

     forall w.  sum_b buckets.(w).(b) = cycles

   which is the conservation invariant `test/test_profile.ml` pins for
   every shipped kernel. Attribution inside a span is the reason
   observed at the scheduler's visits; a warp skipped only because the
   cycle's issue slots were spent keeps its previous class (for a warp
   that just issued that is the [issue] bucket, read as issue-slot
   contention). *)

(* ---- bucket taxonomy ----

   Buckets are plain ints so [Sm]'s hot path can index arrays without
   boxing. The taxonomy follows the paper's §6 discussion: where does a
   warp-specialized warp spend its life? *)

let issue = 0 (* issuing, or contending for one of the issue slots *)
let arith = 1 (* scoreboard wait on an arithmetic producer, DP/ALU port busy *)
let mem = 2 (* scoreboard wait on a load, LD/ST or shared port busy *)
let bar_named = 3 (* parked on a named barrier (incl. post-release latency) *)
let bar_cta = 4 (* parked on the CTA-wide barrier *)
let icache = 5 (* instruction-fetch miss or in-flight fill *)
let ccache = 6 (* constant-cache miss or in-flight fill *)
let idle = 7 (* retired (and the pre-first-visit prologue gap) *)
let n_buckets = 8

let bucket_names =
  [|
    "issue"; "arith"; "memory"; "barrier"; "cta-barrier"; "icache"; "ccache";
    "idle";
  |]

(* ---- per-barrier wait histograms ---- *)

let hist_buckets = 24

(* Log2 bucket of a wait length: 0 -> 0, otherwise 1 + floor(log2 w),
   capped. Bucket i >= 1 holds waits in [2^(i-1), 2^i). *)
let hist_bucket w =
  if w <= 0 then 0
  else begin
    let b = ref 0 and v = ref w in
    while !v > 0 do
      incr b;
      v := !v lsr 1
    done;
    min (hist_buckets - 1) !b
  end

type bar_wait = {
  bw_bar : int;  (** barrier id; -1 encodes the CTA-wide barrier *)
  bw_count : int;  (** completed waits (warp-release events) *)
  bw_total : int;  (** warp-cycles from park to release *)
  bw_max : int;
  bw_hist : int array;  (** [hist_buckets] log2 buckets; sums to bw_count *)
}

(* ---- timeline ---- *)

type span = {
  sp_warp : int;
  sp_bucket : int;
  sp_start : int;
  sp_stop : int;  (** exclusive *)
}

type t = {
  cycles : int;
  warps : (int * int) array;  (** warp index -> (cta, wid) *)
  buckets : int array array;  (** [warp index][bucket] warp-cycles *)
  bar_waits : bar_wait list;  (** barriers with at least one completed wait *)
  timeline : span array;  (** chronological by span end; ring-truncated *)
  timeline_dropped : int;  (** spans evicted from the ring, 0 if it held *)
}

let n_warps t = Array.length t.warps
let total_warp_cycles t = t.cycles * n_warps t

let bucket_totals t =
  let tot = Array.make n_buckets 0 in
  Array.iter
    (fun row -> Array.iteri (fun i v -> tot.(i) <- tot.(i) + v) row)
    t.buckets;
  tot

let conservation_residual t =
  Array.fold_left
    (fun acc row -> Array.fold_left ( + ) acc row)
    0 t.buckets
  - total_warp_cycles t

let conservation_ok t = conservation_residual t = 0

(* Largest wait-bucket cells (issue and idle excluded), descending;
   ties break on warp then bucket so output is deterministic. *)
let top_stalls ?(n = 10) t =
  let all = ref [] in
  Array.iteri
    (fun w row ->
      Array.iteri
        (fun b v ->
          if b <> issue && b <> idle && v > 0 then all := (w, b, v) :: !all)
        row)
    t.buckets;
  let sorted =
    List.sort
      (fun (w1, b1, v1) (w2, b2, v2) ->
        if v1 <> v2 then compare v2 v1 else compare (w1, b1) (w2, b2))
      !all
  in
  List.filteri (fun i _ -> i < n) sorted

(* ---- rendering ---- *)

let pp_breakdown ppf t =
  let nw = n_warps t in
  Format.fprintf ppf
    "per-warp cycle attribution: %d cycles x %d warps = %d warp-cycles (%s)@,"
    t.cycles nw (total_warp_cycles t)
    (if conservation_ok t then "conserved"
     else Printf.sprintf "NOT conserved, residual %d" (conservation_residual t));
  Format.fprintf ppf "%-10s" "warp";
  Array.iter (fun name -> Format.fprintf ppf " %11s" name) bucket_names;
  Format.pp_print_cut ppf ();
  Array.iteri
    (fun w row ->
      let cta, wid = t.warps.(w) in
      Format.fprintf ppf "%-10s" (Printf.sprintf "cta%d/w%d" cta wid);
      Array.iter (fun v -> Format.fprintf ppf " %11d" v) row;
      Format.pp_print_cut ppf ())
    t.buckets;
  let tot = bucket_totals t in
  Format.fprintf ppf "%-10s" "total";
  Array.iter (fun v -> Format.fprintf ppf " %11d" v) tot;
  Format.pp_print_cut ppf ();
  let denom = Float.max 1.0 (float_of_int (total_warp_cycles t)) in
  Format.fprintf ppf "%-10s" "share";
  Array.iter
    (fun v ->
      Format.fprintf ppf " %10.1f%%" (100.0 *. float_of_int v /. denom))
    tot

let pp_bar_waits ppf t =
  List.iter
    (fun b ->
      Format.fprintf ppf
        "%s: %d waits, %d warp-cycles total, %d max, median bucket [%s)@,"
        (if b.bw_bar < 0 then "CTA-wide barrier"
         else Printf.sprintf "named barrier %d" b.bw_bar)
        b.bw_count b.bw_total b.bw_max
        (let seen = ref 0 and median = ref 0 in
         Array.iteri
           (fun i n ->
             if !seen * 2 < b.bw_count then begin
               seen := !seen + n;
               median := i
             end)
           b.bw_hist;
         if !median = 0 then "0, 1"
         else Printf.sprintf "%d, %d" (1 lsl (!median - 1)) (1 lsl !median)))
    t.bar_waits

(* ---- serialization ---- *)

(* Chrome trace-event JSON ("X" complete events): one event per span,
   pid = CTA, tid = warp id within the CTA, ts/dur in simulated cycles.
   Events are sorted by start time so any consumer (and our own tests)
   sees monotone timestamps. *)
let to_chrome_trace t =
  let spans = Array.copy t.timeline in
  Array.sort
    (fun a b ->
      if a.sp_start <> b.sp_start then compare a.sp_start b.sp_start
      else compare (a.sp_warp, a.sp_stop) (b.sp_warp, b.sp_stop))
    spans;
  let open Sutil.Json in
  let event s =
    let cta, wid = t.warps.(s.sp_warp) in
    Obj
      [
        ("name", Str bucket_names.(s.sp_bucket));
        ("cat", Str "warp");
        ("ph", Str "X");
        ("pid", of_int cta);
        ("tid", of_int wid);
        ("ts", of_int s.sp_start);
        ("dur", of_int (s.sp_stop - s.sp_start));
        ("args", Obj [ ("warp", of_int s.sp_warp) ]);
      ]
  in
  emit
    (Obj
       [
         ("displayTimeUnit", Str "ns");
         ( "otherData",
           Obj
             [
               ("cycles", of_int t.cycles);
               ("n_warps", of_int (n_warps t));
               ("dropped_spans", of_int t.timeline_dropped);
             ] );
         ("traceEvents", List (Array.to_list (Array.map event spans)));
       ])
  ^ "\n"

(* The perf-snapshot payload: totals plus the full per-warp breakdown
   (timeline spans are deliberately excluded — they belong in the Chrome
   trace, not a perf time series). *)
let to_json t =
  let open Sutil.Json in
  let by_bucket row =
    Array.to_list (Array.mapi (fun i v -> (bucket_names.(i), of_int v)) row)
  in
  Obj
    [
      ("cycles", of_int t.cycles);
      ("n_warps", of_int (n_warps t));
      ("conserved", Bool (conservation_ok t));
      ("totals", Obj (by_bucket (bucket_totals t)));
      ( "warps",
        List
          (Array.to_list
             (Array.mapi
                (fun w row ->
                  let cta, wid = t.warps.(w) in
                  Obj
                    (("cta", of_int cta) :: ("wid", of_int wid)
                   :: by_bucket row))
                t.buckets)) );
      ( "bar_waits",
        List
          (List.map
             (fun b ->
               Obj
                 [
                   ("bar", of_int b.bw_bar);
                   ("count", of_int b.bw_count);
                   ("total", of_int b.bw_total);
                   ("max", of_int b.bw_max);
                 ])
             t.bar_waits) );
    ]
