type action =
  | A_op of int
  | A_send of { value : int; slot : int }
  | A_recv of { value : int; slot : int }
  | A_arrive of { bar : int; count : int }
  | A_wait of { bar : int; count : int }
  | A_cta_barrier

type t = {
  per_warp : action array array;
  stamps : int array array;
      (** global emission-order stamp of each action (overlay alignment) *)
  barriers_used : int;
  buffer_slots : int;
  n_sync_points : int;
}

(* Planned sync point. A sync may have several arrivers (producers or
   emptied-slot consumers) and several waiters; the hardware barrier count
   is their total. Exact walk-step positions of every attachment are kept:
   allocation must know a sync's full extent (for draining) and its
   waits-before-arrives exposure (for boundary placement). *)
type sync = {
  sid : int;
  count : int;
  wait_pos : int list;
  arrive_pos : int list;
  mutable bar : int;  (** -1 = converted into a CTA-barrier boundary *)
}

type emission =
  | E_wait of sync
  | E_recv of int * int  (** value, slot *)
  | E_send of int * int
  | E_arrive of sync

let shared_buffer_base (m : Mapping.t) = m.Mapping.store_slots * 32

let build ?(buffer_slots = 16) ?(group_syncs = true) ?(max_barriers = 8)
    (dfg : Dfg.t) (m : Mapping.t) =
  assert (max_barriers >= 1 && max_barriers <= 16);
  let order = Dfg.topo_order dfg in
  let n_ops = Array.length dfg.Dfg.ops in
  let step_of_op = Array.make n_ops 0 in
  Array.iteri (fun step op_id -> step_of_op.(op_id) <- step) order;
  let warp_of op_id = m.Mapping.op_warp.(op_id) in
  let attach_before = Array.make n_ops [] in
  (* After-lists are split so a send can be attached retroactively and
     still precede the arrive that covers it. *)
  let sends_after = Array.make n_ops [] in
  let arrives_after = Array.make n_ops [] in
  let add_before op e = attach_before.(op) <- e :: attach_before.(op) in
  let add_send op e = sends_after.(op) <- e :: sends_after.(op) in
  let add_arrive op e = arrives_after.(op) <- e :: arrives_after.(op) in
  (* Emissions attached right after a warp crosses a given epoch boundary:
     used when a producer's anchor op lies before the boundary, where a
     send would race with the previous epoch's slot reads. *)
  let post_boundary : (int * int, emission list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let add_post_boundary b warp e =
    match Hashtbl.find_opt post_boundary (b, warp) with
    | Some l -> l := e :: !l
    | None -> Hashtbl.add post_boundary (b, warp) (ref [ e ])
  in
  let syncs = ref [] in
  let n_syncs = ref 0 in
  let syncs_since_boundary = ref 0 in
  let new_sync ~count ~arrive_pos ~wait_pos =
    let s = { sid = !n_syncs; count; wait_pos; arrive_pos; bar = -1 } in
    incr n_syncs;
    incr syncs_since_boundary;
    syncs := s :: !syncs;
    s
  in
  (* synced.(p).(c) = the anchor op of the last sync from p observed by c
     (or -1). One barrier covers everything the producer did before its
     arrive — including sends attached retroactively before that arrive,
     which is how consecutive consumers share a single sync point. *)
  let w = m.Mapping.n_warps in
  let synced = Array.make_matrix w w (-1) in
  let last_op = Array.make w (-1) in
  let last_wrap = ref (-1) in
  (* Buffer ring state. Slot reuse is synchronized at epoch granularity:
     when the ring wraps, a CTA-barrier boundary is forced, after which
     every earlier transport has provably been received (the coarse-grain
     variant of Fig. 2's buffer-empty barrier). *)
  let slot_value = Array.make buffer_slots (-1) in
  let copies : (int * int, int option) Hashtbl.t = Hashtbl.create 64 in
  let next_slot = ref 0 in
  let used_slots = ref 0 in
  let forced_boundaries = ref [] in
  (* A forced epoch is a CTA barrier: besides resetting the transport ring,
     it makes every warp's past productions visible to everyone, so the
     synced matrix advances for all pairs at once. *)
  let force_epoch step =
    forced_boundaries := step :: !forced_boundaries;
    last_wrap := step;
    syncs_since_boundary := 0;
    Array.fill slot_value 0 buffer_slots (-1);
    Hashtbl.iter
      (fun key st ->
        match st with
        | Some _ -> Hashtbl.replace copies key None
        | None -> ())
      (Hashtbl.copy copies);
    next_slot := 0;
    for p = 0 to w - 1 do
      if last_op.(p) >= 0 then
        for cc = 0 to w - 1 do
          synced.(p).(cc) <- last_op.(p)
        done
    done
  in
  (* One planning step per op, in topological order. All of the op's
     synchronization needs collapse into at most two sync points: an
     "empty" handshake letting producers reuse buffer slots (Fig. 2's
     second barrier) and a "full" handshake covering both buffered sends
     and unsynchronized shared-store values. *)
  Array.iteri
    (fun step op_id ->
      let op = dfg.Dfg.ops.(op_id) in
      let c = warp_of op_id in
      if op.Dfg.kind = Dfg.Fence then force_epoch step
      else begin
      (* Pre-scan: how many transport slots will this op need? If the ring
         cannot supply them within the current epoch, wrap first so all of
         the op's sends land after one boundary. *)
      let n_new = ref 0 in
      Array.iter
        (fun v ->
          let p = warp_of dfg.Dfg.values.(v).Dfg.producer in
          if
            m.Mapping.value_place.(v) = Mapping.P_reg
            && p <> c
            && not (Hashtbl.mem copies (c, v))
          then incr n_new)
        op.Dfg.inputs;
      if !n_new > buffer_slots then
        Diagnostics.failf ~pass:"schedule" ~loc:dfg.Dfg.graph_name
          "op %s needs %d transports but the buffer ring has only %d slots \
           (raise buffer_slots or change the mapping strategy)"
          op.Dfg.name !n_new buffer_slots;
      let free_in_epoch = buffer_slots - !next_slot in
      (* Epoch when the ring cannot supply this op, or when sync pressure
         since the last boundary is past what the hardware barriers can
         overlap anyway (dense all-to-all phases such as initial loads). *)
      if !n_new > free_in_epoch || (group_syncs && !syncs_since_boundary >= 2 * w)
      then force_epoch step;
      let alloc_slot () =
        assert (!next_slot < buffer_slots);
        let slot = !next_slot in
        incr next_slot;
        used_slots := max !used_slots !next_slot;
        slot
      in
      let need_producers = ref [] in (* producers a new sync must cover *)
      let transports = ref [] in (* (value, producer, slot) under the new sync *)
      let add_need p = if not (List.mem p !need_producers) then need_producers := p :: !need_producers in
      Array.iter
        (fun v ->
          let value = dfg.Dfg.values.(v) in
          let p = warp_of value.Dfg.producer in
          let prod_step = step_of_op.(value.Dfg.producer) in
          let anchor = synced.(p).(c) in
          let covered =
            group_syncs && anchor >= 0 && step_of_op.(anchor) >= prod_step
          in
          match m.Mapping.value_place.(v) with
          | Mapping.P_shared -> if p <> c && not covered then add_need p
          | Mapping.P_reg ->
              if p <> c && not (Hashtbl.mem copies (c, v)) then
                if covered && step_of_op.(anchor) >= !last_wrap then begin
                  (* Ride an existing sync: the send slips in before the
                     already-planned arrive at the same anchor, which the
                     consumer has already waited on. The anchor is at or
                     after the last wrap, so the slot write is ordered
                     after the previous epoch's reads. *)
                  let slot = alloc_slot () in
                  slot_value.(slot) <- v;
                  add_send anchor (E_send (v, slot));
                  add_before op_id (E_recv (v, slot));
                  Hashtbl.replace copies (c, v) (Some slot)
                end
                else begin
                  let slot = alloc_slot () in
                  slot_value.(slot) <- v;
                  transports := (v, p, slot) :: !transports;
                  add_need p;
                  Hashtbl.replace copies (c, v) (Some slot)
                end)
        op.Dfg.inputs;
      let producers = List.rev !need_producers in
      let transports = List.rev !transports in
      (* Full handshake: producers send (if buffered) then arrive; the
         consumer waits and receives. A producer idle since the last wrap
         attaches after its boundary crossing instead of at a pre-wrap op,
         where its slot writes would race with the previous epoch. *)
      if producers <> [] then begin
        let anchor_of p =
          if step_of_op.(last_op.(p)) >= !last_wrap then `Op last_op.(p)
          else `Boundary !last_wrap
        in
        let arrive_pos =
          List.map
            (fun p ->
              match anchor_of p with
              | `Op o -> step_of_op.(o)
              | `Boundary b -> b)
            producers
        in
        let s =
          new_sync ~count:(List.length producers + 1) ~arrive_pos
            ~wait_pos:[ step ]
        in
        List.iter
          (fun p ->
            (match anchor_of p with
            | `Op o ->
                List.iter
                  (fun (v, vp, slot) ->
                    if vp = p then add_send o (E_send (v, slot)))
                  transports;
                add_arrive o (E_arrive s)
            | `Boundary b ->
                List.iter
                  (fun (v, vp, slot) ->
                    if vp = p then add_post_boundary b p (E_send (v, slot)))
                  transports;
                add_post_boundary b p (E_arrive s));
            synced.(p).(c) <- last_op.(p))
          producers;
        add_before op_id (E_wait s);
        List.iter (fun (v, _, slot) -> add_before op_id (E_recv (v, slot))) transports
      end;
      last_op.(c) <- op_id
      end)
    order;
  (* Barrier allocation. Hardware named barriers are plain arrival
     counters: reusing an id while a previous sync could still be in
     flight lets a run-ahead warp's arrival be consumed by the wrong
     phase. An id is recycled only after a CTA-wide *boundary* past every
     attachment of its sync, at which point the counter has provably
     drained to zero. Boundaries are inserted on demand when the id budget
     runs out, and must never separate a sync's waiter (before) from
     another participant (after) — the one ordering a CTA barrier cannot
     cut without deadlock. This models the real cost of barrier pressure:
     §6.2's straggler-wait overhead. *)
  let syncs = List.rev !syncs in
  let all_pos s = s.wait_pos @ s.arrive_pos in
  let min_pos s = List.fold_left min max_int (all_pos s) in
  let max_pos s = List.fold_left max (-1) (all_pos s) in
  let min_wait s = List.fold_left min max_int s.wait_pos in
  let sorted =
    List.sort (fun a b -> compare (min_pos a, a.sid) (min_pos b, b.sid)) syncs
  in
  let epoch_boundaries = ref (List.sort_uniq compare !forced_boundaries) in
  let drain = Array.make max_barriers None in
  (* An id freed by a boundary at step B may only serve syncs whose first
     attachment is at or after B — otherwise two uses could overlap without
     an intervening boundary and pollute the arrival counter. *)
  let free_ids = ref (List.init max_barriers (fun id -> (-1, id))) in
  let drain_at boundary =
    Array.iteri
      (fun id st ->
        match st with
        | Some t when max_pos t < boundary ->
            drain.(id) <- None;
            free_ids := (boundary, id) :: !free_ids
        | Some _ | None -> ())
      drain
  in
  ignore min_wait;
  let take_id s =
    let rec go acc = function
      | [] -> None
      | (avail, id) :: rest when avail <= min_pos s ->
          free_ids := List.rev_append acc rest;
          Some id
      | entry :: rest -> go (entry :: acc) rest
    in
    go [] !free_ids
  in
  let pending_forced = ref (List.sort_uniq compare !forced_boundaries) in
  List.iter
    (fun s ->
      (* Forced boundaries (buffer-ring wraps) drain ids as they pass. *)
      let rec consume () =
        match !pending_forced with
        | b :: rest when b <= min_pos s ->
            drain_at b;
            pending_forced := rest;
            consume ()
        | _ :: _ | [] -> ()
      in
      consume ();
      (match take_id s with
      | Some id ->
          s.bar <- id;
          drain.(id) <- Some s
      | None -> (
          (* Out of usable ids: a boundary right before this sync's first
             attachment drains everything already completed (arrives always
             precede waits, so a boundary never cuts a sync badly). *)
          let boundary = min_pos s in
          epoch_boundaries := boundary :: !epoch_boundaries;
          drain_at boundary;
          match take_id s with
          | Some id ->
              s.bar <- id;
              drain.(id) <- Some s
          | None ->
              (* Convert this sync into a CTA barrier placed right before
                 its wait: the barrier subsumes the handshake (every
                 producer arrive/send precedes it). *)
              let b2 = List.fold_left min max_int s.wait_pos in
              epoch_boundaries := b2 :: !epoch_boundaries;
              drain_at b2;
              s.bar <- -1)))
    sorted;
  let epoch_boundaries = List.sort_uniq compare !epoch_boundaries in
  let barriers_used =
    List.fold_left (fun acc s -> max acc (s.bar + 1)) 0 syncs
  in
  (* Emission pass: walk the same order, appending per-warp actions. *)
  let lists = Array.make w [] in
  let stamp_lists = Array.make w [] in
  let clock = ref 0 in
  let emit warp a =
    lists.(warp) <- a :: lists.(warp);
    stamp_lists.(warp) <- !clock :: stamp_lists.(warp);
    incr clock
  in
  let emit_e warp = function
    | E_wait s when s.bar >= 0 -> emit warp (A_wait { bar = s.bar; count = s.count })
    | E_arrive s when s.bar >= 0 -> emit warp (A_arrive { bar = s.bar; count = s.count })
    | E_wait _ | E_arrive _ -> () (* subsumed by a CTA-barrier boundary *)
    | E_send (v, slot) -> emit warp (A_send { value = v; slot })
    | E_recv (v, slot) -> emit warp (A_recv { value = v; slot })
  in
  let boundaries = ref epoch_boundaries in
  Array.iteri
    (fun step op_id ->
      (match !boundaries with
      | b :: rest when step >= b ->
          (* Epoch close: every warp crosses a CTA barrier here, draining
             all named-barrier counters before ids are reused. Producers
             idle since before the boundary flush their deferred sends and
             arrives immediately after crossing. *)
          for warp = 0 to w - 1 do
            emit warp A_cta_barrier;
            match Hashtbl.find_opt post_boundary (b, warp) with
            | Some l -> List.iter (emit_e warp) (List.rev !l)
            | None -> ()
          done;
          boundaries := rest
      | _ :: _ | [] -> ());
      if dfg.Dfg.ops.(op_id).Dfg.kind <> Dfg.Fence then begin
        let warp = warp_of op_id in
        List.iter (emit_e warp) (List.rev attach_before.(op_id));
        emit warp (A_op op_id);
        List.iter (emit_e warp) (List.rev sends_after.(op_id));
        List.iter (emit_e warp) (List.rev arrives_after.(op_id))
      end)
    order;
  (* The body re-executes once per point batch; a CTA-wide barrier closes
     each batch so a fast warp cannot overwrite shared values or buffer
     slots before slower warps have read the previous batch's. *)
  if w > 1 then
    for warp = 0 to w - 1 do
      emit warp A_cta_barrier
    done;
  {
    per_warp = Array.map (fun l -> Array.of_list (List.rev l)) lists;
    stamps = Array.map (fun l -> Array.of_list (List.rev l)) stamp_lists;
    barriers_used;
    buffer_slots = !used_slots;
    n_sync_points = !n_syncs;
  }

let well_formed t (dfg : Dfg.t) (m : Mapping.t) =
  let n_ops = Array.length dfg.Dfg.ops in
  let seen = Array.make n_ops false in
  let problems = ref [] in
  let err fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Array.iteri
    (fun warp actions ->
      (* Per-warp availability: a warp may execute an op only after all its
         inputs are available to it (produced locally, received, or placed
         in shared memory). *)
      let have = Hashtbl.create 32 in
      Array.iter
        (fun a ->
          match a with
          | A_op op_id ->
              let op = dfg.Dfg.ops.(op_id) in
              if m.Mapping.op_warp.(op_id) <> warp then
                err "op %s emitted on warp %d, mapped to %d" op.Dfg.name warp
                  m.Mapping.op_warp.(op_id);
              if seen.(op_id) then err "op %s emitted twice" op.Dfg.name;
              seen.(op_id) <- true;
              Array.iter
                (fun v ->
                  let local =
                    m.Mapping.op_warp.(dfg.Dfg.values.(v).Dfg.producer) = warp
                  in
                  let shared =
                    m.Mapping.value_place.(v) = Mapping.P_shared
                  in
                  if (not local) && (not shared) && not (Hashtbl.mem have v)
                  then
                    err "op %s on warp %d reads value %s without a recv"
                      op.Dfg.name warp dfg.Dfg.values.(v).Dfg.vname)
                op.Dfg.inputs
          | A_recv { value; _ } -> Hashtbl.replace have value ()
          | A_send { value; _ } ->
              let p = m.Mapping.op_warp.(dfg.Dfg.values.(value).Dfg.producer) in
              if p <> warp then err "send of value %d from non-producer" value
          | A_arrive _ | A_wait _ | A_cta_barrier -> ())
        actions)
    t.per_warp;
  Array.iteri
    (fun op_id s ->
      if (not s) && dfg.Dfg.ops.(op_id).Dfg.kind <> Dfg.Fence then
        err "op %s never emitted" dfg.Dfg.ops.(op_id).Dfg.name)
    seen;
  match !problems with
  | [] -> Ok ()
  | l -> Error (String.concat "; " l)

(* Stamp-ordered per-use named-barrier pairing. The global emission
   stamps linearize every action along the planner's topological walk —
   the same linearization the §4.4 construction proves against. Along
   it, each barrier id's stream decomposes into consecutive *uses*:
   [count - 1] arrivals followed by exactly one wait, every participant
   quoting the same count. A use may legitimately span a CTA-wide
   boundary (the allocator inserts id-pressure boundaries between a
   sync's arrivals and its wait and simply keeps the id allocated across
   them — arrivals always precede the wait, so the cut is safe), but two
   *different* uses of one id must be separated by a boundary past every
   attachment of the earlier use: that is what drains the hardware
   counter and makes recycling the id safe. Epochs (per-warp CTA-barrier
   crossing counts, identical across warps because boundaries are
   emitted on every warp) witness that separation. *)
let pairing_problems (t : t) =
  let problems = ref [] in
  let err fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let by_bar : (int, (int * int * int * bool * int) list ref) Hashtbl.t =
    (* bar -> (stamp, warp, epoch, is_wait, count) *)
    Hashtbl.create 16
  in
  let attach bar entry =
    match Hashtbl.find_opt by_bar bar with
    | Some l -> l := entry :: !l
    | None -> Hashtbl.add by_bar bar (ref [ entry ])
  in
  Array.iteri
    (fun warp actions ->
      let epoch = ref 0 in
      Array.iteri
        (fun i a ->
          match a with
          | A_cta_barrier -> incr epoch
          | A_arrive { bar; count } ->
              attach bar (t.stamps.(warp).(i), warp, !epoch, false, count)
          | A_wait { bar; count } ->
              attach bar (t.stamps.(warp).(i), warp, !epoch, true, count)
          | A_op _ | A_send _ | A_recv _ -> ())
        actions)
    t.per_warp;
  let bars = Hashtbl.fold (fun bar l acc -> (bar, !l) :: acc) by_bar [] in
  List.iter
    (fun (bar, entries) ->
      let entries = List.sort compare entries in
      let pending = ref [] in (* arrivals since the last completed use *)
      let prev_max_epoch = ref (-1) in
      List.iter
        (fun (_, warp, epoch, is_wait, count) ->
          if not is_wait then pending := (epoch, count) :: !pending
          else begin
            let arrivals = List.rev !pending in
            pending := [];
            (match
               List.sort_uniq compare
                 (count :: List.map (fun (_, c) -> c) arrivals)
             with
            | [ c ] ->
                if List.length arrivals <> c - 1 then
                  err
                    "barrier %d: the use ending at warp %d's wait has %d \
                     arrival(s), the count-%d sync needs %d"
                    bar warp (List.length arrivals) c (c - 1)
            | cs ->
                err "barrier %d: participants of warp %d's sync disagree on \
                     count (%s)"
                  bar warp
                  (String.concat "," (List.map string_of_int cs)));
            let min_epoch =
              List.fold_left (fun acc (e, _) -> min acc e) epoch arrivals
            in
            let max_epoch =
              List.fold_left (fun acc (e, _) -> max acc e) epoch arrivals
            in
            if !prev_max_epoch >= min_epoch then
              err
                "barrier %d: reused in epoch %d with no CTA-wide boundary \
                 past its previous use (last attachment in epoch %d) — the \
                 counter may not have drained"
                bar min_epoch !prev_max_epoch;
            prev_max_epoch := max_epoch
          end)
        entries;
      if !pending <> [] then
        err "barrier %d: %d arrival(s) with no subsequent wait" bar
          (List.length !pending))
    (List.sort compare bars);
  List.rev !problems

let validate ?(max_barriers = 16) t (dfg : Dfg.t) (m : Mapping.t) =
  let problems = ref [] in
  let err fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match well_formed t dfg m with Ok () -> () | Error e -> err "%s" e);
  if t.barriers_used > max_barriers then
    err "%d named barriers used, budget is %d" t.barriers_used max_barriers;
  if t.barriers_used > 16 then
    err "%d named barriers used, hardware has 16" t.barriers_used;
  Array.iteri
    (fun warp actions ->
      let stamps = t.stamps.(warp) in
      if Array.length stamps <> Array.length actions then
        err "warp %d: %d stamps for %d actions" warp (Array.length stamps)
          (Array.length actions);
      Array.iteri
        (fun i a ->
          if i > 0 && i < Array.length stamps && stamps.(i) <= stamps.(i - 1)
          then err "warp %d: stamps not strictly increasing at action %d" warp i;
          match a with
          | A_arrive { bar; _ } | A_wait { bar; _ } ->
              if bar < 0 || bar >= t.barriers_used then
                err "warp %d: barrier id %d outside [0, %d)" warp bar
                  t.barriers_used
          | A_send { slot; _ } | A_recv { slot; _ } ->
              if slot < 0 || slot >= t.buffer_slots then
                err "warp %d: ring slot %d outside [0, %d)" warp slot
                  t.buffer_slots
          | A_op _ | A_cta_barrier -> ())
        actions)
    t.per_warp;
  List.iter (fun p -> err "%s" p) (pairing_problems t);
  match List.rev !problems with [] -> Ok () | l -> Error l

let pp_dump (dfg : Dfg.t) ppf t =
  Format.fprintf ppf
    "schedule: %d sync points, %d named barriers, %d ring slots@,"
    t.n_sync_points t.barriers_used t.buffer_slots;
  Array.iteri
    (fun warp actions ->
      Format.fprintf ppf "  warp %d:@," warp;
      Array.iteri
        (fun i a ->
          Format.fprintf ppf "    @@%-5d " t.stamps.(warp).(i);
          (match a with
          | A_op op -> Format.fprintf ppf "op %s" dfg.Dfg.ops.(op).Dfg.name
          | A_send { value; slot } ->
              Format.fprintf ppf "send %s -> slot %d"
                dfg.Dfg.values.(value).Dfg.vname slot
          | A_recv { value; slot } ->
              Format.fprintf ppf "recv %s <- slot %d"
                dfg.Dfg.values.(value).Dfg.vname slot
          | A_arrive { bar; count } ->
              Format.fprintf ppf "arrive bar%d (count %d)" bar count
          | A_wait { bar; count } ->
              Format.fprintf ppf "wait bar%d (count %d)" bar count
          | A_cta_barrier -> Format.fprintf ppf "cta-barrier");
          Format.pp_print_cut ppf ())
        actions)
    t.per_warp
