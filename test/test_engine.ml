(* Unit and property tests for the discrete-event kernel. *)

module Rng = Lk_engine.Rng
module Event_queue = Lk_engine.Event_queue
module Sim = Lk_engine.Sim
module Stats = Lk_engine.Stats

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* --- Rng ------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check (Alcotest.int64 : int64 Alcotest.testable) "same stream"
      (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check_bool "different seeds differ" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let c1 = Rng.split parent in
  let c2 = Rng.split parent in
  check_bool "siblings differ" false (Rng.bits64 c1 = Rng.bits64 c2)

let test_rng_copy () =
  let a = Rng.create 9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  check (Alcotest.int64 : int64 Alcotest.testable) "copy continues stream"
    (Rng.bits64 a) (Rng.bits64 b)

let test_rng_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_nonpositive () =
  let r = Rng.create 3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    check_bool "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_chance_extremes () =
  let r = Rng.create 11 in
  check_bool "p=0 never" false (Rng.chance r 0.0);
  check_bool "p=1 always" true (Rng.chance r 1.0)

let test_rng_chance_rough_frequency () =
  let r = Rng.create 13 in
  let hits = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Rng.chance r 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  check_bool "close to 0.3" true (freq > 0.27 && freq < 0.33)

let test_rng_geometric () =
  let r = Rng.create 17 in
  check_int "p=1 is 0" 0 (Rng.geometric r 1.0);
  let sum = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    let v = Rng.geometric r 0.5 in
    check_bool "non-negative" true (v >= 0);
    sum := !sum + v
  done;
  (* mean of geometric(0.5) failures = 1 *)
  let mean = float_of_int !sum /. float_of_int n in
  check_bool "mean near 1" true (mean > 0.9 && mean < 1.1)

let test_rng_zipf_bounds () =
  let r = Rng.create 19 in
  for _ = 1 to 2000 do
    let v = Rng.zipf r ~n:50 ~s:0.99 in
    check_bool "in range" true (v >= 0 && v < 50)
  done

let test_rng_zipf_skew () =
  let r = Rng.create 23 in
  let counts = Array.make 20 0 in
  for _ = 1 to 20_000 do
    let v = Rng.zipf r ~n:20 ~s:1.2 in
    counts.(v) <- counts.(v) + 1
  done;
  check_bool "rank 0 hottest" true (counts.(0) > counts.(5));
  check_bool "rank 0 much hotter than tail" true (counts.(0) > 4 * counts.(19))

let test_rng_zipf_uniform_when_s0 () =
  let r = Rng.create 29 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Rng.zipf r ~n:10 ~s:0.0 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c -> check_bool "roughly uniform" true (c > 700 && c < 1300))
    counts

let test_rng_zipf_n1 () =
  let r = Rng.create 31 in
  check_int "single element" 0 (Rng.zipf r ~n:1 ~s:2.0)

let test_rng_shuffle_permutation () =
  let r = Rng.create 37 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation"
    (Array.init 100 (fun i -> i))
    sorted

(* --- Event_queue ----------------------------------------------------- *)

let test_eq_empty () =
  let q = Event_queue.create () in
  check_bool "fresh empty" true (Event_queue.is_empty q);
  check_bool "pop none" true (Event_queue.pop q = None);
  check_bool "peek none" true (Event_queue.peek_time q = None)

let test_eq_order () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:5 "c";
  Event_queue.add q ~time:1 "a";
  Event_queue.add q ~time:3 "b";
  check_bool "peek earliest" true (Event_queue.peek_time q = Some 1);
  check_bool "a" true (Event_queue.pop q = Some (1, "a"));
  check_bool "b" true (Event_queue.pop q = Some (3, "b"));
  check_bool "c" true (Event_queue.pop q = Some (5, "c"));
  check_bool "drained" true (Event_queue.pop q = None)

let test_eq_fifo_ties () =
  let q = Event_queue.create () in
  List.iter (fun s -> Event_queue.add q ~time:7 s) [ "x"; "y"; "z" ];
  check_bool "x" true (Event_queue.pop q = Some (7, "x"));
  check_bool "y" true (Event_queue.pop q = Some (7, "y"));
  check_bool "z" true (Event_queue.pop q = Some (7, "z"))

let test_eq_interleaved () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:10 1;
  check_bool "pop 10" true (Event_queue.pop q = Some (10, 1));
  Event_queue.add q ~time:4 2;
  Event_queue.add q ~time:20 3;
  check_bool "pop 4" true (Event_queue.pop q = Some (4, 2));
  check_int "length" 1 (Event_queue.length q)

let prop_eq_sorted =
  QCheck.Test.make ~name:"event queue pops in nondecreasing time order"
    ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.add q ~time:t t) times;
      let rec drain last acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, v) ->
          if t < last then failwith "order violation"
          else drain t (v :: acc)
      in
      let popped = drain min_int [] in
      List.sort compare popped = List.sort compare times)

let prop_eq_stable =
  QCheck.Test.make ~name:"same-time events pop in insertion order" ~count:100
    QCheck.(list_of_size Gen.(1 -- 50) (int_bound 5))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i t -> Event_queue.add q ~time:t (t, i)) times;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (_, v) -> drain (v :: acc)
      in
      let popped = drain [] in
      (* within each time bucket, sequence numbers must increase *)
      let ok = ref true in
      List.iteri
        (fun i (t1, s1) ->
          List.iteri
            (fun j (t2, s2) ->
              if i < j && t1 = t2 && s1 > s2 then ok := false)
            popped)
        popped;
      !ok)

(* Differential test of the two backends: the heap is the reference
   implementation, the wheel must pop the exact same (time, payload)
   sequence through ~10k random schedule/pop/clear interleavings,
   including adds below the wheel's current window (reachable only
   through the raw queue API) and far beyond its horizon. *)
let test_eq_backend_differential () =
  let run_ops seed =
    let rng = Rng.create seed in
    let qw = Event_queue.create ~backend:Event_queue.Wheel () in
    let qh = Event_queue.create ~backend:Event_queue.Heap () in
    let clock = ref 0 in
    let next_id = ref 0 in
    for op = 1 to 10_000 do
      let r = Rng.int rng 100 in
      if r < 55 then begin
        let time =
          if r < 35 then !clock + Rng.int rng 300 (* near window *)
          else if r < 48 then !clock + Rng.int rng 8192 (* far heap *)
          else if !clock = 0 then 0
          else Rng.int rng !clock (* below the window: reshuffle *)
        in
        let id = !next_id in
        incr next_id;
        Event_queue.add qw ~time id;
        Event_queue.add qh ~time id
      end
      else if r < 97 then begin
        let a = Event_queue.pop qw and b = Event_queue.pop qh in
        if a <> b then
          Alcotest.failf "seed %d op %d: wheel and heap popped differently"
            seed op;
        match a with Some (t, _) -> clock := t | None -> ()
      end
      else begin
        Event_queue.clear qw;
        Event_queue.clear qh;
        clock := 0
      end;
      check_int "lengths agree" (Event_queue.length qh)
        (Event_queue.length qw);
      if Event_queue.peek_time qw <> Event_queue.peek_time qh then
        Alcotest.failf "seed %d op %d: peek_time disagrees" seed op
    done;
    (* Drain whatever is left and compare the full tail. *)
    let rec drain () =
      let a = Event_queue.pop qw and b = Event_queue.pop qh in
      if a <> b then Alcotest.failf "seed %d drain: tail mismatch" seed;
      if a <> None then drain ()
    in
    drain ()
  in
  List.iter run_ops [ 1; 42; 1337 ]

(* Regression test for the space leak where [pop] left the popped entry
   reachable through the heap array's vacated slot: attach finalisers
   to every payload, pop them all, and require the GC to collect every
   one while the queue itself is still live and non-empty. *)
let test_eq_pop_releases_payloads backend () =
  let q = Event_queue.create ~backend () in
  let collected = ref 0 in
  let n = 64 in
  for i = 0 to n - 1 do
    let payload = ref i in
    Gc.finalise (fun _ -> incr collected) payload;
    Event_queue.add q ~time:i payload
  done;
  for _ = 1 to n do
    ignore (Event_queue.pop q)
  done;
  (* Keep the queue alive and non-empty across the collection so the
     test observes the queue dropping the payloads, not the queue
     itself dying. *)
  Event_queue.add q ~time:1000 (ref (-1));
  Gc.full_major ();
  Gc.full_major ();
  check_int "queue still holds the sentinel event" 1 (Event_queue.length q);
  check_int "all popped payloads collected" n !collected

(* --- Int_table -------------------------------------------------------- *)

module Int_table = Lk_engine.Int_table

let test_int_table_basic () =
  let t = Int_table.create ~dummy:(-1) () in
  check_bool "fresh empty" true (Int_table.is_empty t);
  Int_table.replace t 5 50;
  Int_table.replace t 9 90;
  Int_table.replace t 5 55;
  check_int "length counts keys, not writes" 2 (Int_table.length t);
  check_bool "mem" true (Int_table.mem t 5);
  check_bool "find_opt" true (Int_table.find_opt t 5 = Some 55);
  check_int "find default" 90 (Int_table.find t ~default:0 9);
  check_int "find miss" 0 (Int_table.find t ~default:0 7);
  Int_table.remove t 5;
  check_bool "removed" false (Int_table.mem t 5);
  check_int "length after remove" 1 (Int_table.length t);
  Int_table.reset t;
  check_bool "reset empties" true (Int_table.is_empty t)

let test_int_table_rejects_negative () =
  let t = Int_table.create ~dummy:0 () in
  Alcotest.check_raises "negative key"
    (Invalid_argument "Int_table.replace: negative key") (fun () ->
      Int_table.replace t (-3) 1)

(* Property test against Hashtbl as the reference: random interleaved
   replace/remove/find churn (keys drawn from a small range so slots
   are hit repeatedly, exercising tombstone reuse and same-capacity
   rehash as well as growth). *)
let prop_int_table_matches_hashtbl =
  QCheck.Test.make ~name:"Int_table behaves like Hashtbl under churn"
    ~count:50
    QCheck.(list (pair (int_bound 200) (int_bound 3)))
    (fun ops ->
      let t = Int_table.create ~capacity:4 ~dummy:(-1) () in
      let h = Hashtbl.create 16 in
      List.iteri
        (fun i (key, op) ->
          match op with
          | 0 | 1 ->
            Int_table.replace t key i;
            Hashtbl.replace h key i
          | 2 -> (
            Int_table.remove t key;
            Hashtbl.remove h key;
            match Int_table.find_opt t key with
            | Some _ -> failwith "find after remove"
            | None -> ())
          | _ ->
            if Int_table.find_opt t key <> Hashtbl.find_opt h key then
              failwith "lookup mismatch")
        ops;
      (* Full-state comparison both ways. *)
      Int_table.length t = Hashtbl.length h
      && Int_table.fold t ~init:true ~f:(fun k v acc ->
             acc && Hashtbl.find_opt h k = Some v)
      && Hashtbl.fold
           (fun k v acc -> acc && Int_table.find_opt t k = Some v)
           h true)

let test_int_table_iter_visits_all () =
  let t = Int_table.create ~capacity:4 ~dummy:0 () in
  for k = 0 to 99 do
    Int_table.replace t k (k * 3)
  done;
  for k = 0 to 99 do
    if k mod 2 = 0 then Int_table.remove t k
  done;
  let sum = ref 0 and count = ref 0 in
  Int_table.iter t (fun k v ->
      check_int "value matches key" (k * 3) v;
      incr count;
      sum := !sum + k);
  check_int "iterates live keys only" 50 !count;
  check_int "sum of odd keys" 2500 !sum

(* --- Sim ------------------------------------------------------------- *)

let test_sim_runs_in_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:10 (fun () -> log := "b" :: !log);
  Sim.schedule sim ~delay:5 (fun () -> log := "a" :: !log);
  Sim.schedule sim ~delay:15 (fun () -> log := "c" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check_int "clock at last event" 15 (Sim.now sim)

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let fired = ref 0 in
  Sim.schedule sim ~delay:3 (fun () ->
      Sim.schedule sim ~delay:4 (fun () -> fired := Sim.now sim));
  Sim.run sim;
  check_int "nested at 7" 7 !fired

let test_sim_zero_delay_same_cycle () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:2 (fun () ->
      log := `First :: !log;
      Sim.schedule sim ~delay:0 (fun () -> log := `Second :: !log));
  Sim.run sim;
  check_int "clock" 2 (Sim.now sim);
  check_bool "both fired" true (List.length !log = 2)

let test_sim_negative_delay_rejected () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Sim.schedule: negative delay") (fun () ->
      Sim.schedule sim ~delay:(-1) (fun () -> ()))

let test_sim_schedule_at_past_rejected () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:5 (fun () -> ());
  Sim.run sim;
  Alcotest.check_raises "past"
    (Invalid_argument "Sim.schedule_at: time in the past") (fun () ->
      Sim.schedule_at sim ~time:2 (fun () -> ()))

let test_sim_limit_discards () =
  let sim = Sim.create () in
  let fired = ref false in
  Sim.schedule sim ~delay:100 (fun () -> fired := true);
  Sim.run ~limit:50 sim;
  check_bool "discarded" false !fired;
  check_int "clock clamped" 50 (Sim.now sim)

let test_sim_quiescent_hook_injects () =
  let sim = Sim.create () in
  let rescued = ref false in
  let armed = ref true in
  Sim.on_quiescent sim (fun () ->
      if !armed then begin
        armed := false;
        Sim.schedule sim ~delay:1 (fun () -> rescued := true)
      end);
  Sim.schedule sim ~delay:1 (fun () -> ());
  Sim.run sim;
  check_bool "hook injected work" true !rescued

let test_sim_stalled_hook_loop () =
  let sim = Sim.create () in
  (* a hook that always injects a same-cycle event: livelock *)
  Sim.on_quiescent sim (fun () -> Sim.schedule sim ~delay:0 (fun () -> ()));
  Sim.schedule sim ~delay:1 (fun () -> ());
  match Sim.run sim with
  | () -> Alcotest.fail "livelocked hook loop not detected"
  | exception Sim.Stalled _ -> ()

let test_sim_hook_loop_with_progress_ok () =
  let sim = Sim.create () in
  (* a hook that advances the clock each time: terminates via budget *)
  let n = ref 0 in
  Sim.on_quiescent sim (fun () ->
      if !n < 2000 then begin
        incr n;
        Sim.schedule sim ~delay:1 (fun () -> ())
      end);
  Sim.schedule sim ~delay:1 (fun () -> ());
  Sim.run sim;
  check_int "hooks all ran" 2000 !n

let test_sim_step () =
  let sim = Sim.create () in
  let n = ref 0 in
  Sim.schedule sim ~delay:1 (fun () -> incr n);
  Sim.schedule sim ~delay:2 (fun () -> incr n);
  check_bool "step 1" true (Sim.step sim);
  check_int "one fired" 1 !n;
  check_bool "step 2" true (Sim.step sim);
  check_bool "drained" false (Sim.step sim)

(* --- Ledger ---------------------------------------------------------- *)

module Ledger = Lk_engine.Ledger

let test_ledger_codes_roundtrip () =
  List.iter
    (fun k ->
      check_bool "code roundtrips" true
        (Ledger.kind_of_code (Ledger.kind_code k) = Some k))
    Ledger.kinds;
  let labels = List.map Ledger.kind_label Ledger.kinds in
  check_int "labels distinct"
    (List.length labels)
    (List.length (List.sort_uniq compare labels));
  check_bool "out of range" true (Ledger.kind_of_code (-1) = None);
  check_bool "out of range" true
    (Ledger.kind_of_code (List.length Ledger.kinds) = None)

let test_ledger_ordering () =
  let sim = Sim.create () in
  let l = Ledger.create ~capacity:16 sim in
  List.iter
    (fun (delay, core, kind, arg) ->
      Sim.schedule sim ~delay (fun () -> Ledger.emit l ~core kind ~arg))
    [
      (5, 0, Ledger.Tx_begin, 0);
      (9, 1, Ledger.Tx_begin, 0);
      (12, 0, Ledger.Tx_commit, 1);
      (12, 1, Ledger.Tx_abort, 2);
    ];
  Sim.run sim;
  check_int "recorded" 4 (Ledger.recorded l);
  check_int "length" 4 (Ledger.length l);
  check_int "dropped" 0 (Ledger.dropped l);
  let es = Ledger.entries l in
  check_bool "times nondecreasing" true
    (List.for_all2
       (fun a b -> a.Ledger.time <= b.Ledger.time)
       (List.filteri (fun i _ -> i < 3) es)
       (List.tl es));
  match es with
  | [ a; b; c; d ] ->
    check_int "t0" 5 a.Ledger.time;
    check_bool "k0" true (a.Ledger.kind = Ledger.Tx_begin);
    check_int "core1" 1 b.Ledger.core;
    check_bool "commit" true (c.Ledger.kind = Ledger.Tx_commit);
    check_int "commit attempts" 1 c.Ledger.arg;
    check_bool "abort" true (d.Ledger.kind = Ledger.Tx_abort);
    check_int "abort reason index" 2 d.Ledger.arg
  | _ -> Alcotest.fail "expected 4 entries"

let test_ledger_wraparound () =
  let sim = Sim.create () in
  let l = Ledger.create ~capacity:4 sim in
  for i = 0 to 9 do
    Ledger.emit l ~core:i Ledger.Nack ~arg:(10 * i)
  done;
  check_int "capacity" 4 (Ledger.capacity l);
  check_int "recorded" 10 (Ledger.recorded l);
  check_int "length" 4 (Ledger.length l);
  check_int "dropped" 6 (Ledger.dropped l);
  let cores = List.map (fun e -> e.Ledger.core) (Ledger.entries l) in
  Alcotest.(check (list int)) "keeps the trailing window" [ 6; 7; 8; 9 ] cores;
  let dump = Format.asprintf "%a" (Ledger.dump ?limit:None) l in
  check_bool "dump notes the drops" true
    (let sub = "# 6 earlier events dropped" in
     let rec find i =
       i + String.length sub <= String.length dump
       && (String.sub dump i (String.length sub) = sub || find (i + 1))
     in
     find 0)

let test_ledger_clear () =
  let sim = Sim.create () in
  let l = Ledger.create ~capacity:4 sim in
  for i = 0 to 9 do
    Ledger.emit l ~core:0 Ledger.Park ~arg:i
  done;
  Ledger.clear l;
  check_int "empty" 0 (Ledger.length l);
  check_int "recorded reset" 0 (Ledger.recorded l);
  check_int "dropped reset" 0 (Ledger.dropped l);
  Ledger.emit l ~core:3 Ledger.Wake ~arg:0;
  check_int "usable after clear" 1 (Ledger.length l)

let test_ledger_emit_no_alloc () =
  (* The hot path writes four ints into a preallocated array: steady
     state must not allocate at all. *)
  let sim = Sim.create () in
  let l = Ledger.create ~capacity:1024 sim in
  for i = 0 to 99 do
    Ledger.emit l ~core:0 Ledger.Nack ~arg:i
  done;
  let w0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    Ledger.emit l ~core:0 Ledger.Nack ~arg:i
  done;
  let per_call = (Gc.minor_words () -. w0) /. 10_000.0 in
  check_bool
    (Printf.sprintf "allocation-free emit (%.2f words/call)" per_call)
    true (per_call < 0.01)

(* --- Stats ----------------------------------------------------------- *)

let test_stats_counter () =
  let g = Stats.group "g" in
  let c = Stats.counter g "hits" in
  Stats.incr c;
  Stats.add c 4;
  check_int "value" 5 (Stats.value c);
  check_bool "same name same counter" true
    (Stats.value (Stats.counter g "hits") = 5)

let test_stats_reset () =
  let g = Stats.group "g" in
  let c = Stats.counter g "x" in
  Stats.incr c;
  Stats.reset g;
  check_int "zeroed" 0 (Stats.value c)

let test_stats_counters_sorted () =
  let g = Stats.group "g" in
  ignore (Stats.counter g "zebra");
  ignore (Stats.counter g "apple");
  let names = List.map fst (Stats.counters g) in
  Alcotest.(check (list string)) "sorted" [ "apple"; "zebra" ] names

(* --- HDR histograms --------------------------------------------------- *)

let test_hdr_empty () =
  let d = Stats.hdr () in
  check_int "count" 0 (Stats.hdr_count d);
  check_int "sum" 0 (Stats.hdr_sum d);
  check_bool "min none" true (Stats.hdr_min d = None);
  check_bool "max none" true (Stats.hdr_max d = None);
  check (Alcotest.float 0.001) "mean 0" 0.0 (Stats.hdr_mean d);
  check_int "p50 of empty" 0 (Stats.percentile d 50.)

let test_hdr_exact_below_32 () =
  (* Values below 32 land in unit-width buckets: every percentile is
     exact, not just within the 1/32 relative error bound. *)
  let d = Stats.hdr () in
  for v = 0 to 31 do
    Stats.record d v
  done;
  check_int "count" 32 (Stats.hdr_count d);
  check_int "sum" (31 * 32 / 2) (Stats.hdr_sum d);
  check_bool "min" true (Stats.hdr_min d = Some 0);
  check_bool "max" true (Stats.hdr_max d = Some 31);
  (* rank ceil(50/100*32) = 16 -> 16th smallest = 15 *)
  check_int "p50 exact" 15 (Stats.percentile d 50.);
  check_int "p100 exact" 31 (Stats.percentile d 100.);
  check_int "p0 exact" 0 (Stats.percentile d 0.)

let test_hdr_singleton () =
  let d = Stats.hdr () in
  Stats.record d 123456;
  check_int "p50 clamps to the only sample" 123456 (Stats.percentile d 50.);
  check_int "p99 clamps to the only sample" 123456 (Stats.percentile d 99.)

let test_hdr_percentile_error_bound () =
  (* Log-linear buckets with 32 sub-buckets per octave: any percentile
     is within 1/32 (~3.2%) of the true order statistic. *)
  let d = Stats.hdr () in
  for v = 1 to 100_000 do
    Stats.record d v
  done;
  List.iter
    (fun p ->
      let truth = int_of_float (ceil (p /. 100. *. 100_000.)) in
      let got = Stats.percentile d p in
      let err =
        abs_float (float_of_int (got - truth)) /. float_of_int truth
      in
      check_bool
        (Printf.sprintf "p%.0f within 3.2%% (truth %d, got %d)" p truth got)
        true (err <= 0.032))
    [ 50.; 90.; 95.; 99. ];
  check_bool "max exact" true (Stats.hdr_max d = Some 100_000);
  check_int "p100 clamps to max" 100_000 (Stats.percentile d 100.)

let test_hdr_negative_clamped () =
  let d = Stats.hdr () in
  Stats.record d (-5);
  check_int "counted" 1 (Stats.hdr_count d);
  check_bool "clamped to 0" true (Stats.hdr_min d = Some 0);
  check_int "p50" 0 (Stats.percentile d 50.)

let test_hdr_independent () =
  (* Histograms are free-standing values: each [hdr ()] is a fresh,
     empty histogram that shares no state with any other. *)
  let a = Stats.hdr () and b = Stats.hdr () in
  Stats.record a 7;
  check_int "recorded" 1 (Stats.hdr_count a);
  check_int "other untouched" 0 (Stats.hdr_count b);
  check_bool "other min none" true (Stats.hdr_min b = None)

let test_hdr_record_no_alloc () =
  let d = Stats.hdr () in
  for i = 0 to 99 do
    Stats.record d (i * 37)
  done;
  let w0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    Stats.record d (i * 37)
  done;
  let per_call = (Gc.minor_words () -. w0) /. 10_000.0 in
  check_bool
    (Printf.sprintf "allocation-free record (%.2f words/call)" per_call)
    true (per_call < 0.01)

(* --- Timeseries ------------------------------------------------------- *)

module Timeseries = Lk_engine.Timeseries

let test_ts_invalid () =
  check_bool "zero capacity rejected" true
    (try
       ignore (Timeseries.create ~capacity:0 ~channels:[ "x" ] ());
       false
     with Invalid_argument _ -> true);
  check_bool "no channels rejected" true
    (try
       ignore (Timeseries.create ~channels:[] ());
       false
     with Invalid_argument _ -> true)

let test_ts_basic () =
  let ts = Timeseries.create ~capacity:8 ~channels:[ "a"; "b" ] () in
  Alcotest.(check (list string)) "channels" [ "a"; "b" ]
    (Timeseries.channels ts);
  check_int "width" 2 (Timeseries.width ts);
  check_int "capacity" 8 (Timeseries.capacity ts);
  Timeseries.set ts 0 10;
  Timeseries.set ts 1 20;
  Timeseries.commit ts ~time:5;
  Timeseries.set ts 1 21;
  Timeseries.commit ts ~time:9;
  check_int "recorded" 2 (Timeseries.recorded ts);
  check_int "length" 2 (Timeseries.length ts);
  check_int "t0" 5 (Timeseries.time ts ~sample:0);
  check_int "t1" 9 (Timeseries.time ts ~sample:1);
  check_int "s0 a" 10 (Timeseries.get ts ~sample:0 ~channel:0);
  check_int "s1 b" 21 (Timeseries.get ts ~sample:1 ~channel:1);
  (* Scratch persists across commits: channel a was not re-set. *)
  check_int "s1 a sticky" 10 (Timeseries.get ts ~sample:1 ~channel:0)

let test_ts_wraparound () =
  let ts = Timeseries.create ~capacity:4 ~channels:[ "v" ] () in
  for i = 0 to 9 do
    Timeseries.set ts 0 (100 + i);
    Timeseries.commit ts ~time:(10 * i)
  done;
  check_int "recorded" 10 (Timeseries.recorded ts);
  check_int "length" 4 (Timeseries.length ts);
  check_int "dropped" 6 (Timeseries.dropped ts);
  check_int "oldest retained time" 60 (Timeseries.time ts ~sample:0);
  check_int "newest value" 109 (Timeseries.get ts ~sample:3 ~channel:0);
  let seen = ref [] in
  Timeseries.iter ts (fun ~time ~row ->
      seen := (time, row.(0)) :: !seen);
  Alcotest.(check (list (pair int int)))
    "iter yields the trailing window, oldest first"
    [ (60, 106); (70, 107); (80, 108); (90, 109) ]
    (List.rev !seen)

let test_ts_clear () =
  let ts = Timeseries.create ~capacity:4 ~channels:[ "v" ] () in
  for i = 0 to 6 do
    Timeseries.set ts 0 i;
    Timeseries.commit ts ~time:i
  done;
  Timeseries.clear ts;
  check_int "length" 0 (Timeseries.length ts);
  check_int "recorded" 0 (Timeseries.recorded ts);
  check_int "dropped" 0 (Timeseries.dropped ts);
  Timeseries.set ts 0 42;
  Timeseries.commit ts ~time:3;
  check_int "usable after clear" 42 (Timeseries.get ts ~sample:0 ~channel:0)

let test_ts_dump () =
  let ts = Timeseries.create ~capacity:2 ~channels:[ "a"; "b" ] () in
  for i = 0 to 2 do
    Timeseries.set ts 0 i;
    Timeseries.set ts 1 (10 * i);
    Timeseries.commit ts ~time:i
  done;
  let dump = Format.asprintf "%a" Timeseries.dump ts in
  let contains sub =
    let rec find i =
      i + String.length sub <= String.length dump
      && (String.sub dump i (String.length sub) = sub || find (i + 1))
    in
    find 0
  in
  check_bool "header" true (contains "a");
  check_bool "drop note" true (contains "1");
  check_bool "last row present" true (contains "20")

let test_ts_commit_no_alloc () =
  (* set is one array store, commit one blit into the preallocated
     ring: steady state must not allocate. *)
  let ts = Timeseries.create ~capacity:1024 ~channels:[ "a"; "b"; "c" ] () in
  for i = 0 to 99 do
    Timeseries.set ts 0 i;
    Timeseries.set ts 2 (2 * i);
    Timeseries.commit ts ~time:i
  done;
  let w0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    Timeseries.set ts 0 i;
    Timeseries.set ts 2 (2 * i);
    Timeseries.commit ts ~time:(100 + i)
  done;
  let per_call = (Gc.minor_words () -. w0) /. 10_000.0 in
  check_bool
    (Printf.sprintf "allocation-free sampling (%.2f words/commit)" per_call)
    true (per_call < 0.01)

let () =
  Alcotest.run "engine"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects bad bound" `Quick
            test_rng_int_rejects_nonpositive;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "chance frequency" `Quick
            test_rng_chance_rough_frequency;
          Alcotest.test_case "geometric" `Quick test_rng_geometric;
          Alcotest.test_case "zipf bounds" `Quick test_rng_zipf_bounds;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
          Alcotest.test_case "zipf uniform s=0" `Quick
            test_rng_zipf_uniform_when_s0;
          Alcotest.test_case "zipf n=1" `Quick test_rng_zipf_n1;
          Alcotest.test_case "shuffle permutation" `Quick
            test_rng_shuffle_permutation;
        ] );
      ( "event-queue",
        [
          Alcotest.test_case "empty" `Quick test_eq_empty;
          Alcotest.test_case "time order" `Quick test_eq_order;
          Alcotest.test_case "fifo on ties" `Quick test_eq_fifo_ties;
          Alcotest.test_case "interleaved add/pop" `Quick test_eq_interleaved;
          QCheck_alcotest.to_alcotest prop_eq_sorted;
          QCheck_alcotest.to_alcotest prop_eq_stable;
          Alcotest.test_case "wheel vs heap differential" `Quick
            test_eq_backend_differential;
          Alcotest.test_case "pop releases payloads (wheel)" `Quick
            (test_eq_pop_releases_payloads Event_queue.Wheel);
          Alcotest.test_case "pop releases payloads (heap)" `Quick
            (test_eq_pop_releases_payloads Event_queue.Heap);
        ] );
      ( "int-table",
        [
          Alcotest.test_case "basic operations" `Quick test_int_table_basic;
          Alcotest.test_case "negative key rejected" `Quick
            test_int_table_rejects_negative;
          QCheck_alcotest.to_alcotest prop_int_table_matches_hashtbl;
          Alcotest.test_case "iter visits live keys" `Quick
            test_int_table_iter_visits_all;
        ] );
      ( "sim",
        [
          Alcotest.test_case "runs in order" `Quick test_sim_runs_in_order;
          Alcotest.test_case "nested schedule" `Quick test_sim_nested_schedule;
          Alcotest.test_case "zero delay" `Quick test_sim_zero_delay_same_cycle;
          Alcotest.test_case "negative delay rejected" `Quick
            test_sim_negative_delay_rejected;
          Alcotest.test_case "schedule_at past rejected" `Quick
            test_sim_schedule_at_past_rejected;
          Alcotest.test_case "limit discards" `Quick test_sim_limit_discards;
          Alcotest.test_case "quiescent hook" `Quick
            test_sim_quiescent_hook_injects;
          Alcotest.test_case "hook livelock detected" `Quick
            test_sim_stalled_hook_loop;
          Alcotest.test_case "hook with progress ok" `Quick
            test_sim_hook_loop_with_progress_ok;
          Alcotest.test_case "single step" `Quick test_sim_step;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "codes roundtrip" `Quick
            test_ledger_codes_roundtrip;
          Alcotest.test_case "ordering" `Quick test_ledger_ordering;
          Alcotest.test_case "wraparound" `Quick test_ledger_wraparound;
          Alcotest.test_case "clear" `Quick test_ledger_clear;
          Alcotest.test_case "emit no alloc" `Quick test_ledger_emit_no_alloc;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counter" `Quick test_stats_counter;
          Alcotest.test_case "reset" `Quick test_stats_reset;
          Alcotest.test_case "counters sorted" `Quick
            test_stats_counters_sorted;
        ] );
      ( "hdr",
        [
          Alcotest.test_case "empty" `Quick test_hdr_empty;
          Alcotest.test_case "exact below 32" `Quick test_hdr_exact_below_32;
          Alcotest.test_case "singleton" `Quick test_hdr_singleton;
          Alcotest.test_case "percentile error bound" `Quick
            test_hdr_percentile_error_bound;
          Alcotest.test_case "negative clamped" `Quick
            test_hdr_negative_clamped;
          Alcotest.test_case "instances independent" `Quick
            test_hdr_independent;
          Alcotest.test_case "record no alloc" `Quick test_hdr_record_no_alloc;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "invalid args rejected" `Quick test_ts_invalid;
          Alcotest.test_case "basic set/commit/get" `Quick test_ts_basic;
          Alcotest.test_case "wraparound" `Quick test_ts_wraparound;
          Alcotest.test_case "clear" `Quick test_ts_clear;
          Alcotest.test_case "dump" `Quick test_ts_dump;
          Alcotest.test_case "commit no alloc" `Quick test_ts_commit_no_alloc;
        ] );
    ]
