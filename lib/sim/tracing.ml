module Ledger = Lk_engine.Ledger
module Reason = Lk_htm.Reason

type breakdown = {
  aborts : int;
  by_reason : (Reason.t * int) list;
  nacks : int;
  kills : int;
  rejects : int;
  parks : int;
  wakes : int;
  sw_commits : int;
  sw_aborts : int;
  clock_advances : int;
  dropped : int;
}

let reason_of_index =
  let arr = Array.of_list Reason.all in
  fun i -> if i >= 0 && i < Array.length arr then Some arr.(i) else None

let abort_breakdown l =
  let by = Array.make Reason.count 0 in
  let aborts = ref 0
  and nacks = ref 0
  and kills = ref 0
  and rejects = ref 0
  and parks = ref 0
  and wakes = ref 0
  and sw_commits = ref 0
  and sw_aborts = ref 0
  and clock_advances = ref 0 in
  Ledger.iter l (fun ~time:_ ~core:_ ~kind ~arg ->
      match kind with
      | Ledger.Tx_abort | Ledger.Sw_abort -> (
        (* Software aborts carry a reason index too (typically
           Validation or a lock conflict), so they fold into the same
           per-cause table as hardware aborts. The reason shares the
           packed arg with the aggressor and the victim's age. *)
        incr aborts;
        if kind = Ledger.Sw_abort then incr sw_aborts;
        match reason_of_index (Ledger.abort_reason arg) with
        | Some r -> by.(Reason.index r) <- by.(Reason.index r) + 1
        | None -> ())
      | Ledger.Nack -> incr nacks
      | Ledger.Abort_kill -> incr kills
      | Ledger.Reject -> incr rejects
      | Ledger.Park -> incr parks
      | Ledger.Wake -> incr wakes
      | Ledger.Sw_commit -> incr sw_commits
      | Ledger.Clock_advance -> incr clock_advances
      | _ -> ());
  {
    aborts = !aborts;
    by_reason = List.map (fun r -> (r, by.(Reason.index r))) Reason.all;
    nacks = !nacks;
    kills = !kills;
    rejects = !rejects;
    parks = !parks;
    wakes = !wakes;
    sw_commits = !sw_commits;
    sw_aborts = !sw_aborts;
    clock_advances = !clock_advances;
    dropped = Ledger.dropped l;
  }

let breakdown_table ?(title = "Abort breakdown") b =
  let share n =
    if b.aborts = 0 then "-"
    else Report.pct (float_of_int n /. float_of_int b.aborts)
  in
  let rows =
    List.map
      (fun (r, n) -> [ Reason.label r; string_of_int n; share n ])
      b.by_reason
    @ [ [ "total"; string_of_int b.aborts; share b.aborts ] ]
  in
  let notes =
    [
      Printf.sprintf
        "conflict traffic: %d nacks, %d kills, %d rejects, %d parks, %d wakes"
        b.nacks b.kills b.rejects b.parks b.wakes;
    ]
    @ (if b.sw_commits = 0 && b.sw_aborts = 0 && b.clock_advances = 0 then []
       else
         [
           Printf.sprintf
             "software path: %d commits, %d aborts, %d clock advances"
             b.sw_commits b.sw_aborts b.clock_advances;
         ])
    @
    if b.dropped = 0 then []
    else
      [
        Printf.sprintf
          "WARNING: %d ledger records dropped; counts are lower bounds"
          b.dropped;
      ]
  in
  Report.table ~notes ~title ~headers:[ "reason"; "aborts"; "share" ] rows

let json_of_breakdown b =
  Json.Obj
    [
      ("aborts", Json.Int b.aborts);
      ( "by_reason",
        Json.Obj
          (List.map (fun (r, n) -> (Reason.label r, Json.Int n)) b.by_reason)
      );
      ("nacks", Json.Int b.nacks);
      ("kills", Json.Int b.kills);
      ("rejects", Json.Int b.rejects);
      ("parks", Json.Int b.parks);
      ("wakes", Json.Int b.wakes);
      ("sw_commits", Json.Int b.sw_commits);
      ("sw_aborts", Json.Int b.sw_aborts);
      ("clock_advances", Json.Int b.clock_advances);
      ("dropped", Json.Int b.dropped);
    ]

(* --- Lifecycle listing ---------------------------------------------------- *)

let reason_label code =
  match reason_of_index code with Some r -> Reason.label r | None -> "?"

let by_label who = if who < 0 then "llc" else string_of_int who

let lifecycle_label kind ~arg =
  match (kind : Ledger.kind) with
  | Tx_begin -> "xbegin"
  | Tx_commit -> "commit"
  | Tx_abort -> "abort:" ^ reason_label (Ledger.abort_reason arg)
  | Nack -> Printf.sprintf "nack(by %s)" (by_label (Ledger.attr_who arg))
  | Reject -> Printf.sprintf "rejected(by %s)" (by_label (Ledger.attr_who arg))
  | Abort_kill -> Printf.sprintf "killed(by %d)" (Ledger.attr_who arg)
  | Park -> "parked"
  | Wake -> "woken"
  | Lock_acquire -> "lock-acquired"
  | Lock_release -> "lock-released"
  | Hl_begin -> "hlbegin"
  | Hl_end -> if arg = 1 then "hlend(stl)" else "hlend(tl)"
  | Switch_granted -> "switch-granted"
  | Switch_denied -> "switch-denied"
  | Spill -> Printf.sprintf "spill(line %d)" arg
  | Spec_publish -> Printf.sprintf "publish(%d writes)" arg
  | Spec_discard ->
    Printf.sprintf "discard(%d writes)" (Ledger.discard_writes arg)
  | Sw_begin -> Printf.sprintf "swbegin(rv %d)" arg
  | Sw_commit -> Printf.sprintf "swcommit(wt %d)" arg
  | Sw_abort -> "swabort:" ^ reason_label (Ledger.abort_reason arg)
  | Clock_advance -> Printf.sprintf "clock(%d)" arg

let pp_lifecycle ?limit ppf l =
  let skip =
    match limit with None -> 0 | Some n -> Int.max 0 (Ledger.length l - n)
  in
  if Ledger.dropped l > 0 then
    Format.fprintf ppf "... %d earlier events dropped ...@." (Ledger.dropped l);
  let i = ref 0 in
  Ledger.iter l (fun ~time ~core ~kind ~arg ->
      if !i >= skip then
        Format.fprintf ppf "%10d  core %2d  %s@." time core
          (lifecycle_label kind ~arg);
      incr i)

(* --- Perfetto export --------------------------------------------------- *)

let slice ~name ~ts ~dur ~tid ~args =
  Json.Obj
    ([
       ("name", Json.String name);
       ("ph", Json.String "X");
       ("ts", Json.Int ts);
       ("dur", Json.Int dur);
       ("pid", Json.Int 0);
       ("tid", Json.Int tid);
     ]
    @ match args with [] -> [] | a -> [ ("args", Json.Obj a) ])

let instant ~name ~ts ~tid ~args =
  Json.Obj
    ([
       ("name", Json.String name);
       ("ph", Json.String "i");
       ("s", Json.String "t");
       ("ts", Json.Int ts);
       ("pid", Json.Int 0);
       ("tid", Json.Int tid);
     ]
    @ match args with [] -> [] | a -> [ ("args", Json.Obj a) ])

(* Flow events: a "s"/"f" pair with one id draws an arrow from the
   aggressor's track to the victim's abort at the kill instant —
   Perfetto renders the who-killed-whom graph directly on the
   timeline. [bp:"e"] binds the finish to the enclosing slice. *)
let flow ~phase ~id ~ts ~tid =
  Json.Obj
    ([
       ("name", Json.String "kill");
       ("cat", Json.String "abort");
       ("ph", Json.String phase);
       ("id", Json.Int id);
       ("ts", Json.Int ts);
       ("pid", Json.Int 0);
       ("tid", Json.Int tid);
     ]
    @ if phase = "f" then [ ("bp", Json.String "e") ] else [])

let metadata ~name ~tid value =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "M");
      ("pid", Json.Int 0);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String value) ]);
    ]

let perfetto_json ?telemetry l =
  let entries = Ledger.entries l in
  let cores =
    List.fold_left (fun m e -> max m (e.Ledger.core + 1)) 0 entries
  in
  let last_time = List.fold_left (fun m e -> max m e.Ledger.time) 0 entries in
  (* Per-core open spans: start time of the pending transaction (with
     its attempt number), HTMLock section and lock hold. *)
  let tx_open = Array.make (max cores 1) None in
  let hl_open = Array.make (max cores 1) None in
  let lock_open = Array.make (max cores 1) None in
  let sw_open = Array.make (max cores 1) None in
  let events = ref [] in
  let push e = events := e :: !events in
  (* One fresh id per attributed abort edge, sequential in ledger
     order — deterministic across backends. *)
  let flow_seq = ref 0 in
  let push_kill_flow ~time ~aggressor ~victim =
    if aggressor >= 0 && aggressor <> victim then begin
      incr flow_seq;
      push (flow ~phase:"s" ~id:!flow_seq ~ts:time ~tid:aggressor);
      push (flow ~phase:"f" ~id:!flow_seq ~ts:time ~tid:victim)
    end
  in
  List.iter
    (fun { Ledger.time; core; kind; arg } ->
      match kind with
      | Ledger.Tx_begin -> tx_open.(core) <- Some (time, arg)
      | Ledger.Tx_commit -> (
        match tx_open.(core) with
        | Some (t0, attempt) ->
          tx_open.(core) <- None;
          push
            (slice ~name:"tx" ~ts:t0 ~dur:(time - t0) ~tid:core
               ~args:[ ("attempt", Json.Int attempt);
                       ("attempts", Json.Int arg) ])
        | None -> push (instant ~name:"commit" ~ts:time ~tid:core ~args:[]))
      | Ledger.Tx_abort ->
        let label =
          match reason_of_index (Ledger.abort_reason arg) with
          | Some r -> Reason.label r
          | None -> "?"
        in
        let who = Ledger.abort_who arg in
        let args =
          [
            ("reason", Json.String label);
            ("by", Json.Int who);
            ("age", Json.Int (Ledger.abort_age arg));
          ]
        in
        (match tx_open.(core) with
        | Some (t0, attempt) ->
          tx_open.(core) <- None;
          push
            (slice ~name:("abort:" ^ label) ~ts:t0 ~dur:(time - t0) ~tid:core
               ~args:(("attempt", Json.Int attempt) :: args))
        | None ->
          push (instant ~name:("abort:" ^ label) ~ts:time ~tid:core ~args));
        push_kill_flow ~time ~aggressor:who ~victim:core
      | Ledger.Hl_begin -> hl_open.(core) <- Some time
      | Ledger.Hl_end -> (
        let name = if arg = 1 then "STL" else "TL" in
        match hl_open.(core) with
        | Some t0 ->
          hl_open.(core) <- None;
          push (slice ~name ~ts:t0 ~dur:(time - t0) ~tid:core ~args:[])
        | None -> push (instant ~name:"hlend" ~ts:time ~tid:core ~args:[]))
      | Ledger.Lock_acquire -> lock_open.(core) <- Some time
      | Ledger.Lock_release -> (
        match lock_open.(core) with
        | Some t0 ->
          lock_open.(core) <- None;
          push (slice ~name:"lock" ~ts:t0 ~dur:(time - t0) ~tid:core ~args:[])
        | None ->
          push (instant ~name:"lock-release" ~ts:time ~tid:core ~args:[]))
      | Ledger.Nack ->
        push
          (instant ~name:"nack" ~ts:time ~tid:core
             ~args:
               [
                 ("by", Json.Int (Ledger.attr_who arg));
                 ("age", Json.Int (Ledger.attr_age arg));
               ])
      | Ledger.Reject ->
        push
          (instant ~name:"reject" ~ts:time ~tid:core
             ~args:
               [
                 ("by", Json.Int (Ledger.attr_who arg));
                 ("age", Json.Int (Ledger.attr_age arg));
               ])
      | Ledger.Abort_kill ->
        push
          (instant ~name:"kill" ~ts:time ~tid:core
             ~args:
               [
                 ("by", Json.Int (Ledger.attr_who arg));
                 ("age", Json.Int (Ledger.attr_age arg));
               ])
      | Ledger.Park | Ledger.Wake | Ledger.Switch_granted
      | Ledger.Switch_denied ->
        push (instant ~name:(Ledger.kind_label kind) ~ts:time ~tid:core ~args:[])
      | Ledger.Spill ->
        push
          (instant ~name:"spill" ~ts:time ~tid:core
             ~args:[ ("line", Json.Int arg) ])
      | Ledger.Spec_publish ->
        push
          (instant ~name:(Ledger.kind_label kind) ~ts:time ~tid:core
             ~args:[ ("writes", Json.Int arg) ])
      | Ledger.Spec_discard ->
        push
          (instant ~name:(Ledger.kind_label kind) ~ts:time ~tid:core
             ~args:
               [
                 ("writes", Json.Int (Ledger.discard_writes arg));
                 ("age", Json.Int (Ledger.discard_age arg));
               ])
      | Ledger.Sw_begin -> sw_open.(core) <- Some (time, arg)
      | Ledger.Sw_commit -> (
        match sw_open.(core) with
        | Some (t0, rv) ->
          sw_open.(core) <- None;
          push
            (slice ~name:"sw" ~ts:t0 ~dur:(time - t0) ~tid:core
               ~args:[ ("rv", Json.Int rv); ("wt", Json.Int arg) ])
        | None -> push (instant ~name:"sw-commit" ~ts:time ~tid:core ~args:[]))
      | Ledger.Sw_abort ->
        let label =
          match reason_of_index (Ledger.abort_reason arg) with
          | Some r -> Reason.label r
          | None -> "?"
        in
        let who = Ledger.abort_who arg in
        let args =
          [
            ("reason", Json.String label);
            ("by", Json.Int who);
            ("age", Json.Int (Ledger.abort_age arg));
          ]
        in
        (match sw_open.(core) with
        | Some (t0, rv) ->
          sw_open.(core) <- None;
          push
            (slice
               ~name:("sw-abort:" ^ label)
               ~ts:t0 ~dur:(time - t0) ~tid:core
               ~args:(("rv", Json.Int rv) :: args))
        | None ->
          push (instant ~name:("sw-abort:" ^ label) ~ts:time ~tid:core ~args));
        push_kill_flow ~time ~aggressor:who ~victim:core
      | Ledger.Clock_advance ->
        push
          (instant ~name:"clock" ~ts:time ~tid:core
             ~args:[ ("value", Json.Int arg) ]))
    entries;
  (* Anything still open when the ledger ends (e.g. a thread parked at
     simulation exit) is closed at the last recorded timestamp. *)
  Array.iteri
    (fun core -> function
      | Some (t0, attempt) ->
        push
          (slice ~name:"tx (open)" ~ts:t0 ~dur:(last_time - t0) ~tid:core
             ~args:[ ("attempt", Json.Int attempt) ])
      | None -> ())
    tx_open;
  Array.iteri
    (fun core -> function
      | Some t0 ->
        push
          (slice ~name:"hl (open)" ~ts:t0 ~dur:(last_time - t0) ~tid:core
             ~args:[])
      | None -> ())
    hl_open;
  Array.iteri
    (fun core -> function
      | Some t0 ->
        push
          (slice ~name:"lock (open)" ~ts:t0 ~dur:(last_time - t0) ~tid:core
             ~args:[])
      | None -> ())
    lock_open;
  Array.iteri
    (fun core -> function
      | Some (t0, rv) ->
        push
          (slice ~name:"sw (open)" ~ts:t0 ~dur:(last_time - t0) ~tid:core
             ~args:[ ("rv", Json.Int rv) ])
      | None -> ())
    sw_open;
  let meta =
    metadata ~name:"process_name" ~tid:0 "lockiller_sim"
    :: List.init cores (fun c ->
           metadata ~name:"thread_name" ~tid:c (Printf.sprintf "core %d" c))
  in
  let counters =
    match telemetry with
    | None -> []
    | Some tele -> Telemetry.perfetto_counters tele
  in
  Json.Obj [ ("traceEvents", Json.List (meta @ List.rev !events @ counters)) ]

let with_out_file file f =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let write_perfetto ?telemetry ~file l =
  with_out_file file (fun oc ->
      output_string oc (Json.to_string_pretty (perfetto_json ?telemetry l));
      output_char oc '\n')

let write_dump ~file l =
  with_out_file file (fun oc ->
      let ppf = Format.formatter_of_out_channel oc in
      Ledger.dump ppf l;
      Format.pp_print_flush ppf ())
