(* busy_flex: the Theorem 5 path for flexible jobs -- greedy placement,
   then GreedyTracking, then the packing check -- on seeded
   Generate.flexible_jobs and diurnal_flexible_jobs sets (g=4, n spread
   over 100-400), with a quarter of the ops on the preemptive model
   (Theorem 7) instead. No LP runs here. An op is instance text in,
   checked result document out, as [atbt busy] runs it. *)

module B = Workload.Bjob
module Io = Workload.Io
module J = Obs.Json
module Q = Rational
module CR = Core.Result
module CI = Core.Instance

let g = 4
let count = 400
let n_min = 100
let n_max = 400

(* Every fourth op is preemptive; the rest alternate the two flexible
   generators. *)
type kind = Placed | Preemptive

let kind_of idx = if idx mod 4 = 3 then Preemptive else Placed

let generate ~seed =
  let st = Random.State.make [| seed; 2 |] in
  let sets =
    List.init count (fun i ->
        let n = n_min + ((n_max - n_min) * i / (count - 1)) and s = Random.State.bits st in
        if i mod 2 = 0 then Workload.Generate.flexible_jobs ~n ~horizon:(n / 2) ~seed:s ()
        else Workload.Generate.diurnal_flexible_jobs ~n ~horizon:(n / 2) ~seed:s ())
  in
  Serial.shuffle st (Array.of_list sets)

let generator =
  Printf.sprintf
    "%d sets alternating Generate.flexible_jobs / diurnal_flexible_jobs (g=%d, horizon n/2, n spread \
     over %d-%d), shuffled; every 4th op preemptive, the rest greedy placement + greedy-tracking"
    count g n_min n_max

type answer = { cost : Q.t; bundles : B.t list list }

let parse text =
  match Io.parse_string text with
  | Io.Busy_instance jobs -> jobs
  | Io.Slotted_instance _ -> failwith "expected a busy-time instance"

let document kind jobs a =
  let q v = J.String (Q.to_string v) in
  J.to_string
    (J.Obj
       ([ ("status", J.String "ok");
          ("algorithm", J.String (match kind with Placed -> "greedy-tracking" | Preemptive -> "preemptive"));
          ("jobs", J.Int (List.length jobs));
          ("g", J.Int g);
          ("cost", q a.cost);
          ("machines", J.Int (List.length a.bundles)) ]
       @
       match kind with
       | Preemptive -> []
       | Placed ->
           [ ( "bundles",
               J.List
                 (List.map
                    (fun bundle ->
                      J.List (List.map (fun (j : B.t) -> J.List [ J.Int j.B.id; q j.B.release ]) bundle))
                    a.bundles) ) ]))

let checked pinned packing =
  match Busy.Bundle.check ~g pinned packing with
  | None -> ()
  | Some problem -> failwith ("invalid packing: " ^ problem)

let packing_of (r : CR.t) =
  match (r.CR.status, r.CR.witness) with
  | CR.Solved, Some (CR.Packing p) -> p
  | _ -> failwith "greedy-tracking returned no packing"

let preemptive_cost (r : CR.t) =
  match r.CR.objective with Some (CR.Busy c) -> c | _ -> failwith "preemptive returned no objective"

let solver kind name = Core.Registry.find_exn kind name

let run kind text =
  let jobs = parse text in
  let a =
    match kind with
    | Placed ->
        let pinned = Busy.Pipeline.place Busy.Pipeline.Greedy_placement jobs in
        let packing =
          packing_of ((solver CI.Busy_interval "greedy-tracking").Core.Solver.solve (CI.Interval { g; jobs = pinned }))
        in
        checked pinned packing;
        { cost = Busy.Bundle.total_busy packing; bundles = packing }
    | Preemptive ->
        let r = (solver CI.Busy_preemptive "preemptive").Core.Solver.solve (CI.Preemptive { g; jobs }) in
        { cost = preemptive_cost r; bundles = [] }
  in
  (a, document kind jobs a)

let traced kind text =
  let jobs = Trace.span ~layer:"workload" "workload.parse" (fun () -> parse text) in
  let a =
    match kind with
    | Placed ->
        let pinned =
          Trace.span ~layer:"busy" "busy.place" (fun () ->
              Busy.Pipeline.place Busy.Pipeline.Greedy_placement jobs)
        in
        let obs = Trace.obs () in
        let packing =
          Trace.span ~layer:"busy" "busy.interval_solve" (fun () ->
              packing_of
                ((solver CI.Busy_interval "greedy-tracking").Core.Solver.solve ~obs
                   (CI.Interval { g; jobs = pinned })))
        in
        Trace.span ~layer:"busy" "busy.check" (fun () -> checked pinned packing);
        { cost = Busy.Bundle.total_busy packing; bundles = packing }
    | Preemptive ->
        let obs = Trace.obs () in
        let r =
          Trace.span ~layer:"busy" "busy.preemptive" (fun () ->
              (solver CI.Busy_preemptive "preemptive").Core.Solver.solve ~obs (CI.Preemptive { g; jobs }))
        in
        { cost = preemptive_cost r; bundles = [] }
  in
  (a, Trace.span ~layer:"obs" "obs.encode" (fun () -> document kind jobs a))

let layer () =
  let ms name = fst (Trace.per_call name) in
  let _, place_alloc = Trace.per_call "busy.place" in
  [ ("workload.parse_ms", ms "workload.parse");
    ("obs.encode_ms", ms "obs.encode");
    ("busy.place_ms", ms "busy.place");
    ("busy.place_alloc_mb", Meas.mb place_alloc);
    ("busy.interval_solve_ms", ms "busy.interval_solve");
    ("busy.preemptive_ms", ms "busy.preemptive");
    ("busy.check_ms", ms "busy.check") ]

let run_workload ~seed ~seconds ~trace =
  let (sets, pool), setup_s =
    Serial.repeat_setup (fun () ->
        let sets = generate ~seed in
        let pool = Array.map (fun jobs -> Io.to_string (Io.Busy_instance jobs)) sets in
        (* the warm-up op is the same on every seed *)
        ignore (run Placed (Io.to_string (Io.Busy_instance (Workload.Generate.flexible_jobs ~n:n_min ~horizon:(n_min / 2) ~seed:0 ()))));
        (sets, pool))
  in
  let w =
    {
      Serial.pool;
      run = (fun idx -> run (kind_of idx));
      traced = (fun idx -> traced (kind_of idx));
      check =
        (fun idx a ->
          match kind_of idx with
          | Placed -> Check.busy ~g sets.(idx) ~bundles:a.bundles ~cost:a.cost
          | Preemptive -> Check.preemptive ~g sets.(idx) ~cost:a.cost);
      quality =
        (fun idx a ->
          {
            Serial.no_quality with
            cost = Q.to_float a.cost;
            bound = Q.to_float (Check.mass ~g sets.(idx));
            answers = 1;
            jobs = List.length sets.(idx);
          });
    }
  in
  let o = Serial.measure w ~seconds:(if trace then seconds /. 3.0 else seconds) ~full_pass:(not trace) ~trace in
  Serial.result o ~setup_s ~trace ~layer
