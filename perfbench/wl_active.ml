(* active_lp: LP rounding for active time (Theorem 2) on seeded
   Generate.slotted instances (g=3, horizon 2n, n spread over 40-160)
   plus a quarter of single-window Gadgets.lp1_tall instances (g=4,
   24-32 jobs of length 3). An op is instance text in, checked result
   document out, through the registry's [rounding] solver as
   [atbt active] runs it. *)

module S = Workload.Slotted
module Io = Workload.Io
module J = Obs.Json
module CR = Core.Result

let random_count = 100
let n_min = 40
let n_max = 160
let tall_count = 34
let tall_g = 4
let tall_jobs_min = 24
let tall_jobs_max = 32
let tall_length = 3

let params n : Workload.Generate.slotted_params =
  { n; horizon = 2 * n; max_length = 4; slack = 4; g = 3 }

(* [count] values spread evenly over [lo, hi]. *)
let spread ~count lo hi i = lo + ((hi - lo) * i / (count - 1))

let generate ~seed =
  let st = Random.State.make [| seed; 1 |] in
  let random =
    List.init random_count (fun i ->
        let n = spread ~count:random_count n_min n_max i in
        Workload.Generate.slotted ~params:(params n) ~seed:(Random.State.bits st) ())
  in
  let tall =
    List.init tall_count (fun i ->
        Workload.Gadgets.lp1_tall ~g:tall_g
          ~jobs:(spread ~count:tall_count tall_jobs_min tall_jobs_max i)
          ~length:tall_length)
  in
  Serial.shuffle st (Array.of_list (random @ tall))

let generator =
  let p = params n_min in
  Printf.sprintf
    "%d Generate.slotted (g=%d, horizon 2n, max_length %d, slack %d, n spread over %d-%d) + %d \
     Gadgets.lp1_tall (g=%d, %d-%d jobs, length %d), shuffled; registry rounding"
    random_count p.g p.max_length p.slack n_min n_max tall_count tall_g tall_jobs_min tall_jobs_max
    tall_length

type answer = { cost : int option; open_slots : int list; schedule : S.schedule }

let parse text =
  match Io.parse_string text with
  | Io.Slotted_instance inst -> inst
  | Io.Busy_instance _ -> failwith "expected a slotted instance"

let document (inst : S.t) a =
  J.to_string
    (J.Obj
       [ ("status", J.String (if a.cost = None then "infeasible" else "ok"));
         ("algorithm", J.String "rounding");
         ("jobs", J.Int (S.num_jobs inst));
         ("g", J.Int inst.S.g);
         ("cost", match a.cost with Some c -> J.Int c | None -> J.Null);
         ("bounds", J.Obj [ ("mass", J.Int (S.mass_lower_bound inst)) ]);
         ("open_slots", J.List (List.map (fun t -> J.Int t) a.open_slots));
         ( "schedule",
           J.List
             (List.map
                (fun (id, slots) -> J.List (J.Int id :: List.map (fun t -> J.Int t) slots))
                a.schedule) ) ])

let verified inst open_slots schedule =
  match Active.Solution.verify inst { Active.Solution.open_slots; schedule } with
  | None -> ()
  | Some problem -> failwith ("invalid solution: " ^ problem)

let run text =
  let inst = parse text in
  let solver = Core.Registry.find_exn Core.Instance.Active_slotted "rounding" in
  let r = solver.Core.Solver.solve (Core.Instance.Slotted inst) in
  let a =
    match (r.CR.status, r.CR.objective, r.CR.witness) with
    | CR.Solved, Some (CR.Slots c), Some (CR.Opened { open_slots; schedule }) ->
        verified inst open_slots schedule;
        { cost = Some c; open_slots; schedule }
    | CR.Infeasible, _, _ -> { cost = None; open_slots = []; schedule = [] }
    | _ -> failwith "rounding returned no schedule"
  in
  (a, document inst a)

(* The same op, one public call per stage. LP1 is built and solved on
   its own first: the registry call hides that Lp.solve, and the
   difference is rounding's self time. *)
let traced text =
  let inst = Trace.span ~layer:"workload" "workload.parse" (fun () -> parse text) in
  let model, _ = Trace.span ~layer:"active" "active.build_lp1" (fun () -> Active.Ilp.build_lp1 inst) in
  let lobs = Obs.create () in
  ignore (Trace.span ~layer:"lp" "lp.solve" (fun () -> Lp.solve ~obs:lobs model));
  Trace.add_counters lobs [ "lp.pivots"; "lp.exact_cells"; "lp.priced_columns"; "lp.refactorizations" ];
  let robs = Trace.obs () in
  let r = Trace.span ~layer:"active" "active.rounding" (fun () -> Active.Rounding.solve ~obs:robs inst) in
  Trace.add_counters robs [ "flow.augmentations"; "active.oracle.checks" ];
  let a =
    match r with
    | Some (sol, _) ->
        let open_slots = sol.Active.Solution.open_slots and schedule = sol.Active.Solution.schedule in
        Trace.span ~layer:"active" "active.verify" (fun () -> verified inst open_slots schedule);
        { cost = Some (Active.Solution.cost sol); open_slots; schedule }
    | None -> { cost = None; open_slots = []; schedule = [] }
  in
  (a, Trace.span ~layer:"obs" "obs.encode" (fun () -> document inst a))

let layer ~ops () =
  let per_op name = Trace.counted name /. float_of_int (max 1 ops) in
  let parse, _ = Trace.per_call "workload.parse" and encode, _ = Trace.per_call "obs.encode" in
  let build, _ = Trace.per_call "active.build_lp1" and lp, lp_alloc = Trace.per_call "lp.solve" in
  let rounding, _ = Trace.per_call "active.rounding" and verify, _ = Trace.per_call "active.verify" in
  let lp_total, _, _ = Trace.total "lp.solve" in
  [ ("workload.parse_ms", parse);
    ("obs.encode_ms", encode);
    ("active.build_lp1_ms", build);
    ("lp.solve_ms", lp);
    ("lp.alloc_mb", Meas.mb lp_alloc);
    ( "lp.us_per_pivot",
      if Trace.counted "lp.pivots" > 0.0 then lp_total *. 1000.0 /. Trace.counted "lp.pivots" else 0.0 );
    ("lp.pivots", per_op "lp.pivots");
    ("lp.exact_cells", per_op "lp.exact_cells");
    ("lp.priced_columns", per_op "lp.priced_columns");
    ("lp.refactorizations", per_op "lp.refactorizations");
    ("active.rounding_self_ms", rounding -. build -. lp);
    ("active.verify_ms", verify);
    ("active.oracle.checks", per_op "active.oracle.checks");
    ("flow.augmentations", per_op "flow.augmentations") ]

let run_workload ~seed ~seconds ~trace =
  let (insts, pool), setup_s =
    Serial.repeat_setup (fun () ->
        let insts = generate ~seed in
        let pool = Array.map (fun i -> Io.to_string (Io.Slotted_instance i)) insts in
        (* the warm-up op is the same on every seed *)
        ignore (run (Io.to_string (Io.Slotted_instance (Workload.Generate.slotted ~params:(params n_min) ~seed:0 ()))));
        (insts, pool))
  in
  let w =
    {
      Serial.pool;
      run = (fun _ -> run);
      traced = (fun _ -> traced);
      check =
        (fun idx a ->
          match a.cost with
          | None -> Check.Unverified
          | Some cost -> Check.active insts.(idx) ~open_slots:a.open_slots ~schedule:a.schedule ~cost);
      quality =
        (fun idx a ->
          {
            Serial.no_quality with
            cost = float_of_int (Option.value ~default:0 a.cost);
            bound = (if a.cost = None then 0.0 else float_of_int (Check.active_bound insts.(idx)));
            answers = 1;
            jobs = S.num_jobs insts.(idx);
          });
    }
  in
  let o = Serial.measure w ~seconds:(if trace then seconds /. 3.0 else seconds) ~full_pass:(not trace) ~trace in
  Serial.result o ~setup_s ~trace ~layer:(layer ~ops:(List.length o.Serial.traced))
