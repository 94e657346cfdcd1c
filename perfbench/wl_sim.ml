(* sim_rolling: seeded Generate.timed_slotted traces (g=3, n spread over
   24-40, horizon 2n, slack 5) replayed warm with
   Sim.Rolling.default_config -- the only path through Core.Session's
   warm slots, the warm feasibility oracle and the pinned-LP1 dual-repair
   re-solve. An op is trace text in, replay report out, as [atbt sim
   --format json] runs it. *)

module S = Workload.Slotted
module Io = Workload.Io
module J = Obs.Json
module R = Sim.Rolling

let count = 170
let n_min = 24
let n_max = 40

let params n : Workload.Generate.slotted_params = { n; horizon = 2 * n; max_length = 4; slack = 5; g = 3 }

let generate ~seed =
  let st = Random.State.make [| seed; 3 |] in
  let traces =
    List.init count (fun i ->
        Workload.Generate.timed_slotted ~params:(params (n_min + ((n_max - n_min) * i / (count - 1))))
          ~seed:(Random.State.bits st) ())
  in
  Serial.shuffle st (Array.of_list traces)

let generator =
  let p = params n_min in
  Printf.sprintf
    "%d Generate.timed_slotted traces (g=%d, horizon 2n, max_length %d, slack %d, n spread over \
     %d-%d), shuffled; Sim.Rolling.default_config"
    count p.g p.max_length p.slack n_min n_max

let parse text =
  match Io.parse_string_timed text with
  | Io.Slotted_instance inst, arrivals -> (inst, arrivals)
  | Io.Busy_instance _, _ -> failwith "expected a slotted trace"

let run _ text =
  let inst, arrivals = parse text in
  let r = R.run ~arrivals inst in
  (r, J.to_string (R.to_json r))

(* Ticks the cascade spent in tiers that ran out of fuel, and all ticks,
   over a list of provenances. *)
let wasted_ticks provs =
  List.fold_left
    (fun (wasted, all) (p : _ Budget.Cascade.provenance) ->
      List.fold_left
        (fun (wasted, all) (a : Budget.Cascade.attempt) ->
          let t = a.Budget.Cascade.ticks in
          ((if a.Budget.Cascade.status = Budget.Cascade.Tier_exhausted then wasted + t else wasted), all + t))
        (wasted, all) p.Budget.Cascade.attempts)
    (0, 0) provs

let traced _ text =
  let inst, arrivals = Trace.span ~layer:"workload" "workload.parse" (fun () -> parse text) in
  let obs = Trace.obs () in
  let r = Trace.span ~layer:"sim" "sim.run" (fun () -> R.run ~obs ~arrivals inst) in
  Trace.add_counters obs
    [ "sim.epochs"; "session.warm_hits"; "session.warm_misses"; "session.rebuilds";
      "active.oracle.checks"; "flow.augmentations" ];
  Trace.count "sim.lp_work" (float_of_int (List.fold_left (fun acc e -> acc + e.R.lp_work) 0 r.R.epochs));
  let wasted, all = wasted_ticks (List.filter_map (fun e -> e.R.provenance) r.R.epochs) in
  Trace.count "budget.wasted_ticks" (float_of_int wasted);
  Trace.count "budget.ticks" (float_of_int all);
  (r, Trace.span ~layer:"obs" "obs.encode" (fun () -> J.to_string (R.to_json r)))

let layer ~ops () =
  let ms name = fst (Trace.per_call name) in
  let run_total, _, _ = Trace.total "sim.run" in
  let c = Trace.counted in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  [ ("workload.parse_ms", ms "workload.parse");
    ("obs.encode_ms", ms "obs.encode");
    ("sim.epoch_ms", ratio run_total (c "sim.epochs"));
    ("sim.lp_work", c "sim.lp_work" /. float_of_int (max 1 ops));
    ( "core.session.warm_hit_frac",
      ratio (c "session.warm_hits") (c "session.warm_hits" +. c "session.warm_misses" +. c "session.rebuilds") );
    ("active.oracle.checks", c "active.oracle.checks" /. float_of_int (max 1 ops));
    ("flow.augmentations", c "flow.augmentations" /. float_of_int (max 1 ops));
    ("budget.wasted_tick_frac", ratio (c "budget.wasted_ticks") (c "budget.ticks")) ]

let run_workload ~seed ~seconds ~trace =
  let (traces, pool), setup_s =
    Serial.repeat_setup (fun () ->
        let traces = generate ~seed in
        let text (inst, arrivals) = Io.to_string ~arrivals (Io.Slotted_instance inst) in
        let pool = Array.map text traces in
        (* the warm-up op is the same on every seed *)
        ignore (run 0 (text (Workload.Generate.timed_slotted ~params:(params n_min) ~seed:0 ())));
        (traces, pool))
  in
  let w =
    {
      Serial.pool;
      run;
      traced;
      check =
        (fun idx r ->
          Check.rolling (fst traces.(idx)) ~open_slots:r.R.open_slots ~schedule:r.R.schedule
            ~energy:r.R.total_energy ~completed:r.R.completed_jobs ~misses:r.R.total_misses);
      quality =
        (fun idx r ->
          let inst = fst traces.(idx) in
          {
            Serial.cost = float_of_int r.R.total_energy;
            bound = float_of_int (Check.active_bound inst);
            answers = List.length r.R.epochs;
            degraded = List.length (List.filter (fun e -> e.R.degraded) r.R.epochs);
            jobs = S.num_jobs inst;
            misses = r.R.total_misses;
          });
    }
  in
  let o = Serial.measure w ~seconds:(if trace then seconds /. 3.0 else seconds) ~full_pass:(not trace) ~trace in
  Serial.result o ~setup_s ~trace ~layer:(layer ~ops:(List.length o.Serial.traced))
