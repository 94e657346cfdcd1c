(* The benchmark entry point: one workload per process.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints a human-readable table of every metric, then, as the last
   line, one JSON object {correct, attempted, failed, metrics}: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1. See README.md. *)

(* (name, unit) of the end-to-end metrics in the JSON line. *)
let end_to_end =
  [ ("setup_s", "s"); ("latency_ms_p50", "ms"); ("latency_ms_p90", "ms");
    ("throughput_ops_s", "ops/s"); ("cost_ratio", "ratio"); ("ok_frac", "ratio");
    ("first_tier_frac", "ratio"); ("on_time_frac", "ratio"); ("peak_rss_mb", "MB");
    ("alloc_mb_per_op", "MB") ]

(* End-to-end figures printed in the table only: fractions that are 0 on
   a healthy run (the JSON line carries their complements above), the op
   count, the answers the checker could not check in full -- infeasible
   verdicts (unverified) and preemptive or LP-bound answers, where only
   cost >= mass bound is checked (bound-only) -- the raw wall-clock op
   latency and throughput, and the reference kernels' time (see
   Serial.end_to_end). *)
let table_only =
  [ ("failed_frac", "ratio"); ("degraded_frac", "ratio"); ("miss_frac", "ratio"); ("ops", "count");
    ("unverified", "count"); ("bound_only", "count"); ("wall_ms_p50", "ms"); ("wall_ms_p90", "ms");
    ("wall_throughput_ops_s", "ops/s"); ("reference_ms", "ms") ]

(* (name, unit) of the per-layer metrics in the traced JSON line; a
   metric a workload does not exercise reads 0. *)
let per_layer =
  [ ("workload.parse_ms", "ms"); ("obs.encode_ms", "ms"); ("active.build_lp1_ms", "ms");
    ("lp.solve_ms", "ms"); ("lp.alloc_mb", "MB"); ("lp.us_per_pivot", "us");
    ("lp.pivots", "count"); ("lp.exact_cells", "count"); ("lp.priced_columns", "count");
    ("lp.refactorizations", "count"); ("active.rounding_self_ms", "ms"); ("active.verify_ms", "ms");
    ("active.oracle.checks", "count"); ("flow.augmentations", "count"); ("busy.place_ms", "ms");
    ("busy.place_alloc_mb", "MB"); ("busy.interval_solve_ms", "ms"); ("busy.preemptive_ms", "ms");
    ("busy.check_ms", "ms"); ("busy.exact.us_per_node", "us"); ("busy.exact.kb_per_node", "KB");
    ("active.exact.us_per_node", "us"); ("budget.wasted_tick_frac", "ratio");
    ("serve.decode_us", "us"); ("serve.latency_ms_p50", "ms"); ("serve.latency_ms_p90", "ms");
    ("serve.service_ms_p50", "ms"); ("serve.service_ms_p90", "ms");
    ("serve.queue_wait_ms_p50", "ms"); ("serve.queue_wait_ms_p90", "ms");
    ("serve.memo_hit_frac", "ratio"); ("serve.basis_hit_frac", "ratio");
    ("serve.gen_lag_ms_max", "ms"); ("sim.epoch_ms", "ms"); ("sim.lp_work", "count");
    ("core.session.warm_hit_frac", "ratio"); ("self.workload_ms", "ms"); ("self.core_ms", "ms");
    ("self.budget_ms", "ms"); ("self.active_ms", "ms"); ("self.lp_ms", "ms"); ("self.busy_ms", "ms");
    ("self.serve_ms", "ms"); ("self.sim_ms", "ms"); ("self.obs_ms", "ms"); ("self.other_ms", "ms");
    ("trace.coverage_frac", "ratio"); ("trace.op_ms_p50", "ms"); ("trace.overhead_ms", "ms") ]

(* name, run, generator parameters *)
let workloads =
  [ ("active_lp", (Wl_active.run_workload, Wl_active.generator));
    ("busy_flex", (Wl_busy.run_workload, Wl_busy.generator));
    ("serve_mixed", (Wl_serve.run_workload, Wl_serve.generator));
    ("sim_rolling", (Wl_sim.run_workload, Wl_sim.generator)) ]

let usage () =
  prerr_endline
    ("usage: bench.exe --workload " ^ String.concat "|" (List.map fst workloads)
   ^ " [--seed N] [--seconds S] [--trace 0|1]");
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run, generator = match List.assoc_opt !workload workloads with Some w -> w | None -> usage () in
  let r = run ~seed:!seed ~seconds:!seconds ~trace:!trace in
  let value name =
    match List.assoc_opt name r.Serial.metrics with
    | Some v when Float.is_finite v -> v
    | Some _ -> failwith ("workload measured no finite " ^ name)
    | None -> if !trace then 0.0 else failwith ("workload reported no " ^ name)
  in
  let shown = if !trace then per_layer else end_to_end @ table_only in
  Printf.printf "workload %s  seed %d  seconds %g  trace %d\n" !workload !seed !seconds
    (if !trace then 1 else 0);
  Printf.printf "generator: %s\n" generator;
  List.iter (fun (name, unit) -> Printf.printf "  %-28s %14.6g %s\n" name (value name) unit) shown;
  let metrics = if !trace then per_layer else end_to_end in
  if !trace then begin
    (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
    Trace.write (Printf.sprintf "perfbench/out/trace-%s-s%d.jsonl" !workload !seed)
  end;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.Serial.correct r.Serial.attempted r.Serial.failed
    (String.concat ", "
       (List.map
          (fun (name, unit) -> Printf.sprintf "%S: {\"value\": %.10g, \"unit\": %S}" name (value name) unit)
          metrics))
