(* The closed loop shared by the single-domain workloads (active_lp,
   busy_flex, sim_rolling): ops run one after another over a seeded pool
   of instance texts, cycling until the run's time is up. *)

(* What one answer contributes to the quality metrics. *)
type quality = {
  cost : float;  (** objective; 0 for an infeasible verdict *)
  bound : float;  (** the benchmark's own lower bound *)
  answers : int;  (** answers ([sim_rolling]: epochs) *)
  degraded : int;  (** of which came from a fallback tier or epoch *)
  jobs : int;
  misses : int;  (** SLA misses *)
}

let no_quality = { cost = 0.0; bound = 0.0; answers = 0; degraded = 0; jobs = 0; misses = 0 }

let add_quality a b =
  {
    cost = a.cost +. b.cost;
    bound = a.bound +. b.bound;
    answers = a.answers + b.answers;
    degraded = a.degraded + b.degraded;
    jobs = a.jobs + b.jobs;
    misses = a.misses + b.misses;
  }

type 'a workload = {
  pool : string array;  (** instance texts, the only thing an op receives *)
  run : int -> string -> 'a * string;
      (** the op on pool item [i]: its text in, answer and result document
          out; the index only selects per-item options (as flags would) *)
  traced : int -> string -> 'a * string;  (** the same op, stage by stage inside trace spans *)
  check : int -> 'a -> Check.verdict;  (** pool index, answer *)
  quality : int -> 'a -> quality;
}

type outcome = {
  latencies : float list;  (** CPU ms per pool item, the median over its untraced ops *)
  wall_latencies : float list;  (** wall-clock ms per pool item, likewise *)
  speed : Meas.speed;  (** calibrations taken through the timed loop *)
  ops : int;
  loop_s : float;  (** wall s of the timed loop, calibrations left out *)
  loop_cpu_s : float;  (** CPU s of the timed loop, calibrations left out *)
  alloc : float;  (** bytes the GC allocated in the timed loop *)
  peak_rss : float;  (** MB, read when the timed loop ends *)
  failed : int;  (** ops that raised, that the checker rejected, or that drifted *)
  unverified : int;
  bound_only : int;
  quality : quality;  (** over the first pass through the pool *)
  staged : float list;  (** wall ms per op of the staged replay, tracing off *)
  traced : float list;  (** wall ms per op of the same replay, tracing on *)
  mismatches : int;  (** staged answers that differ from the untraced ones *)
}

let warn fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m)) fmt

(* The staged replay of the pool items [seq], each op run twice in a
   row: with tracing off, then on. The difference of the two latencies
   is what tracing costs, and running the two side by side keeps the
   host's drift out of it; both do the same extra work a staged op does
   (active_lp solves LP1 on its own before rounding solves it again).
   [make ()] returns a fresh op runner, one per mode, so state an op
   keeps between calls (serve's memo) is not shared between the modes.
   [expect idx v] tells whether answer [v] for pool item [idx] equals
   the untraced one. Returns the wall ms per op of both modes and the
   mismatch count. *)
let replay seq ~make ~expect =
  let runners = [| make (); make () |] in
  let mismatches = ref 0 and ms = [| []; [] |] in
  List.iteri
    (fun j idx ->
      Array.iteri
        (fun mode run ->
          Trace.enabled := mode = 1;
          let r, t = Trace.op j (fun () -> try Ok (run idx) with e -> Error e) in
          Trace.enabled := false;
          ms.(mode) <- t :: ms.(mode);
          match r with
          | Ok v when expect idx v -> ()
          | Ok _ ->
              incr mismatches;
              warn "staged op %d (pool item %d) answered differently" j idx
          | Error e ->
              incr mismatches;
              warn "staged op %d raised %s" j (Printexc.to_string e))
        runners)
    seq;
  (List.rev ms.(0), List.rev ms.(1), !mismatches)

(* Untraced loop for [seconds]; with [full_pass] it also finishes the
   first pass over the pool, so the quality metrics cover the same
   instances on every run of a seed. Then checks every first-pass answer
   and compares each later answer's document with the first one. With
   [trace], replays the same op sequence stage by stage. *)
let measure w ~seconds ~full_pass ~trace =
  let n = Array.length w.pool in
  let docs = Array.make n None and answers = Array.make n None in
  let seq = ref [] and lat = ref [] and wall_lat = ref [] and failed = ref 0 in
  let speed = Meas.speed () in
  (* every run starts the timed loop from the same compacted heap *)
  Gc.compact ();
  let a0 = Meas.allocated_bytes () in
  let t_start = Meas.now () and c_start = Meas.cpu () in
  let k = ref 0 in
  while (full_pass && !k < n) || Meas.now () -. t_start < seconds do
    Meas.calibrate speed;
    let idx = !k mod n in
    let t0 = Meas.now () and c0 = Meas.cpu () in
    let r = try Ok (w.run idx w.pool.(idx)) with e -> Error e in
    lat := (idx, (Meas.cpu () -. c0) *. 1000.0) :: !lat;
    wall_lat := (idx, (Meas.now () -. t0) *. 1000.0) :: !wall_lat;
    seq := idx :: !seq;
    (match r with
    | Error e ->
        incr failed;
        warn "op on pool item %d raised %s" idx (Printexc.to_string e)
    | Ok (a, doc) -> (
        match docs.(idx) with
        | None ->
            docs.(idx) <- Some doc;
            answers.(idx) <- Some a
        | Some d ->
            if d <> doc then begin
              incr failed;
              warn "pool item %d answered differently on a later pass" idx
            end));
    incr k
  done;
  let loop_s = Meas.now () -. t_start -. speed.Meas.spent_wall in
  let loop_cpu_s = Meas.cpu () -. c_start -. speed.Meas.spent_cpu in
  let alloc = Meas.allocated_bytes () -. a0 -. speed.Meas.spent_alloc in
  let peak_rss = Meas.peak_rss_mb () in
  let seq = List.rev !seq in
  let bad = Array.make n false in
  let unverified = ref 0 and bound_only = ref 0 in
  let quality = ref no_quality in
  Array.iteri
    (fun idx a ->
      Option.iter
        (fun a ->
          quality := add_quality !quality (w.quality idx a);
          match w.check idx a with
          | Check.Valid -> ()
          | Check.Bound_only -> incr bound_only
          | Check.Unverified -> incr unverified
          | Check.Rejected m ->
              bad.(idx) <- true;
              warn "checker rejected pool item %d: %s" idx m)
        a)
    answers;
  (* every op whose answer was rejected fails, repeats included *)
  List.iter (fun idx -> if bad.(idx) then incr failed) seq;
  let staged, traced, mismatches =
    if trace then
      replay seq
        ~make:(fun () idx -> w.traced idx w.pool.(idx))
        ~expect:(fun idx (_, doc) -> docs.(idx) = Some doc)
    else ([], [], 0)
  in
  {
    latencies = Meas.per_key_median !lat;
    wall_latencies = Meas.per_key_median !wall_lat;
    speed;
    ops = !k;
    loop_s;
    loop_cpu_s;
    alloc;
    peak_rss;
    failed = !failed;
    unverified = !unverified;
    bound_only = !bound_only;
    quality = !quality;
    staged;
    traced;
    mismatches;
  }

let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* The end-to-end metrics of a run, with the table-only figures.
   Latencies and throughput are CPU time divided by the host's slowdown
   ({!Meas.slowdown}), as [setup_s] already is: throughput counts
   answered ops per normalized CPU second of the timed loop, the
   calibrations left out. The table-only [wall_ms_*] and
   [wall_throughput_ops_s] are raw wall-clock. *)
let end_to_end ~setup_s o =
  let slow = Meas.slowdown o.speed and q = o.quality in
  let answered = o.ops - o.failed in
  let failed_frac = frac o.failed o.ops in
  let degraded_frac = frac q.degraded q.answers in
  let miss_frac = frac q.misses q.jobs in
  [ ("setup_s", setup_s);
    ("latency_ms_p50", Meas.median o.latencies /. slow);
    ("latency_ms_p90", Meas.quantile o.latencies 0.9 /. slow);
    ("throughput_ops_s", float_of_int answered /. (o.loop_cpu_s /. slow));
    ("cost_ratio", if q.bound > 0.0 then q.cost /. q.bound else 0.0);
    ("failed_frac", failed_frac);
    ("ok_frac", 1.0 -. failed_frac);
    ("degraded_frac", degraded_frac);
    ("first_tier_frac", 1.0 -. degraded_frac);
    ("miss_frac", miss_frac);
    ("on_time_frac", 1.0 -. miss_frac);
    ("peak_rss_mb", o.peak_rss);
    ("alloc_mb_per_op", Meas.mb o.alloc /. float_of_int (max 1 o.ops));
    ("ops", float_of_int o.ops);
    ("unverified", float_of_int o.unverified);
    ("bound_only", float_of_int o.bound_only);
    ("wall_ms_p50", Meas.median o.wall_latencies);
    ("wall_ms_p90", Meas.quantile o.wall_latencies 0.9);
    ("wall_throughput_ops_s", float_of_int answered /. o.loop_s);
    ("reference_ms", Meas.speed_reference_ms o.speed) ]

(* The layer summary of a traced run, with its op latency and the
   tracing overhead: the median over ops of the staged op's wall-clock
   time with tracing on minus the same op's with tracing off. *)
let trace_summary o =
  Trace.layer_summary ~ops:(List.length o.traced)
  @ [ ("trace.op_ms_p50", Meas.median o.traced);
      ("trace.overhead_ms", Meas.median (List.map2 ( -. ) o.traced o.staged)) ]

(* Runs [setup] [times] times, with a calibration before each, and
   returns the last result with the median set-up time in CPU s divided
   by the host's slowdown over those calibrations. *)
let repeat_setup ?(times = 15) setup =
  let speed = Meas.speed () in
  let rec go k acc last =
    if k = 0 then (Option.get last, Meas.median acc /. Meas.slowdown speed)
    else begin
      Meas.calibrate ~every:0.0 speed;
      let t0 = Meas.cpu () in
      let r = setup () in
      go (k - 1) ((Meas.cpu () -. t0) :: acc) (Some r)
    end
  in
  go times [] None

(* Fisher-Yates shuffle driven by the workload's seeded state. *)
let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* What a workload hands back to Bench. *)
type result = { attempted : int; failed : int; correct : bool; metrics : (string * float) list }

(* [correct] is false as soon as one op failed or one staged answer
   differed. *)
let result o ~setup_s ~trace ~layer =
  {
    attempted = o.ops;
    failed = o.failed;
    correct = o.failed = 0 && o.mismatches = 0;
    metrics = (end_to_end ~setup_s o @ if trace then layer () @ trace_summary o else []);
  }
