(* serve_mixed: a request mix through the [atbt serve] daemon's own loop,
   Serve.run_stream. The benchmark generates the requests: cascade
   requests (explicit 20k-tick budget) on active instances (n=40) and
   flexible busy instances (n=60), direct rounding and greedy-tracking
   requests, exact repeats (memo hits) and earlier active instances
   re-asked with lp-bound (memo misses that share an LP shape, so
   basis-cache hits). No request carries deadline_ms, so every answer is
   deterministic.

   The shares of the mix are chosen, not measured: the repository holds
   no record of real serve traffic, and the issue that defined this
   workload names the kinds of request but not how often each occurs.
   [pattern] fixes them; [generator] prints them.

   The end-to-end run is a closed loop through Serve.run_stream with one
   worker domain: the daemon is handed request k+1 only after it has
   emitted response k, and each request is timed from the moment the
   daemon takes its line to the moment its response line is emitted.
   Each pass over the plan starts a fresh daemon, so every pass sees the
   same memo and basis-cache hits. The traced run adds an open loop --
   requests due at [rate] per second, [open_domains] worker domains,
   each timed from its due time -- whose figures are layer metrics
   without a bound: on a 2-vCPU VM their quartile spread over seeds was
   31-54%, wider than any bound the benchmark may set. *)

module S = Workload.Slotted
module B = Workload.Bjob
module Io = Workload.Io
module J = Obs.Json
module Q = Rational
module P = Serve.Protocol
module CR = Core.Result
module CI = Core.Instance

let budget = 20_000
let active_n = 40
let busy_n = 60
let busy_g = 4
let rate = 4.0
let open_domains = 2
let queue = 64

(* The plan a run replays; a closed-loop pass over it takes about 13 s
   on a 2-vCPU VM. *)
let plan_length = 300

type base = Active_inst of S.t | Busy_inst of B.t list

type request = {
  algorithm : string;
  base : base;  (** the generated instance, which only the checker reads *)
  fresh : bool;  (** not a repeat of an earlier request line *)
  origin : int;  (** the request this one repeats; its own index when fresh *)
  line : string;  (** what the daemon receives *)
}

(* The mix, repeated every 20 requests: 2 active and 1 busy cascade, 10
   rounding, 2 greedy-tracking, 2 lp-bound re-asks and 3 exact repeats
   (of rounding and of each cascade kind). *)
type slot =
  | Cascade_active
  | Cascade_busy
  | Rounding
  | Greedy_tracking
  | Repeat of slot  (** an earlier fresh request of this kind *)
  | Lp_bound  (** an earlier active instance *)

let pattern =
  [| Cascade_active; Rounding; Greedy_tracking; Rounding; Rounding; Repeat Rounding; Rounding;
     Cascade_busy; Rounding; Lp_bound; Rounding; Repeat Cascade_active; Rounding; Cascade_active;
     Rounding; Greedy_tracking; Rounding; Lp_bound; Repeat Cascade_busy; Rounding |]

let active_params : Workload.Generate.slotted_params =
  { n = active_n; horizon = 2 * active_n; max_length = 4; slack = 4; g = 3 }

let generator =
  let count p = Array.fold_left (fun c s -> if p s then c + 1 else c) 0 pattern in
  Printf.sprintf
    "plan of %d requests, per %d: %d active cascades (Generate.slotted n=%d, g=%d) + %d busy \
     cascades (Generate.flexible_jobs n=%d, horizon %d, g=%d), budget %d each, %d rounding, %d \
     greedy-tracking, %d lp-bound re-asks, %d exact repeats (shares chosen, not measured); closed \
     loop, 1 worker domain; traced run adds an open loop at %g requests/s, %d worker domains, \
     queue %d"
    plan_length (Array.length pattern)
    (count (( = ) Cascade_active))
    active_n active_params.g
    (count (( = ) Cascade_busy))
    busy_n busy_n busy_g budget
    (count (( = ) Rounding))
    (count (( = ) Greedy_tracking))
    (count (( = ) Lp_bound))
    (count (function Repeat _ -> true | _ -> false))
    rate open_domains queue

let render ~id ~algorithm base =
  let text, g =
    match base with
    | Active_inst i -> (Io.to_string (Io.Slotted_instance i), [])
    | Busy_inst jobs -> (Io.to_string (Io.Busy_instance jobs), [ ("g", J.Int busy_g) ])
  in
  let budget = if algorithm = "cascade" then [ ("budget", J.Int budget) ] else [] in
  J.to_string
    (J.Obj ([ ("id", J.Int id); ("instance", J.String text); ("algorithm", J.String algorithm) ] @ g @ budget))

let plan ~seed ~n =
  let st = Random.State.make [| seed; 4 |] in
  let active () =
    Active_inst (Workload.Generate.slotted ~params:active_params ~seed:(Random.State.bits st) ())
  in
  let busy () =
    Busy_inst (Workload.Generate.flexible_jobs ~n:busy_n ~horizon:busy_n ~seed:(Random.State.bits st) ())
  in
  let reqs = Array.make n None in
  let fresh k algorithm base =
    { algorithm; base; fresh = true; origin = k; line = render ~id:k ~algorithm base }
  in
  (* an earlier fresh request at least 4 back satisfying [p] *)
  let earlier k p =
    let c = List.filter_map (fun j -> match reqs.(j) with Some r when p r -> Some r | _ -> None)
        (List.init (max 0 (k - 3)) Fun.id) in
    match c with [] -> None | _ -> Some (List.nth c (Random.State.int st (List.length c)))
  in
  for k = 0 to n - 1 do
    let r =
      match pattern.(k mod Array.length pattern) with
      | Cascade_active -> fresh k "cascade" (active ())
      | Cascade_busy -> fresh k "cascade" (busy ())
      | Rounding -> fresh k "rounding" (active ())
      | Greedy_tracking -> fresh k "greedy-tracking" (busy ())
      | Repeat kind -> (
          let same r =
            match (kind, r.base) with
            | Cascade_active, Active_inst _ | Cascade_busy, Busy_inst _ -> r.algorithm = "cascade"
            | Rounding, _ -> r.algorithm = "rounding"
            | Greedy_tracking, _ -> r.algorithm = "greedy-tracking"
            | _ -> false
          in
          match earlier k (fun r -> r.fresh && same r) with
          | Some r -> { r with fresh = false; line = render ~id:k ~algorithm:r.algorithm r.base }
          (* [r.origin] is [r]'s own index: [r] is fresh *)
          | None -> fresh k "cascade" (active ()))
      | Lp_bound -> (
          match earlier k (fun r -> r.fresh && match r.base with Active_inst _ -> true | _ -> false) with
          | Some r -> fresh k "lp-bound" r.base
          | None -> fresh k "rounding" (active ()))
    in
    reqs.(k) <- Some r
  done;
  Array.map Option.get reqs

let config ~domains = { (Serve.default_config ()) with domains; queue_capacity = queue; timing = true }

(* ----------------------------------------------------------- responses -- *)

type response = {
  status : string;
  cost : J.t;
  cache : string;
  elapsed_ms : float;
  attempts : (int * bool) list;  (** provenance: ticks, tier exhausted *)
}

let field k doc = Option.value ~default:J.Null (J.member k doc)

let parse_response line =
  match J.parse line with
  | Error e -> failwith ("unparsable response: " ^ e)
  | Ok doc ->
      let str k = match field k doc with J.String s -> s | _ -> "" in
      let attempts =
        match J.member "attempts" (field "provenance" doc) with
        | Some (J.List l) ->
            List.map
              (fun a ->
                ( (match field "ticks" a with J.Int t -> t | _ -> 0),
                  field "status" a = J.String "exhausted" ))
              l
        | _ -> []
      in
      {
        status = str "status";
        cost = field "cost" doc;
        cache = str "cache";
        elapsed_ms = (match field "elapsed_us" doc with J.Int us -> float_of_int us /. 1000.0 | _ -> nan);
        attempts;
      }

let answered r = List.mem r.status [ "ok"; "degraded"; "infeasible" ]

(* ---------------------------------------------------------- closed loop -- *)

type pass = {
  responses : response array;
  cpu_ms : float list;  (** per request, line taken to response emitted *)
  wall_ms : float list;
  counters : (string * int) list;  (** the daemon's own *)
}

(* One closed-loop pass over [lines] through a fresh daemon with one
   worker domain: the daemon is handed request k+1 only after it has
   emitted response k. Stops early once [stop ()] holds; calibrates
   [speed] between requests, never inside one. *)
let closed_pass ~speed ~stop lines =
  let n = Array.length lines in
  let m = Mutex.create () and emitted_one = Condition.create () in
  let handed = ref 0 and emitted = ref 0 in
  let c0 = ref 0.0 and w0 = ref 0.0 in
  let out = ref [] in
  let next_line () =
    Mutex.protect m (fun () -> while !emitted < !handed do Condition.wait emitted_one m done);
    let k = !handed in
    if k >= n || stop () then None
    else begin
      Meas.calibrate speed;
      handed := k + 1;
      c0 := Meas.cpu ();
      w0 := Meas.now ();
      Some lines.(k)
    end
  in
  (* the daemon calls [emit] on its worker domain, in request order *)
  let emit line =
    let c = Meas.cpu () and w = Meas.now () in
    Mutex.protect m (fun () ->
        out := (line, (c -. !c0) *. 1000.0, (w -. !w0) *. 1000.0) :: !out;
        incr emitted;
        Condition.signal emitted_one)
  in
  let obs = Obs.create () in
  (match Serve.run_stream ~obs ~config:(config ~domains:1) ~next_line ~emit () with
  | None -> ()
  | Some e -> raise e);
  let out = List.rev !out in
  if List.length out <> !handed then
    failwith (Printf.sprintf "%d responses for %d requests" (List.length out) !handed);
  {
    responses = Array.of_list (List.map (fun (l, _, _) -> parse_response l) out);
    cpu_ms = List.map (fun (_, c, _) -> c) out;
    wall_ms = List.map (fun (_, _, w) -> w) out;
    counters = Obs.counters obs;
  }

(* ------------------------------------------------- stage by stage -- *)

(* The answer a response carries for [r], as the daemon maps a solver
   result onto a status: a cascade that had to fall back is degraded. *)
let answer_of (r : CR.t) =
  let cost =
    match r.CR.objective with
    | Some (CR.Slots n) -> J.Int n
    | Some (CR.Busy q | CR.Value q) -> J.String (Q.to_string q)
    | None -> J.Null
  in
  let fell_back =
    match r.CR.provenance with
    | Some p ->
        List.exists
          (fun (a : Budget.Cascade.attempt) -> a.Budget.Cascade.status = Budget.Cascade.Tier_exhausted)
          p.Budget.Cascade.attempts
    | None -> false
  in
  match (r.CR.status, r.CR.objective) with
  | CR.Solved, _ -> ((if fell_back then "degraded" else "ok"), cost)
  | CR.Infeasible, _ -> ("infeasible", J.Null)
  | CR.Exhausted _, Some _ -> ("degraded", cost)
  | CR.Exhausted _, None -> ("error", J.Null)

let decode k line =
  match Trace.span ~layer:"serve" "serve.decode" (fun () -> P.decode_line ~seq:k line) with
  | Ok r -> r
  | Error e -> failwith e

(* A decoded request through the public calls a daemon worker makes:
   placement first for busy instances, then the registered solver under
   the request's budget (the daemon's default when it sends none), then
   the library's own check of the witness. *)
let solve (preq : P.request) =
  let default = Option.get (Serve.default_config ()).Serve.default_budget in
  let budget = Budget.limited (Option.value ~default preq.P.budget) in
  let obs = Trace.obs () in
  let run kind inst =
    (Core.Registry.find_exn kind preq.P.algorithm).Core.Solver.solve ~budget ~params:preq.P.params
      ~obs inst
  in
  let which, r =
    match preq.P.instance with
    | Io.Slotted_instance inst ->
        let r = Trace.span ~layer:"core" "core.solve" (fun () -> run CI.Active_slotted (CI.Slotted inst)) in
        (match (r.CR.status, r.CR.witness) with
        | CR.Solved, Some (CR.Opened { open_slots; schedule }) -> (
            match
              Trace.span ~layer:"active" "active.verify" (fun () ->
                  Active.Solution.verify inst { Active.Solution.open_slots; schedule })
            with
            | None -> ()
            | Some problem -> failwith ("invalid solution: " ^ problem))
        | _ -> ());
        ("active", r)
    | Io.Busy_instance jobs ->
        let pinned =
          Trace.span ~layer:"busy" "busy.place" (fun () ->
              Busy.Pipeline.place Busy.Pipeline.Greedy_placement jobs)
        in
        let r =
          Trace.span ~layer:"core" "core.solve" (fun () ->
              run CI.Busy_interval (CI.Interval { g = preq.P.g; jobs = pinned }))
        in
        (match (r.CR.status, r.CR.witness) with
        | CR.Solved, Some (CR.Packing p) -> (
            match
              Trace.span ~layer:"busy" "busy.check" (fun () -> Busy.Bundle.check ~g:preq.P.g pinned p)
            with
            | None -> ()
            | Some problem -> failwith ("invalid packing: " ^ problem))
        | _ -> ());
        ("busy", r)
  in
  if preq.P.algorithm = "cascade" then Trace.add_counters obs [ which ^ ".exact.nodes" ];
  r

(* The staged replay's state: a fresh memo for every pass over the plan,
   as a fresh daemon has, and a session holding the LP basis cache. *)
type replay_state = { memo : (string * J.t) Core.Session.Memo.t; session : Core.Session.t }

let fresh_replay_state () =
  let cfg = config ~domains:1 in
  {
    memo = Core.Session.Memo.create ~capacity:cfg.Serve.cache_capacity;
    session = Core.Session.create ~name:"serve" ~basis_cache:cfg.Serve.basis_cache_capacity ();
  }

(* Request [k] stage by stage: decode, memo lookup, solve. Returns its
   (status, cost). The cascade's time and allocation are counted for the
   per-node figures. *)
let staged st k line =
  let preq = decode k line in
  let key = P.cache_key preq in
  match Trace.span ~layer:"serve" "serve.memo" (fun () -> Core.Session.Memo.find st.memo key) with
  | Some a -> a
  | None ->
      let a0 = Meas.allocated_bytes () and t0 = Meas.now () in
      let r = Core.Session.with_installed st.session (fun () -> solve preq) in
      if preq.P.algorithm = "cascade" then begin
        let which = match preq.P.instance with Io.Slotted_instance _ -> "active" | _ -> "busy" in
        Trace.count (which ^ ".cascade_ms") ((Meas.now () -. t0) *. 1000.0);
        Trace.count (which ^ ".cascade_alloc") (Meas.allocated_bytes () -. a0)
      end;
      let a = answer_of r in
      if List.mem (fst a) [ "ok"; "degraded"; "infeasible" ] then Core.Session.Memo.store st.memo key a;
      a

(* ---------------------------------------------------------- checking -- *)

let check req (r : CR.t) =
  match (req.base, r.CR.status, r.CR.objective, r.CR.witness) with
  | _, CR.Infeasible, _, _ -> Check.Unverified
  | Active_inst inst, _, Some (CR.Slots cost), Some (CR.Opened { open_slots; schedule }) ->
      Check.active inst ~open_slots ~schedule ~cost
  | Active_inst inst, _, Some (CR.Value value), None -> Check.lp_bound inst ~value
  | Busy_inst jobs, _, Some (CR.Busy cost), Some (CR.Packing bundles) ->
      Check.busy ~g:busy_g jobs ~bundles ~cost
  | _ -> Check.Rejected "answer carries no checkable witness"

(* The benchmark's lower bound for a request's objective. *)
let bound req =
  match req.base with
  | Active_inst inst -> float_of_int (Check.active_bound inst)
  | Busy_inst jobs -> Q.to_float (Check.mass ~g:busy_g jobs)

let cost_float = function
  | J.Int n -> Some (float_of_int n)
  | J.String s -> ( try Some (Q.to_float (Q.of_string s)) with _ -> None)
  | _ -> None

(* Checks the first pass. A response carries no schedule, so each fresh
   request is solved once more through the same public calls, outside
   the timed loop; the independent checker verifies that witness and the
   response must carry its status and cost. A repeat must carry the
   answer of the request it repeats. Returns, per request, whether it is
   rejected, and the unverified and bound-only counts. *)
let check_first reqs (first : response array) =
  let bad = Array.make (Array.length first) false in
  let unverified = ref 0 and bound_only = ref 0 in
  let reject k fmt =
    Printf.ksprintf
      (fun m ->
        bad.(k) <- true;
        Serial.warn "request %d: %s" k m)
      fmt
  in
  Array.iteri
    (fun k (resp : response) ->
      let req = reqs.(k) in
      if not (answered resp) then reject k "the daemon answered %s" resp.status
      else if not req.fresh then begin
        let o = first.(req.origin) in
        if (o.status, o.cost) <> (resp.status, resp.cost) then
          reject k "the answer differs from request %d, which it repeats" req.origin
      end
      else
        match solve (decode k req.line) with
        | exception e -> reject k "the library call raised %s" (Printexc.to_string e)
        | r -> (
            if answer_of r <> (resp.status, resp.cost) then
              reject k "the daemon answered %s %s, the library call %s %s" resp.status
                (J.to_string resp.cost) (fst (answer_of r)) (J.to_string (snd (answer_of r)));
            match check req r with
            | Check.Valid -> ()
            | Check.Bound_only -> incr bound_only
            | Check.Unverified -> incr unverified
            | Check.Rejected m -> reject k "checker: %s" m))
    first;
  (bad, !unverified, !bound_only)

(* Ticks the cascade spent in tiers that ran out of fuel, and all ticks,
   over the responses that were not memo hits. *)
let wasted_ticks (responses : response array) =
  Array.fold_left
    (fun (w, a) r ->
      if r.cache = "hit" then (w, a)
      else List.fold_left (fun (w, a) (t, ex) -> ((if ex then w + t else w), a + t)) (w, a) r.attempts)
    (0, 0) responses

(* ----------------------------------------------------------- open loop -- *)

type stream = {
  open_responses : response array;
  latency : float array;  (** ms, due time to response emitted *)
  lag_max : float;  (** ms the generator ran late at worst *)
}

(* Offers [lines] at [rate] per second to a daemon with [open_domains]
   workers: request k is due k/rate s after the daemon asks for its
   first line, and is timed from that due time, so a stall also delays
   the requests behind it. *)
let open_loop lines =
  let n = Array.length lines in
  let due = Array.make n 0.0 and emitted = Array.make n 0.0 and out = Array.make n "" in
  let t0 = ref 0.0 and next = ref 0 and emits = ref 0 and lag = ref 0.0 in
  let next_line () =
    let k = !next in
    if k >= n then None
    else begin
      if k = 0 then t0 := Meas.now ();
      let d = !t0 +. (float_of_int k /. rate) in
      let wait = d -. Meas.now () in
      if wait > 0.0 then Unix.sleepf wait;
      due.(k) <- d;
      lag := Float.max !lag (Meas.now () -. d);
      next := k + 1;
      Some lines.(k)
    end
  in
  (* the daemon calls [emit] in request order, under its output lock *)
  let emit line =
    let k = !emits in
    if k < n then begin
      emitted.(k) <- Meas.now ();
      out.(k) <- line
    end;
    emits := k + 1
  in
  (match Serve.run_stream ~config:(config ~domains:open_domains) ~next_line ~emit () with
  | None -> ()
  | Some e -> raise e);
  if !emits <> n then failwith (Printf.sprintf "%d responses for %d requests" !emits n);
  {
    open_responses = Array.map parse_response out;
    latency = Array.init n (fun k -> (emitted.(k) -. due.(k)) *. 1000.0);
    lag_max = !lag *. 1000.0;
  }

(* --------------------------------------------------------------- run -- *)

let run_workload ~seed ~seconds ~trace =
  let reqs, setup_s =
    Serial.repeat_setup (fun () ->
        let reqs = plan ~seed ~n:plan_length in
        (* warm-up: the same greedy-tracking request on every seed, through
           a daemon started and stopped *)
        let warm = Busy_inst (Workload.Generate.flexible_jobs ~n:busy_n ~horizon:busy_n ~seed:0 ()) in
        ignore
          (Serve.run_lines ~config:(config ~domains:1) [ render ~id:0 ~algorithm:"greedy-tracking" warm ]);
        reqs)
  in
  let lines = Array.map (fun r -> r.line) reqs in
  let seconds_closed = if trace then seconds /. 3.0 else seconds in
  (* the untraced run always finishes its first pass *)
  let full_pass = not trace in
  let speed = Meas.speed () in
  Gc.compact ();
  let a0 = Meas.allocated_bytes () in
  let t_start = Meas.now () and c_start = Meas.cpu () in
  let over () = Meas.now () -. t_start >= seconds_closed in
  let rec passes p acc =
    if p > 0 && over () then List.rev acc
    else
      let stop () = (p > 0 || not full_pass) && over () in
      passes (p + 1) (closed_pass ~speed ~stop lines :: acc)
  in
  let passes = passes 0 [] in
  let loop_s = Meas.now () -. t_start -. speed.Meas.spent_wall in
  let loop_cpu_s = Meas.cpu () -. c_start -. speed.Meas.spent_cpu in
  (* the worker domains have joined, so their allocation is counted *)
  let alloc = Meas.allocated_bytes () -. a0 -. speed.Meas.spent_alloc in
  let peak_rss = Meas.peak_rss_mb () in
  let first = (List.hd passes).responses in
  let bad, unverified, bound_only = check_first reqs first in
  let failed = ref 0 in
  List.iter
    (fun p ->
      Array.iteri
        (fun k r ->
          if bad.(k) then incr failed
          else if (r.status, r.cost) <> (first.(k).status, first.(k).cost) then begin
            incr failed;
            Serial.warn "request %d answered differently on a later pass" k
          end)
        p.responses)
    passes;
  let quality =
    Array.fold_left Serial.add_quality Serial.no_quality
      (Array.mapi
         (fun k r ->
           let cost = if answered r then cost_float r.cost else None in
           {
             Serial.no_quality with
             cost = Option.value ~default:0.0 cost;
             bound = (if cost = None then 0.0 else bound reqs.(k));
             answers = 1;
             degraded = (if r.status = "degraded" then 1 else 0);
           })
         first)
  in
  (* the staged replay of the requests the daemon was handed; each pass
     over the plan starts from a fresh state, as a fresh daemon does *)
  let staged_runner () =
    let state = ref (fresh_replay_state ()) in
    fun k ->
      if k = 0 then state := fresh_replay_state ();
      staged !state k lines.(k)
  in
  let staged_ms, traced_ms, mismatches =
    if trace then
      Serial.replay
        (List.concat_map (fun p -> List.init (Array.length p.responses) Fun.id) passes)
        ~make:staged_runner
        ~expect:(fun k a -> a = (first.(k).status, first.(k).cost))
    else ([], [], 0)
  in
  (* each request's median over the passes that reached it *)
  let per_request ms =
    Meas.per_key_median (List.concat_map (fun p -> List.mapi (fun k x -> (k, x)) (ms p)) passes)
  in
  let o =
    {
      Serial.latencies = per_request (fun p -> p.cpu_ms);
      wall_latencies = per_request (fun p -> p.wall_ms);
      speed;
      ops = List.fold_left (fun n p -> n + Array.length p.responses) 0 passes;
      loop_s;
      loop_cpu_s;
      alloc;
      peak_rss;
      failed = !failed;
      unverified;
      bound_only;
      quality;
      staged = staged_ms;
      traced = traced_ms;
      mismatches;
    }
  in
  let open_failed = ref 0 in
  let layer () =
    (* the open loop over the plan's first requests; each response must
       carry the answer the closed loop gave *)
    let n = min (Array.length first) (int_of_float (rate *. seconds)) in
    Gc.compact ();
    let st = open_loop (Array.sub lines 0 n) in
    Array.iteri
      (fun k r ->
        if (r.status, r.cost) <> (first.(k).status, first.(k).cost) then begin
          incr open_failed;
          Serial.warn "the open-loop daemon answered request %d differently" k
        end)
      st.open_responses;
    if st.lag_max > 1000.0 /. rate then begin
      incr open_failed;
      Serial.warn "invalid open-loop run: the generator fell %.1f ms behind" st.lag_max
    end;
    let lat = Array.to_list st.latency in
    let service = Array.to_list (Array.map (fun r -> r.elapsed_ms) st.open_responses) in
    let wait = List.mapi (fun k s -> st.latency.(k) -. s) service in
    let counters = (List.hd passes).counters in
    let counter name = float_of_int (Option.value ~default:0 (List.assoc_opt name counters)) in
    let hit_frac h m = if h +. m > 0.0 then h /. (h +. m) else 0.0 in
    let wasted, all = wasted_ticks first in
    let c = Trace.counted in
    let per_node ms nodes = if nodes > 0.0 then ms /. nodes else 0.0 in
    [ ("serve.decode_us", 1000.0 *. fst (Trace.per_call "serve.decode"));
      ("busy.place_ms", fst (Trace.per_call "busy.place"));
      ("busy.place_alloc_mb", Meas.mb (snd (Trace.per_call "busy.place")));
      ("serve.latency_ms_p50", Meas.median lat);
      ("serve.latency_ms_p90", Meas.quantile lat 0.9);
      ("serve.service_ms_p50", Meas.median service);
      ("serve.service_ms_p90", Meas.quantile service 0.9);
      ("serve.queue_wait_ms_p50", Meas.median wait);
      ("serve.queue_wait_ms_p90", Meas.quantile wait 0.9);
      ("serve.memo_hit_frac", hit_frac (counter "serve.cache_hits") (counter "serve.cache_misses"));
      ("serve.basis_hit_frac", hit_frac (counter "serve.basis_hits") (counter "serve.basis_misses"));
      ("serve.gen_lag_ms_max", st.lag_max);
      ("busy.exact.us_per_node", 1000.0 *. per_node (c "busy.cascade_ms") (c "busy.exact.nodes"));
      ("busy.exact.kb_per_node", per_node (c "busy.cascade_alloc") (c "busy.exact.nodes") /. 1024.0);
      ("active.exact.us_per_node", 1000.0 *. per_node (c "active.cascade_ms") (c "active.exact.nodes"));
      ("budget.wasted_tick_frac", if all > 0 then float_of_int wasted /. float_of_int all else 0.0) ]
  in
  let r = Serial.result o ~setup_s ~trace ~layer in
  { r with Serial.failed = r.Serial.failed + !open_failed; correct = r.Serial.correct && !open_failed = 0 }
