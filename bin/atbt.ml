(* atbt - command-line interface to the active/busy time library.

     atbt generate --kind flexible --n 20 --seed 7 -o jobs.txt
     atbt active jobs.txt --algorithm rounding
     atbt active jobs.txt --budget 100000 --cascade --format json
     atbt busy jobs.txt -g 4 --algorithm greedy-tracking
     atbt bounds jobs.txt -g 4
     atbt --list-solvers

   Instance files are the plain-text format of {!Workload.Io}.

   Every [--algorithm <name>] resolves through {!Core.Registry} — the
   CLI carries no per-solver dispatch. [--list-solvers] prints the full
   registry (kind, name, quality, capability flags, paper artifact).

   Failures are structured values, not mid-function exits, so the exit
   codes are meaningful: 0 success, 1 usage/parse error, 2 internal
   error (a solver produced an invalid answer) or an algorithm name the
   registry does not know, 3 fuel budget exhausted without an answer.

   [--format text] (the default) keeps the historical human-readable
   output. [--format json] emits exactly one machine-readable document on
   stdout — schema documented in README.md — carrying the instance
   digest, algorithm, cost, lower bounds, cascade provenance and the
   solver telemetry (Obs counters and span tree). The document is emitted
   on every path, including usage errors and budget exhaustion, with
   [status] / [exit] mirroring the process exit code.

   [active], [busy] and [sim] each have one body that computes an
   [outcome]; [print_text] and [print_json] are its two printers. Solvers
   run through [Serve.run_checked], the checked dispatch the daemon uses,
   so every witness is verified in one place. *)

module Q = Rational
module S = Workload.Slotted
module B = Workload.Bjob
module Io = Workload.Io
module J = Obs.Json
module CI = Core.Instance
module CR = Core.Result
module CS = Core.Solver

open Cmdliner

(* single source of truth, shared with the serve protocol *)
let version = Serve.Protocol.version

type failure =
  | Usage of string  (* bad flags or unparseable input: exit 1 *)
  | Internal of string  (* a solver broke its own contract: exit 2 *)
  | Unknown_solver of string  (* --algorithm not in the registry: exit 2 *)
  | Fuel_exhausted of { hint : string; spent : int; incumbent : CR.objective option }
      (* budget ran out without an answer: exit 3 *)

let ( let* ) = Stdlib.Result.bind

(* Exit code, JSON status and message of a failure. An exhausted budget
   is worded per format: text prints the incumbent on stdout and keeps
   the message short, JSON names the spend and incumbent in it. *)
let describe ~json = function
  | Usage msg -> (1, "usage-error", msg)
  | Internal msg -> (2, "internal-error", if json then msg else "internal error: " ^ msg)
  | Unknown_solver msg -> (2, "usage-error", msg)
  | Fuel_exhausted { hint; spent; incumbent } ->
      let msg =
        match incumbent with
        | Some obj when json ->
            let best =
              match obj with
              | CR.Slots n -> Printf.sprintf "cost %d" n
              | o -> CR.objective_to_string o
            in
            Printf.sprintf "%s after %d ticks; best incumbent %s, not proven optimal; try --cascade"
              hint spent best
        | _ -> hint ^ "; try --cascade"
      in
      (3, "budget-exhausted", msg)

let finish = function
  | Ok () -> 0
  | Error f ->
      let code, _, msg = describe ~json:false f in
      prerr_endline ("atbt: " ^ msg);
      code

(* The one map from parse failures onto [Usage]: the strict parsers
   raise [Io.Parse_error], the lenient one returns it. *)
let load parse path =
  match parse path with
  | Ok v -> Ok v
  | Error (line, msg) | exception Io.Parse_error (line, msg) ->
      Error (Usage (Printf.sprintf "%s:%d: %s" path line msg))
  | exception Sys_error msg -> Error (Usage msg)

(* Every file the CLI creates goes through here so that an unwritable
   path surfaces as a Usage error (exit 1) instead of an uncaught
   [Sys_error] crash. *)
let write_text_file path contents =
  try
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents);
    Ok ()
  with Sys_error msg -> Error (Usage msg)

let write_svg svg render =
  match svg with Some file -> write_text_file file (render ()) | None -> Ok ()

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let check_budget = function
  | Some n when n < 0 -> Error (Usage "--budget must be nonnegative")
  | _ -> Ok ()

let check_g g = if g >= 1 then Ok () else Error (Usage "-g must be at least 1")

(* ----------------------------------------------------- registry access -- *)

(* Every name flag resolves the same way: an unknown name exits 2
   listing the valid ones. *)
let lookup ~what ?(valid = "valid") find names name =
  match find name with
  | Some v -> Ok v
  | None ->
      Error
        (Unknown_solver
           (Printf.sprintf "unknown %s %s (%s: %s; see atbt --list-solvers)" what name valid
              (String.concat "|" names)))

let resolve kind name =
  lookup ~what:"algorithm" ~valid:("valid for " ^ CI.kind_name kind) (Core.Registry.find kind)
    (Core.Registry.names kind) name

let resolve_lp_engine name =
  lookup ~what:"LP engine" Lp.engine_of_name (Lp.engine_names ()) name

let resolve_lp_pricing name =
  lookup ~what:"LP pricing" Lp.pricing_of_name (Lp.pricing_names ()) name

(* Run a registered solver through the checked dispatch it shares with
   serve, mapping its structured exceptions onto the CLI failure space. *)
let run_solver solver ?budget ?obs ?params inst =
  match Serve.run_checked solver ?budget:(Option.map Budget.limited budget) ?obs ?params inst with
  | r -> Ok r
  | exception CS.Unsupported msg -> Error (Usage msg)
  | exception CS.Bad_result msg -> Error (Internal msg)

(* ------------------------------------------------------------ outcome -- *)

(* What text mode shows of the answer, after the provenance and note. *)
type shown =
  | Nothing
  | Line of string
  | Incumbent of string * Active.Solution.t  (* a heading, then the unproven schedule *)
  | Schedule of S.t * Active.Solution.t  (* checked: schedule, --render, --svg, energy *)
  | Packing of int * B.t list list  (* checked, at capacity g: likewise *)
  | Rolling of Sim.Rolling.run

(* What one run of [active], [busy] or [sim] found. The command's body
   fills it in as far as it gets, so a failed run still names its
   instance (JSON) and an exhausted one still shows its incumbent
   (text); the body returns the verdict — JSON status, cost and bounds,
   or the failure. Text and JSON are two printers of the pair. *)
type outcome = {
  mutable instance : J.t Lazy.t;  (* JSON's summary; text never forces it *)
  mutable warnings : (int * string) list;  (* lines the lenient parse skipped *)
  mutable note : string option;
  mutable provenance : CR.objective Budget.Cascade.provenance option;
  mutable shown : shown;
}

let pp_objective fmt o = Format.pp_print_string fmt (CR.objective_to_string o)

let print_text ~render ~svg o verdict =
  Option.iter
    (Format.printf "%a" (Budget.Cascade.pp_provenance ~pp_cost:pp_objective))
    o.provenance;
  Option.iter print_endline o.note;
  (match o.shown with
  | Nothing -> ()
  | Line l -> Printf.printf "%s\n" l
  | Incumbent (heading, sol) ->
      Printf.printf "%s\n" heading;
      Format.printf "%a" Active.Solution.pp sol
  | Schedule (inst, sol) ->
      Format.printf "%a" Active.Solution.pp sol;
      if render then print_string (Render.slotted inst sol);
      Option.iter (Printf.printf "wrote %s\n") svg;
      let report = Sim.run_active inst sol in
      Printf.printf "energy %s, power-ons %d, utilization %s\n"
        (Q.to_string report.Sim.total_energy) report.Sim.total_switch_ons
        (Q.to_string report.Sim.utilization)
  | Packing (g, packing) ->
      Printf.printf "total busy time: %s on %d machines\n"
        (Q.to_string (Busy.Bundle.total_busy packing))
        (List.length packing);
      Format.printf "%a" Busy.Bundle.pp packing;
      if render then print_string (Render.packing packing);
      Option.iter (Printf.printf "wrote %s\n") svg;
      let report = Sim.run_packing ~g packing in
      Printf.printf "energy %s, power-ons %d, peak %d, utilization %s\n"
        (Q.to_string report.Sim.total_energy) report.Sim.total_switch_ons
        report.Sim.peak_parallelism
        (Q.to_string report.Sim.utilization)
  | Rolling r ->
      Format.printf "%a" Sim.Rolling.pp r;
      Option.iter (Printf.printf "wrote %s\n") svg);
  finish (Stdlib.Result.map ignore verdict)

(* One schema-1 document per invocation, on every path; [status] and
   [exit] mirror the process exit code so a consumer never needs the
   exit code separately. A finished [sim] run carries the rolling run's
   own fields in place of cost, bounds and provenance. *)
let print_json ~command ~algorithm obs o verdict =
  let code, status, message =
    match verdict with
    | Ok (status, _, _) -> (0, status, o.note)
    | Error f ->
        let code, status, msg = describe ~json:true f in
        (code, status, Some msg)
  in
  let fields =
    match (o.shown, verdict) with
    | Rolling r, Ok _ ->
        [ ("status", J.String status); ("exit", J.Int code); ("instance", Lazy.force o.instance) ]
        @ (match Sim.Rolling.to_json r with
          | J.Obj fields -> List.filter (fun (k, _) -> k <> "schema") fields
          | other -> [ ("run", other) ])
        @ [ ("counters", Obs.counters_to_json obs) ]
    | _ ->
        let cost, bounds, provenance =
          match verdict with
          | Ok (_, cost, bounds) -> (cost, bounds, CR.provenance_to_json o.provenance)
          | Error _ -> (J.Null, J.Null, J.Null)
        in
        [ ("algorithm", J.String algorithm);
          ("instance", Lazy.force o.instance);
          ("status", J.String status);
          ("exit", J.Int code);
          ("message", match message with Some m -> J.String m | None -> J.Null) ]
        @ (* present only when non-empty, so warning-free documents keep
             the original schema byte for byte *)
        (if o.warnings = [] then []
         else
           [ ( "warnings",
               J.List
                 (List.map
                    (fun (line, msg) -> J.Obj [ ("line", J.Int line); ("message", J.String msg) ])
                    o.warnings) ) ])
        @ [ ("cost", cost);
            ("bounds", bounds);
            ("provenance", provenance);
            ("counters", Obs.counters_to_json obs);
            ("spans", Obs.spans_to_json obs) ]
  in
  print_endline
    (J.to_string
       (J.Obj
          ([ ("schema", J.Int 1);
             ("tool", J.String "atbt");
             ("version", J.String version);
             ("command", J.String command) ]
          @ fields)));
  code

(* Run a command's body once and print its outcome in the chosen
   format. Text parses strictly (a malformed job line is fatal) and runs
   the solvers without a recorder; JSON parses leniently (the line
   becomes a per-line warning) and records counters and spans. *)
let run_command ~command ~algorithm ~render ~svg format body =
  let o =
    { instance = lazy J.Null; warnings = []; note = None; provenance = None; shown = Nothing }
  in
  match format with
  | "text" ->
      print_text ~render ~svg o (body ~parse:(fun p -> Ok (Io.parse_file p, [])) ~obs:None o)
  | "json" ->
      let obs = Obs.create () in
      print_json ~command ~algorithm obs o (body ~parse:Io.parse_file_lenient ~obs:(Some obs) o)
  | other -> finish (Error (Usage ("unknown format " ^ other ^ " (text|json)")))

let slotted_instance_json inst =
  J.Obj
    [ ("digest", J.String (Obs.digest (Io.to_string (Io.Slotted_instance inst))));
      ("kind", J.String "slotted");
      ("jobs", J.Int (S.num_jobs inst));
      ("horizon", J.Int (S.horizon inst));
      ("g", J.Int inst.S.g) ]

let busy_instance_json ~g jobs =
  J.Obj
    [ ("digest", J.String (Obs.digest (Io.to_string (Io.Busy_instance jobs))));
      ("kind", J.String "busy");
      ("jobs", J.Int (List.length jobs));
      ("g", J.Int g) ]

(* ------------------------------------------------------------ generate -- *)

let generate kind n g horizon seed output =
  finish
    (let* () = if n < 1 then Error (Usage "-n must be at least 1") else Ok () in
     let* () = if horizon < 1 then Error (Usage "--horizon must be at least 1") else Ok () in
     let* () = check_g g in
     let* instance =
       match kind with
       | "slotted" ->
           let params : Workload.Generate.slotted_params =
             { n; horizon; max_length = 4; slack = 4; g }
           in
           Ok (Io.Slotted_instance (Workload.Generate.slotted ~params ~seed ()))
       | "interval" -> Ok (Io.Busy_instance (Workload.Generate.interval_jobs ~n ~horizon ~seed ()))
       | "flexible" -> Ok (Io.Busy_instance (Workload.Generate.flexible_jobs ~n ~horizon ~seed ()))
       | other -> Error (Usage ("unknown kind " ^ other ^ " (slotted|interval|flexible)"))
     in
     match output with
     | None ->
         print_string (Io.to_string instance);
         Ok ()
     | Some path ->
         let* () = write_text_file path (Io.to_string instance) in
         Printf.printf "wrote %s\n" path;
         Ok ())

let generate_cmd =
  let kind =
    Arg.(value & opt string "flexible" & info [ "kind" ] ~docv:"KIND" ~doc:"slotted, interval or flexible")
  in
  let n = Arg.(value & opt int 12 & info [ "n" ] ~docv:"N" ~doc:"number of jobs") in
  let g = Arg.(value & opt int 3 & info [ "g" ] ~docv:"G" ~doc:"capacity (slotted instances)") in
  let horizon = Arg.(value & opt int 24 & info [ "horizon" ] ~docv:"T" ~doc:"time horizon") in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"random seed") in
  let output = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"output file") in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a random instance")
    Term.(const generate $ kind $ n $ g $ horizon $ seed $ output)

(* -------------------------------------------------------------- active -- *)

let check_order = function
  | "l2r" | "r2l" -> Ok ()
  | o -> Error (Usage ("unknown order " ^ o ^ " (l2r|r2l)"))

let active_solution_of = function
  | Some (CR.Opened { open_slots; schedule }) -> Some { Active.Solution.open_slots; schedule }
  | _ -> None

(* [--cascade] is sugar for the registered composite solver (the caller
   resolves [algorithm] to "cascade"). *)
let active_body path algorithm order lp_engine lp_pricing budget svg ~parse ~obs o =
  let* () = check_budget budget in
  let* instance, warnings = load parse path in
  o.warnings <- warnings;
  let* inst =
    match instance with
    | Io.Busy_instance _ -> Error (Usage "active expects a slotted instance")
    | Io.Slotted_instance inst -> Ok inst
  in
  o.instance <- lazy (slotted_instance_json inst);
  let* () = check_order order in
  let* _ = resolve_lp_engine lp_engine in
  let* _ = resolve_lp_pricing lp_pricing in
  let* solver = resolve CI.Active_slotted algorithm in
  let* r =
    run_solver solver ?budget ?obs
      ~params:[ ("order", order); ("engine", lp_engine); ("pricing", lp_pricing) ]
      (CI.Slotted inst)
  in
  o.note <- r.CR.note;
  o.provenance <- r.CR.provenance;
  let bounds = J.Obj [ ("mass", J.Int (S.mass_lower_bound inst)) ] in
  match (r.CR.status, active_solution_of r.CR.witness, r.CR.objective) with
  | CR.Exhausted { spent }, sol, incumbent ->
      (match (incumbent, sol) with
      | Some (CR.Slots c), Some sol ->
          o.shown <-
            Incumbent
              ( Printf.sprintf
                  "budget exhausted after %d ticks; best incumbent (cost %d, not proven optimal):"
                  spent c,
                sol )
      | _ -> ());
      Error (Fuel_exhausted { hint = solver.CS.exhausted_hint; spent; incumbent })
  | CR.Infeasible, _, _ ->
      o.shown <- Line "infeasible";
      Ok ("infeasible", J.Null, bounds)
  | CR.Solved, Some sol, _ ->
      let* () = write_svg svg (fun () -> Render.slotted_svg inst sol) in
      o.shown <- Schedule (inst, sol);
      Ok ("ok", J.Int (Active.Solution.cost sol), bounds)
  | CR.Solved, None, Some obj ->
      (* bound-quality solvers witness no schedule *)
      o.shown <- Line ("objective " ^ CR.objective_to_string obj);
      Ok ("ok", CR.objective_to_json obj, bounds)
  | CR.Solved, None, None -> Ok ("ok", J.Null, bounds)

let active_solve path algorithm order lp_engine lp_pricing budget cascade render svg format verbose =
  setup_logs verbose;
  let algorithm = if cascade then "cascade" else algorithm in
  run_command ~command:"active" ~algorithm ~render ~svg format
    (active_body path algorithm order lp_engine lp_pricing budget svg)

let budget_arg =
  Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"N" ~doc:"fuel budget in solver ticks (search nodes / simplex pivots)")

let cascade_arg =
  Arg.(value & flag & info [ "cascade" ] ~doc:"degrade exact -> approximation -> greedy within the budget, with provenance")

let format_arg =
  Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT" ~doc:"output format: text (human-readable, default) or json (one telemetry document on stdout)")

let lp_engine_arg =
  Arg.(value & opt string "revised" & info [ "lp-engine" ] ~docv:"ENGINE" ~doc:"simplex engine for LP-backed solvers: revised (default; another name for sparse), dense, sparse (LU + eta updates), or float (certified; see --list-solvers)")

let lp_pricing_arg =
  Arg.(value & opt string "dantzig" & info [ "lp-pricing" ] ~docv:"PRICING" ~doc:"simplex pricing policy for LP-backed solvers: dantzig (full scan, default) or devex (reference weights; see --list-solvers)")

let active_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let algorithm =
    Arg.(value & opt string "rounding" & info [ "algorithm"; "a" ] ~docv:"ALG" ~doc:"a registered active-slotted solver (see --list-solvers)")
  in
  let order = Arg.(value & opt string "r2l" & info [ "order" ] ~docv:"ORDER" ~doc:"closing order for minimal: l2r or r2l") in
  let render = Arg.(value & flag & info [ "render" ] ~doc:"print an ASCII Gantt chart") in
  let svg = Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc:"write an SVG Gantt chart") in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"trace algorithm decisions") in
  Cmd.v
    (Cmd.info "active" ~doc:"Minimize active time of a slotted instance")
    Term.(const active_solve $ path $ algorithm $ order $ lp_engine_arg $ lp_pricing_arg $ budget_arg $ cascade_arg $ render $ svg $ format_arg $ verbose)

(* ---------------------------------------------------------------- busy -- *)

let parse_placement = function
  | "greedy" -> Ok Busy.Pipeline.Greedy_placement
  | "exact" -> Ok Busy.Pipeline.Exact_placement
  | o -> Error (Usage ("unknown placement " ^ o ^ " (greedy|exact)"))

let rational q = J.String (Q.to_string q)

(* The Section-4.1 lower bounds on the pinned instance; span and demand
   profile need interval jobs. *)
let busy_bounds_json ~g pinned =
  J.Obj
    (("mass", rational (Busy.Bounds.mass ~g pinned))
    ::
    (if pinned <> [] && List.for_all B.is_interval pinned then
       [ ("span", rational (Busy.Bounds.span pinned));
         ("demand_profile", rational (Busy.Bounds.demand_profile ~g pinned)) ]
     else []))

(* Objective of a preemptive-model solver run on [jobs]. *)
let preemptive_objective ?obs name ~g jobs =
  let* solver = resolve CI.Busy_preemptive name in
  let* r = run_solver solver ?obs (CI.Preemptive { g; jobs }) in
  match r.CR.objective with
  | Some (CR.Busy q) -> Ok q
  | _ -> Error (Internal (name ^ " returned no objective"))

(* The empty instance has busy time 0 and runs no solver; otherwise the
   (possibly flexible) jobs are placed and the interval solver runs on
   the pinned instance. [cost] is the packing's exact busy time. *)
let busy_body path g algorithm placement preemptive budget svg ~parse ~obs o =
  let* () = check_budget budget in
  let* () = check_g g in
  let* instance, warnings = load parse path in
  o.warnings <- warnings;
  let* jobs =
    match instance with
    | Io.Slotted_instance _ -> Error (Usage "busy expects a busy-time instance")
    | Io.Busy_instance jobs -> Ok jobs
  in
  o.instance <- lazy (busy_instance_json ~g jobs);
  if jobs = [] then begin
    o.shown <- Line "empty instance: busy time 0";
    Ok ("ok", rational Q.zero, busy_bounds_json ~g [])
  end
  else if preemptive then begin
    let* unbounded = preemptive_objective ?obs "preemptive-unbounded" ~g jobs in
    let* bounded = preemptive_objective ?obs "preemptive" ~g jobs in
    o.shown <-
      Line
        (Printf.sprintf "preemptive busy time: unbounded capacity %s, capacity %d: %s"
           (Q.to_string unbounded) g (Q.to_string bounded));
    let bounds =
      J.Obj
        [ ("mass", rational (Busy.Bounds.mass ~g jobs)); ("preemptive_unbounded", rational unbounded) ]
    in
    Ok ("ok", rational bounded, bounds)
  end
  else
    let* placement_mode = parse_placement placement in
    let pinned = Busy.Pipeline.place placement_mode jobs in
    let* solver = resolve CI.Busy_interval algorithm in
    let* r = run_solver solver ?budget ?obs (CI.Interval { g; jobs = pinned }) in
    o.note <- r.CR.note;
    o.provenance <- r.CR.provenance;
    match (r.CR.status, r.CR.witness) with
    | CR.Exhausted { spent }, _ ->
        Option.iter
          (fun obj ->
            o.shown <-
              Line
                (Printf.sprintf
                   "budget exhausted after %d ticks; best incumbent %s (not proven optimal)" spent
                   (CR.objective_to_string obj)))
          r.CR.objective;
        Error
          (Fuel_exhausted { hint = solver.CS.exhausted_hint; spent; incumbent = r.CR.objective })
    | CR.Infeasible, _ -> Error (Internal "cascade returned no packing")
    | CR.Solved, Some (CR.Packing packing) ->
        let* () = write_svg svg (fun () -> Render.packing_svg packing) in
        o.shown <- Packing (g, packing);
        Ok ("ok", rational (Busy.Bundle.total_busy packing), busy_bounds_json ~g pinned)
    | CR.Solved, _ -> Error (Internal (solver.CS.name ^ " returned no packing"))

let busy_solve path g algorithm placement preemptive budget cascade render svg format =
  let algorithm = if preemptive then "preemptive" else if cascade then "cascade" else algorithm in
  run_command ~command:"busy" ~algorithm ~render ~svg format
    (busy_body path g algorithm placement preemptive budget svg)

let busy_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let g = Arg.(value & opt int 2 & info [ "g" ] ~docv:"G" ~doc:"machine capacity") in
  let algorithm =
    Arg.(value & opt string "greedy-tracking" & info [ "algorithm"; "a" ] ~docv:"ALG" ~doc:"a registered busy-interval solver (see --list-solvers)")
  in
  let placement =
    Arg.(value & opt string "greedy" & info [ "placement" ] ~docv:"P" ~doc:"flexible-job placement: greedy or exact")
  in
  let preemptive = Arg.(value & flag & info [ "preemptive" ] ~doc:"preemptive model (Theorems 6/7)") in
  let render = Arg.(value & flag & info [ "render" ] ~doc:"print an ASCII Gantt chart") in
  let svg = Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc:"write an SVG Gantt chart") in
  Cmd.v
    (Cmd.info "busy" ~doc:"Minimize busy time of a job set")
    Term.(const busy_solve $ path $ g $ algorithm $ placement $ preemptive $ budget_arg $ cascade_arg $ render $ svg $ format_arg)

(* -------------------------------------------------------------- bounds -- *)

let bounds path g lp_engine lp_pricing =
  finish
    (let* engine = resolve_lp_engine lp_engine in
     let* pricing = resolve_lp_pricing lp_pricing in
     let* () = check_g g in
     let* instance = load (fun p -> Ok (Io.parse_file p)) path in
     match instance with
     | Io.Slotted_instance inst ->
         Printf.printf "slotted instance: n=%d T=%d g=%d\n" (S.num_jobs inst) (S.horizon inst) inst.S.g;
         Printf.printf "mass lower bound ceil(P/g): %d\n" (S.mass_lower_bound inst);
         (match Active.Lp_model.solve ~engine ~pricing inst with
         | Some lp -> Printf.printf "LP lower bound: %s\n" (Q.to_string lp.Active.Lp_model.cost)
         | None -> print_endline "LP: infeasible");
         Ok ()
     | Io.Busy_instance jobs ->
         Printf.printf "busy instance: n=%d\n" (List.length jobs);
         Printf.printf "mass bound l(J)/g: %s\n" (Q.to_string (Busy.Bounds.mass ~g jobs));
         if List.for_all B.is_interval jobs then begin
           Printf.printf "span bound Sp(J): %s\n" (Q.to_string (Busy.Bounds.span jobs));
           Printf.printf "demand profile bound: %s\n" (Q.to_string (Busy.Bounds.demand_profile ~g jobs))
         end
         else begin
           let pinned = Busy.Placement.greedy jobs in
           Printf.printf "span bound (greedy placement): %s\n"
             (Q.to_string (Intervals.span (List.map B.interval_of pinned)))
         end;
         Ok ())

let bounds_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let g = Arg.(value & opt int 2 & info [ "g" ] ~docv:"G" ~doc:"machine capacity") in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Print lower bounds for an instance")
    Term.(const bounds $ path $ g $ lp_engine_arg $ lp_pricing_arg)

(* ----------------------------------------------------------------- sim -- *)

(* Rolling-horizon replay: the trace (slotted directly, busy converted
   through [Sim.Rolling.of_busy]) is re-solved epoch by epoch on a warm
   [Core.Session]; see lib/sim/rolling.mli for the loop semantics. *)

let sim_config algorithm lp_pricing epoch_len lookahead epoch_budget deadline_ms cold =
  let* lp_pricing = resolve_lp_pricing lp_pricing in
  let* () = if epoch_len >= 1 then Ok () else Error (Usage "--epoch-len must be at least 1") in
  let* () =
    match lookahead with
    | Some la when la < epoch_len -> Error (Usage "--lookahead must be at least --epoch-len")
    | _ -> Ok ()
  in
  let* () = check_budget epoch_budget in
  let* epoch_deadline =
    match deadline_ms with
    | None -> Ok None
    | Some 0 ->
        (* deterministic: the probe fires on the first tick of every
           epoch solve, exercising the degraded path reproducibly *)
        Ok (Some (fun () () -> true))
    | Some ms when ms > 0 ->
        Ok
          (Some
             (fun () ->
               let t0 = Unix.gettimeofday () in
               fun () -> (Unix.gettimeofday () -. t0) *. 1000.0 > float_of_int ms))
    | Some _ -> Error (Usage "--epoch-deadline-ms must be nonnegative")
  in
  Ok
    {
      Sim.Rolling.epoch_len;
      lookahead;
      algorithm;
      lp_pricing;
      epoch_budget = (match epoch_budget with Some _ -> epoch_budget | None -> Some 500_000);
      epoch_deadline;
      warm = not cold;
    }

(* The trace parses strictly in both formats (arrival times need the
   timed parse); the instance is reported only once the run finished. *)
let sim_body path g algorithm lp_pricing epoch_len lookahead epoch_budget deadline_ms cold svg
    ~parse:_ ~obs o =
  let* config = sim_config algorithm lp_pricing epoch_len lookahead epoch_budget deadline_ms cold in
  let* () = check_g g in
  let* instance, arrivals = load (fun p -> Ok (Io.parse_file_timed p)) path in
  let* inst =
    match instance with
    | Io.Slotted_instance inst -> Ok inst
    | Io.Busy_instance jobs -> (
        try Ok (Sim.Rolling.of_busy ~g jobs) with Invalid_argument msg -> Error (Usage msg))
  in
  let* r =
    match Sim.Rolling.run ?obs ~config ~arrivals inst with
    | r -> Ok r
    | exception CS.Unsupported msg -> Error (Unknown_solver msg)
  in
  let* () = write_svg svg (fun () -> Render.epochs_svg r) in
  o.instance <- lazy (slotted_instance_json inst);
  o.shown <- Rolling r;
  Ok ("ok", J.Null, J.Null)

let sim_solve path g algorithm lp_pricing epoch_len lookahead epoch_budget deadline_ms cold svg format =
  run_command ~command:"sim" ~algorithm ~render:false ~svg format
    (sim_body path g algorithm lp_pricing epoch_len lookahead epoch_budget deadline_ms cold svg)

let sim_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let g =
    Arg.(value & opt int 2 & info [ "g" ] ~docv:"G" ~doc:"capacity when converting a busy trace (slotted instances carry their own)")
  in
  let algorithm =
    Arg.(value & opt string "cascade" & info [ "algorithm"; "a" ] ~docv:"ALG" ~doc:"registered active-slotted solver for the per-epoch window re-solve")
  in
  let epoch_len =
    Arg.(value & opt int 4 & info [ "epoch-len" ] ~docv:"L" ~doc:"slots committed per epoch")
  in
  let lookahead =
    Arg.(value & opt (some int) None & info [ "lookahead" ] ~docv:"W" ~doc:"window extent in slots beyond now (default: the full horizon)")
  in
  let epoch_budget =
    Arg.(value & opt (some int) None & info [ "epoch-budget" ] ~docv:"N" ~doc:"fuel budget per epoch solve (default 500000)")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None & info [ "epoch-deadline-ms" ] ~docv:"MS" ~doc:"wall-clock deadline per epoch solve; 0 degrades every epoch deterministically")
  in
  let cold = Arg.(value & flag & info [ "cold" ] ~doc:"fresh session every epoch (no warm state; the bench baseline)") in
  let svg = Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc:"write a per-epoch SVG strip") in
  Cmd.v
    (Cmd.info "sim" ~doc:"Replay a trace through rolling-horizon re-optimization")
    Term.(const sim_solve $ path $ g $ algorithm $ lp_pricing_arg $ epoch_len $ lookahead $ epoch_budget $ deadline_ms $ cold $ svg $ format_arg)

(* --------------------------------------------------------------- serve -- *)

(* Long-running batched solve daemon: line-delimited JSON requests on
   stdin, one schema-1 response line per request on stdout. Request
   faults (malformed lines, solver crashes, expired deadlines, shed
   requests) are structured responses, never daemon exits — serve
   returns non-zero only for unusable flags (1) or a response stream
   that died under it (1, reported on stderr: the one fault that
   cannot be answered with a response). *)
let serve domains queue budget cache basis_cache inject timing =
  let config =
    let* () = check_budget budget in
    let* () = if domains >= 1 then Ok () else Error (Usage "--domains must be at least 1") in
    let* () = if queue >= 1 then Ok () else Error (Usage "--queue must be at least 1") in
    let* () = if cache >= 0 then Ok () else Error (Usage "--cache must be nonnegative") in
    let* () =
      if basis_cache >= 0 then Ok () else Error (Usage "--basis-cache must be nonnegative")
    in
    let* inject =
      match
        match inject with Some spec -> Serve.Inject.parse spec | None -> Serve.Inject.of_env ()
      with
      | Ok t -> Ok t
      | Error msg -> Error (Usage msg)
    in
    let defaults = Serve.default_config () in
    Ok
      {
        defaults with
        Serve.domains;
        queue_capacity = queue;
        default_budget = (match budget with Some _ -> budget | None -> defaults.Serve.default_budget);
        cache_capacity = cache;
        basis_cache_capacity = basis_cache;
        inject;
        timing;
      }
  in
  match config with
  | Error e -> finish (Error e)
  | Ok config -> Serve.run ~config stdin stdout

let serve_cmd =
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc:"worker domains solving in parallel (default 1: deterministic single-worker order)")
  in
  let queue =
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc:"bounded request queue capacity; requests beyond it are shed with status overloaded")
  in
  let cache =
    Arg.(value & opt int 1024 & info [ "cache" ] ~docv:"N" ~doc:"memoized answers kept (FIFO); 0 disables the cache")
  in
  let basis_cache =
    Arg.(value & opt int 64 & info [ "basis-cache" ] ~docv:"N" ~doc:"LP warm-start bases kept (FIFO), keyed on model shape; 0 disables warm-basis reuse")
  in
  let inject =
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"SPEC" ~doc:"fault injection spec crash=P,delay=MS@P,corrupt=P,seed=N (default: $(b,ATBT_INJECT))")
  in
  let timing = Arg.(value & flag & info [ "timing" ] ~doc:"add elapsed_us to every response") in
  Cmd.v
    (Cmd.info "serve" ~doc:"Serve solve requests from stdin (line-delimited JSON)")
    Term.(const serve $ domains $ queue $ budget_arg $ cache $ basis_cache $ inject $ timing)

(* -------------------------------------------------------- list-solvers -- *)

(* One line per registered solver, deterministically ordered by
   (kind, name), then one per registered LP engine (--lp-engine values;
   every engine returns exact results, so QUALITY is exact throughout);
   test/cli.t diffs this against test/list_solvers.golden. *)
let list_solvers () =
  Printf.printf "%-16s %-20s %-11s %-24s %s\n" "KIND" "NAME" "QUALITY" "FLAGS" "PAPER";
  List.iter
    (fun (s : CS.t) ->
      Printf.printf "%-16s %-20s %-11s %-24s %s\n" (CI.kind_name s.CS.kind) s.CS.name
        (CS.quality_to_string s.CS.quality)
        (CS.flags_to_string s) s.CS.paper)
    (Core.Registry.all ());
  List.iter
    (fun (name, description) ->
      Printf.printf "%-16s %-20s %-11s %-24s %s\n" "lp-engine" name "exact" "-" description)
    (Lp.engine_inventory ());
  List.iter
    (fun (name, description) ->
      Printf.printf "%-16s %-20s %-11s %-24s %s\n" "lp-pricing" name "exact" "-" description)
    (Lp.pricing_inventory ())

(* ---------------------------------------------------------------- main -- *)

let () =
  (* intercepted before Cmdliner: a top-level flag on a subcommand group
     would otherwise change the bare `atbt` behaviour *)
  if Array.exists (fun a -> a = "--list-solvers") Sys.argv then begin
    list_solvers ();
    exit 0
  end;
  let info =
    Cmd.info "atbt" ~version
      ~doc:"Minimizing active and busy time (Chang, Khuller, Mukherjee; SPAA 2014)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info [ generate_cmd; active_cmd; busy_cmd; bounds_cmd; sim_cmd; serve_cmd ]))
