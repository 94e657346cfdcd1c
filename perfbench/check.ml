(* Independent answer checker. It reads only the instance and the answer
   and shares no code with lib/active, lib/busy or lib/lp: every rule is
   re-derived here from the model definitions (paper, Sections 1.1 and
   4.1). *)

module S = Workload.Slotted
module B = Workload.Bjob
module Q = Rational

type verdict =
  | Valid  (** schedule checked in full *)
  | Bound_only  (** only cost >= mass bound can be checked (preemptive, LP bound) *)
  | Unverified  (** an infeasible verdict: counted, not checked *)
  | Rejected of string

exception Reject of string

let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt
let verdict f = try f () with Reject m -> Rejected m

(* Active time: every job gets p_j distinct open slots inside its window
   (slots release+1..deadline), no slot holds more than g jobs, and the
   cost equals the number of open slots. *)
let active (inst : S.t) ~open_slots ~schedule ~cost =
  verdict @@ fun () ->
  let is_open = Hashtbl.create 64 in
  List.iter
    (fun t ->
      if Hashtbl.mem is_open t then reject "slot %d opened twice" t;
      Hashtbl.replace is_open t ())
    open_slots;
  if cost <> Hashtbl.length is_open then
    reject "cost %d but %d open slots" cost (Hashtbl.length is_open);
  let jobs = Hashtbl.create 64 in
  Array.iter (fun (j : S.job) -> Hashtbl.replace jobs j.S.id j) inst.S.jobs;
  let seen = Hashtbl.create 64 and load = Hashtbl.create 64 in
  List.iter
    (fun (id, slots) ->
      let j =
        match Hashtbl.find_opt jobs id with Some j -> j | None -> reject "unknown job %d" id
      in
      if Hashtbl.mem seen id then reject "job %d scheduled twice" id;
      Hashtbl.replace seen id ();
      let distinct = List.sort_uniq compare slots in
      if List.length distinct <> List.length slots then reject "job %d repeats a slot" id;
      if List.length distinct <> j.S.length then
        reject "job %d gets %d slots, needs %d" id (List.length distinct) j.S.length;
      List.iter
        (fun t ->
          if t <= j.S.release || t > j.S.deadline then reject "job %d outside its window at %d" id t;
          if not (Hashtbl.mem is_open t) then reject "job %d runs in closed slot %d" id t;
          let l = 1 + Option.value ~default:0 (Hashtbl.find_opt load t) in
          if l > inst.S.g then reject "slot %d holds %d > g=%d jobs" t l inst.S.g;
          Hashtbl.replace load t l)
        distinct)
    schedule;
  Array.iter
    (fun (j : S.job) -> if not (Hashtbl.mem seen j.S.id) then reject "job %d unscheduled" j.S.id)
    inst.S.jobs;
  Valid

(* Measure of a union of half-open intervals. *)
let union_measure intervals =
  let sorted = List.sort (fun (a, _) (b, _) -> Q.compare a b) intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (s, e) ->
        match cur with
        | None -> (total, Some (s, e))
        | Some (cs, ce) ->
            if Q.compare s ce <= 0 then (total, Some (cs, Q.max ce e))
            else (Q.add total (Q.sub ce cs), Some (s, e)))
      (Q.zero, None) sorted
  in
  match last with Some (s, e) -> Q.add total (Q.sub e s) | None -> total

(* Peak number of simultaneously running half-open intervals. *)
let peak intervals =
  let events =
    List.concat_map (fun (s, e) -> [ (s, 1); (e, -1) ]) intervals
    |> List.sort (fun (a, da) (b, db) ->
           let c = Q.compare a b in
           if c <> 0 then c else compare da db)
  in
  fst
    (List.fold_left
       (fun (best, cur) (_, d) ->
         let cur = cur + d in
         (max best cur, cur))
       (0, 0) events)

(* Busy time: every job is placed once, inside its window and at its
   full length; no bundle runs more than g jobs at once; and the cost
   equals the sum of the bundle spans. [jobs] are the original
   (possibly flexible) jobs, [bundles] the placed jobs per machine. *)
let busy ~g (jobs : B.t list) ~(bundles : B.t list list) ~cost =
  verdict @@ fun () ->
  let orig = Hashtbl.create 64 in
  List.iter (fun (j : B.t) -> Hashtbl.replace orig j.B.id j) jobs;
  let seen = Hashtbl.create 64 in
  let spans =
    List.map
      (fun bundle ->
        if bundle = [] then reject "empty bundle";
        let intervals =
          List.map
            (fun (p : B.t) ->
              let o =
                match Hashtbl.find_opt orig p.B.id with
                | Some o -> o
                | None -> reject "unknown job %d" p.B.id
              in
              if Hashtbl.mem seen p.B.id then reject "job %d placed twice" p.B.id;
              Hashtbl.replace seen p.B.id ();
              let start = p.B.release and stop = Q.add p.B.release o.B.length in
              if not (Q.equal p.B.length o.B.length) then reject "job %d placed at another length" p.B.id;
              if not (Q.equal p.B.deadline stop) then reject "job %d is not pinned" p.B.id;
              if Q.compare start o.B.release < 0 || Q.compare stop o.B.deadline > 0 then
                reject "job %d placed outside its window" p.B.id;
              (start, stop))
            bundle
        in
        let k = peak intervals in
        if k > g then reject "a bundle runs %d > g=%d jobs at once" k g;
        union_measure intervals)
      bundles
  in
  List.iter (fun (j : B.t) -> if not (Hashtbl.mem seen j.B.id) then reject "job %d unplaced" j.B.id) jobs;
  let total = List.fold_left Q.add Q.zero spans in
  if not (Q.equal total cost) then
    reject "cost %s but bundle spans sum to %s" (Q.to_string cost) (Q.to_string total);
  Valid

(* The mass bound l(J)/g. *)
let mass ~g (jobs : B.t list) =
  Q.div (List.fold_left (fun acc (j : B.t) -> Q.add acc j.B.length) Q.zero jobs) (Q.of_int g)

(* Preemptive busy time: the only check is cost >= l(J)/g. *)
let preemptive ~g jobs ~cost =
  if Q.compare cost (mass ~g jobs) >= 0 then Bound_only
  else Rejected (Printf.sprintf "cost %s below the mass bound" (Q.to_string cost))

let work (inst : S.t) = Array.fold_left (fun acc (j : S.job) -> acc + j.S.length) 0 inst.S.jobs

(* An LP lower bound on active time: the only check is value >= P/g. *)
let lp_bound (inst : S.t) ~value =
  if Q.compare value (Q.of_ints (work inst) inst.S.g) >= 0 then Bound_only
  else Rejected (Printf.sprintf "LP value %s below P/g" (Q.to_string value))

(* ceil(P/g), the active-time lower bound used by cost_ratio. *)
let active_bound (inst : S.t) = (work inst + inst.S.g - 1) / inst.S.g

(* A rolling replay: every executed unit lies in an open slot inside its
   job's window, no job runs more units than its length or twice in one
   slot, no slot holds more than g units; energy is the number of open
   slots, the completed count is the number of jobs run to full length,
   and every job ends completed or missed. *)
let rolling (inst : S.t) ~open_slots ~schedule ~energy ~completed ~misses =
  verdict @@ fun () ->
  let is_open = Hashtbl.create 64 in
  List.iter (fun t -> Hashtbl.replace is_open t ()) open_slots;
  if energy <> Hashtbl.length is_open then
    reject "energy %d but %d open slots" energy (Hashtbl.length is_open);
  let jobs = Hashtbl.create 64 in
  Array.iter (fun (j : S.job) -> Hashtbl.replace jobs j.S.id j) inst.S.jobs;
  let load = Hashtbl.create 64 and seen = Hashtbl.create 64 in
  let full = ref 0 in
  List.iter
    (fun (id, slots) ->
      let j = match Hashtbl.find_opt jobs id with Some j -> j | None -> reject "unknown job %d" id in
      if Hashtbl.mem seen id then reject "job %d listed twice" id;
      Hashtbl.replace seen id ();
      let distinct = List.sort_uniq compare slots in
      if List.length distinct <> List.length slots then reject "job %d repeats a slot" id;
      if List.length distinct > j.S.length then reject "job %d runs past its length" id;
      if List.length distinct = j.S.length then incr full;
      List.iter
        (fun t ->
          if t <= j.S.release || t > j.S.deadline then reject "job %d outside its window at %d" id t;
          if not (Hashtbl.mem is_open t) then reject "job %d runs in closed slot %d" id t;
          let l = 1 + Option.value ~default:0 (Hashtbl.find_opt load t) in
          if l > inst.S.g then reject "slot %d holds %d > g=%d units" t l inst.S.g;
          Hashtbl.replace load t l)
        distinct)
    schedule;
  if !full <> completed then reject "%d jobs ran to length, report says %d completed" !full completed;
  if completed + misses <> Array.length inst.S.jobs then
    reject "%d completed + %d missed <> %d jobs" completed misses (Array.length inst.S.jobs);
  Valid
