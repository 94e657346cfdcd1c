(* In-memory span recorder for the traced run. A span is a name, its
   layer, the op it belongs to, its parent span, wall-clock start and
   end, and the bytes the GC allocated while it was open. The benchmark
   opens spans around its own calls into each layer; {!sink} also turns
   the library's [Obs] span events into child spans, so work a layer
   delegates (LP phases inside rounding, cascade tiers) is charged to
   the layer that did it. Spans are written out at exit. *)

type span = {
  id : int;
  name : string;
  layer : string;
  op : int;
  parent : int;  (** -1 for an op's root span *)
  start : float;
  stop : float;
  alloc : float;  (** bytes *)
}

let enabled = ref false
let done_ : span list ref = ref []
let stack : (int * string * string * float * float) list ref = ref []
let next_id = ref 0
let op_id = ref (-1)

let enter ~layer name =
  let id = !next_id in
  incr next_id;
  stack := (id, name, layer, Meas.now (), Meas.allocated_bytes ()) :: !stack

let exit () =
  match !stack with
  | [] -> invalid_arg "Trace.exit: no open span"
  | (id, name, layer, start, a0) :: rest ->
      let stop = Meas.now () in
      let alloc = Meas.allocated_bytes () -. a0 in
      stack := rest;
      let parent = match rest with (p, _, _, _, _) :: _ -> p | [] -> -1 in
      done_ := { id; name; layer; op = !op_id; parent; start; stop; alloc } :: !done_

let span ~layer name f =
  if not !enabled then f ()
  else begin
    enter ~layer name;
    Fun.protect ~finally:exit f
  end

(* Layer of a library span name: its prefix, with the cascade runner's
   [cascade.<tier>] spans charged to the budget layer. *)
let layer_of name =
  let prefix = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name in
  if prefix = "cascade" then "budget" else prefix

let sink =
  Obs.Sink.of_fn (function
    | Obs.Enter name -> if !enabled then enter ~layer:(layer_of name) name
    | Obs.Exit _ -> if !enabled then exit ()
    | Obs.Counter _ -> ())

(* A recorder whose span events become trace spans (when tracing). *)
let obs () = if !enabled then Obs.create ~sink () else Obs.create ()

(* Runs [f] as op [op]: one root span of layer ["op"]; returns the
   result and the op's wall time in ms. *)
let op op f =
  op_id := op;
  let t0 = Meas.now () in
  let r = span ~layer:"op" "op" f in
  (r, (Meas.now () -. t0) *. 1000.0)

let spans () = !done_
let ms (s : span) = (s.stop -. s.start) *. 1000.0

(* Summed duration (ms), summed allocation (bytes) and count of the
   spans named [name]. *)
let total name =
  List.fold_left
    (fun (t, a, c) s -> if s.name = name then (t +. ms s, a +. s.alloc, c + 1) else (t, a, c))
    (0.0, 0.0, 0) !done_

(* Self time per layer, in ms: each span's duration minus the part its
   children cover. The ["op"] layer's self time is the remainder no
   layer span covers. *)
let self_by_layer () =
  let child_ms = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ms s.parent
          (ms s +. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.parent)))
    !done_;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = ms s -. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.id) in
      Hashtbl.replace by_layer s.layer
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer s.layer)))
    !done_;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_layer []

let write path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"layer\":%S,\"op\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f,\"alloc_bytes\":%.0f}\n"
        s.id s.name s.layer s.op s.parent s.start s.stop s.alloc)
    (List.rev !done_)

(* Per-run accumulators for the library counters the traced stages read
   back from their [Obs] recorders. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let counted name = Option.value ~default:0.0 (Hashtbl.find_opt counts name)

(* Adds [v] to counter [name] while tracing is on; the staged replay
   with tracing off adds nothing. *)
let count name v = if !enabled then Hashtbl.replace counts name (v +. counted name)

let add_counters obs names =
  let cs = Obs.counters obs in
  List.iter (fun n -> Option.iter (fun v -> count n (float_of_int v)) (List.assoc_opt n cs)) names

(* Mean duration (ms) and allocation (bytes) per span named [name]; 0
   when no such span ran. *)
let per_call name =
  let t, a, c = total name in
  if c = 0 then (0.0, 0.0) else (t /. float_of_int c, a /. float_of_int c)

(* The layer metrics every traced run reports: self time per layer per
   op, the remainder no layer span covers, the share of op time layer
   spans cover, and the traced op latency. *)
let layer_summary ~ops =
  let per_op v = v /. float_of_int (max 1 ops) in
  let self = self_by_layer () in
  let op_ms = List.fold_left (fun acc s -> if s.layer = "op" then acc +. ms s else acc) 0.0 !done_ in
  let other = Option.value ~default:0.0 (List.assoc_opt "op" self) in
  let layers = [ "workload"; "core"; "budget"; "active"; "lp"; "busy"; "serve"; "sim"; "obs" ] in
  List.map
    (fun l -> ("self." ^ l ^ "_ms", per_op (Option.value ~default:0.0 (List.assoc_opt l self))))
    layers
  @ [ ("self.other_ms", per_op other);
      ("trace.coverage_frac", if op_ms > 0.0 then 1.0 -. (other /. op_ms) else 0.0) ]
