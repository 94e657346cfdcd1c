(* Clock, order statistics and process counters shared by every
   workload. *)

let now = Unix.gettimeofday

(* CPU seconds this process has used (getrusage, all threads). On a
   shared VM the wall clock also counts the time the hypervisor takes
   the vCPU away (steal), which varies from run to run; a single-domain
   op that does no I/O runs for exactly its CPU time when it is not
   preempted. *)
let cpu = Sys.time

(* Linear-interpolation quantile of [xs] ([q] in [0, 1]); nan when
   empty. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* One value per key: the median of the samples [(key, x)] that share
   it. A run that stops part-way through a pass over its pool has more
   samples of some items than of others; taking quantiles over items
   keeps the mix of items the same on every run. *)
let per_key_median samples =
  let h = Hashtbl.create 256 in
  List.iter
    (fun (k, x) -> Hashtbl.replace h k (x :: Option.value ~default:[] (Hashtbl.find_opt h k)))
    samples;
  Hashtbl.fold (fun _ xs acc -> median xs :: acc) h []

(* Bytes allocated so far by the GC, all domains: [Gc.quick_stat] folds
   in the counters of domains that have terminated, so a reading taken
   after worker domains join includes their allocation. *)
let allocated_bytes () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words) *. float_of_int (Sys.word_size / 8)

(* [VmHWM] of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

let mb bytes = bytes /. 1048576.0

(* Machine-speed reference. The host's speed drifts from minute to
   minute (other tenants, hypervisor steal, a busy sibling hyperthread);
   on active_lp the CPU-time p50 of one seed read 115 ms and 133 ms in
   two runs. Fixed kernels that share no code with the program drift
   with it, so timings divided by their slowdown relative to
   [nominal_reference_ms] stay steadier. Each kernel does random
   read-modify-writes over a table and allocates nothing, so the
   program's heap and GC state cannot move it. *)
let make_kernel ~bits =
  let size = 1 lsl bits in
  let table = Array.make size 0 in
  fun () ->
    let x = ref 12345 in
    for i = 1 to 200_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      let j = !x land (size - 1) in
      table.(j) <- table.(j) + i
    done

(* A 512 KB table, which stays in the L2 cache, and a 2 MB one, the size
   of this host's L2. Under contention the program slows more than the
   first and less than the second: in a 110 s trial on a busy host, the
   CPU time of three fixed ops (a rounding solve, a tall-window solve, a
   greedy placement) over 5 s windows grew as the 1.4-1.6th power of
   the small kernel's time and the 0.6-0.7th power of the large one's,
   and as the 0.9-1.1th power of their geometric mean, which therefore
   divides out the host's speed without bias. Its coefficient of
   variation over those windows was 6.8-8.3%, against 12.9-14.7% raw. *)
let kernels = [ make_kernel ~bits:16; make_kernel ~bits:18 ]

(* The reference time on a quiet run of the machine the baseline was
   recorded on; only the ratio to it matters. *)
let nominal_reference_ms = 0.45

(* One calibration: for each kernel the median CPU ms of [reps]
   back-to-back runs, and the geometric mean of the two medians. Only
   the first run pays for what the op before it left in the caches, and
   the median drops it, so the figure does not depend on the op that
   ran before. *)
let reference_ms ?(reps = 15) () =
  let ms k =
    median
      (List.init reps (fun _ ->
           let c = cpu () in
           k ();
           (cpu () -. c) *. 1000.0))
  in
  exp (List.fold_left (fun acc k -> acc +. log (ms k)) 0.0 kernels /. float_of_int (List.length kernels))

(* Calibrations taken through a timed loop, between ops and never inside
   one: one at the start and then one whenever [every] seconds have
   passed, so a run follows the host's drift. [spent_cpu] and
   [spent_wall] are the time they took and [spent_alloc] the bytes they
   allocated, which the loop's throughput and allocation leave out. *)
type speed = {
  mutable samples : float list;
  mutable last : float;
  mutable spent_cpu : float;
  mutable spent_wall : float;
  mutable spent_alloc : float;
}

let speed () =
  { samples = []; last = neg_infinity; spent_cpu = 0.0; spent_wall = 0.0; spent_alloc = 0.0 }

let calibrate ?(every = 1.0) s =
  let t = now () in
  if t -. s.last >= every then begin
    let c = cpu () and a = allocated_bytes () in
    s.samples <- reference_ms () :: s.samples;
    s.last <- now ();
    s.spent_wall <- s.spent_wall +. (s.last -. t);
    s.spent_cpu <- s.spent_cpu +. (cpu () -. c);
    s.spent_alloc <- s.spent_alloc +. (allocated_bytes () -. a)
  end

(* Median CPU ms per kernel run over the loop's calibrations. *)
let speed_reference_ms s = median s.samples

(* How much slower than nominal the host ran: timings are divided by it. *)
let slowdown s = speed_reference_ms s /. nominal_reference_ms
