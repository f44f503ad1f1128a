(* Host time at nominal host speed.

   On a shared host, co-tenants slow every instruction by up to 40 % in
   episodes lasting from seconds to minutes — longer than an operation,
   often longer than a run. While a run measures, a timer therefore
   samples the host's speed every [sample_every_s]: it times a fixed
   calibration kernel and records when. A window of operations is
   reported scaled to a host on which the kernel takes
   [nominal_kernel_s], using the kernel times sampled during the window
   (or the nearest sample): contention that slows both cancels, while a
   change to the program moves only its own timings. The time the
   sampler takes is left out of every timing ([clock]).

   The kernel is benchmark code that shares nothing with the program: a
   sort of 4096 ints and as many inserts into and lookups in an
   open-addressing table, on preallocated arrays, so it allocates nothing
   and never waits on the program's garbage collector. *)

let nominal_kernel_s = 1e-3
let sample_every_s = 0.1

let kernel_n = 4096
let kernel_keys = Array.init kernel_n (fun i -> (i * 2654435761) land 0x3FFFFFFF)
let kernel_sorted = Array.make kernel_n 0
let kernel_table = Array.make (2 * kernel_n) (-1)

let kernel () =
  Array.blit kernel_keys 0 kernel_sorted 0 kernel_n;
  Array.sort Int.compare kernel_sorted;
  Array.fill kernel_table 0 (2 * kernel_n) (-1);
  let mask = (2 * kernel_n) - 1 in
  let rec slot k i =
    if kernel_table.(i) = -1 || kernel_table.(i) = k then i else slot k ((i + 1) land mask)
  in
  Array.iter (fun k -> kernel_table.(slot k (k land mask)) <- k) kernel_sorted;
  Array.fold_left (fun acc k -> acc + slot k (k land mask)) 0 kernel_keys

(* The kernel's time now: the best of three runs after a warm-up run,
   so a cache the program left cold or a single preemption does not
   count. *)
let kernel_s () =
  ignore (Sys.opaque_identity (kernel ()));
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Span.now_ns () in
    ignore (Sys.opaque_identity (kernel ()));
    best := Float.min !best (float_of_int (Span.now_ns () - t0) *. 1e-9)
  done;
  !best

(* Samples: when (host ns) and the kernel's time then. *)
let sampled_at = Stats.samples ()
let sampled_kernel = Stats.samples ()

let sample () =
  let t = Span.now_ns () in
  Stats.add sampled_at (float_of_int t);
  Stats.add sampled_kernel (kernel_s ());
  Span.stolen_ns := !Span.stolen_ns + (Span.now_ns () - t)

let interval v = { Unix.it_interval = v; it_value = v }

(* Starts sampling, from an empty record. *)
let start () =
  sampled_at.n <- 0;
  sampled_kernel.n <- 0;
  Span.stolen_ns := 0;
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample ()));
  sample ();
  ignore (Unix.setitimer Unix.ITIMER_REAL (interval sample_every_s))

let stop () =
  ignore (Unix.setitimer Unix.ITIMER_REAL (interval 0.0));
  Sys.set_signal Sys.sigalrm Sys.Signal_default

(* Host nanoseconds less the time spent sampling: differences of it time
   the program alone. *)
let clock = Span.clock
let elapsed c0 = float_of_int (clock () - c0) *. 1e-9

(* The kernel's time over host interval [t0, t1] (raw ns): the median of
   the samples taken in it, else the nearest sample, else nominal (no
   sampling has run). *)
let kernel_during t0 t1 =
  let inside = ref [] and nearest = ref None in
  for i = 0 to sampled_at.n - 1 do
    let at = sampled_at.data.(i) and k = sampled_kernel.data.(i) in
    if at >= float_of_int t0 && at <= float_of_int t1 then inside := k :: !inside;
    let d = Float.min (Float.abs (at -. float_of_int t0)) (Float.abs (at -. float_of_int t1)) in
    match !nearest with
    | Some (d', _) when d' <= d -> ()
    | Some _ | None -> nearest := Some (d, k)
  done;
  match !inside, !nearest with
  | [], Some (_, k) -> k
  | [], None -> nominal_kernel_s
  | ks, _ -> Stats.median (Array.of_list ks)

(* Host seconds [dt] measured while the kernel took [kernel], at nominal
   host speed. *)
let normalize ~kernel dt = dt *. nominal_kernel_s /. kernel

(* Operation timings cut into windows: [close] summarises the samples
   added since the previous [close] by their median, their p99 and the
   operations per second of operation time, with the kernel's time over
   the window. *)
type windows = {
  all : Stats.samples;
  mutable start : int;
  mutable opened : int;  (** host ns the current window opened at *)
  p50 : Stats.samples;
  p99 : Stats.samples;
  per_s : Stats.samples;
  kernels : Stats.samples;
}

let windows () =
  { all = Stats.samples (); start = 0; opened = Span.now_ns (); p50 = Stats.samples ();
    p99 = Stats.samples (); per_s = Stats.samples (); kernels = Stats.samples () }

let close w =
  let lo = w.start and hi = w.all.n in
  let now = Span.now_ns () in
  if hi > lo then begin
    Stats.add w.p50 (Stats.percentile_range w.all ~lo ~hi 50.0);
    Stats.add w.p99 (Stats.percentile_range w.all ~lo ~hi 99.0);
    Stats.add w.per_s (float_of_int (hi - lo) /. Stats.sum (Array.sub w.all.data lo (hi - lo)));
    Stats.add w.kernels (kernel_during w.opened now);
    w.start <- hi
  end;
  w.opened <- now

(* Runs [f] as one operation that is a window of its own. Returns [f]'s
   result and its host seconds. *)
let window_op w f =
  w.opened <- Span.now_ns ();
  let c0 = clock () in
  let x = f () in
  let dt = elapsed c0 in
  Stats.add w.all dt;
  close w;
  (x, dt)

(* The median over windows of a per-window time (or rate), each at
   nominal host speed. *)
let normalized_time w (stat : Stats.samples) =
  Stats.median
    (Array.init stat.n (fun i -> normalize ~kernel:w.kernels.data.(i) stat.data.(i)))

let normalized_rate w (stat : Stats.samples) =
  Stats.median
    (Array.init stat.n (fun i -> stat.data.(i) *. w.kernels.data.(i) /. nominal_kernel_s))
