(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent, request). Spans are recorded
   only around calls the benchmark itself makes into the program's
   public functions, and through callbacks the benchmark owns (the
   provisioner's [send], the backup-group [on_create] observer), so no
   library code changes to be traced. The benchmark runs one caller on
   one domain; the recorder is a single global stack.

   With recording off, [enter] returns -1 without reading the clock and
   [leave] does nothing: the untraced runs pay one branch per call
   site. Call sites use [enter]/[leave] rather than a closure wrapper so
   neither run allocates for tracing. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Host time taken by the benchmark's own host-speed sampler
   ([Timing]), which a signal may run in the middle of any span. *)
let stolen_ns = ref 0

(* Host nanoseconds less the sampler's time: what spans and operation
   timings are read from. *)
let clock () = now_ns () - !stolen_ns

let on = ref false

(* Span names are interned once, at module initialisation of the
   workloads, so a recorded span stores an int. *)
let name_ids : (string, int) Hashtbl.t = Hashtbl.create 32
let name_list = ref [||]

let name s =
  match Hashtbl.find_opt name_ids s with
  | Some id -> id
  | None ->
    let id = Array.length !name_list in
    Hashtbl.replace name_ids s id;
    name_list := Array.append !name_list [| s |];
    id

let name_of id = !name_list.(id)

let initial = 1 lsl 16
let names = ref (Array.make initial 0)
let starts = ref (Array.make initial 0)
let stops = ref (Array.make initial 0)
let parents = ref (Array.make initial 0)
let requests = ref (Array.make initial 0)
let count = ref 0
let current = ref (-1)
let request = ref 0

let reset () =
  count := 0;
  current := -1;
  request := 0

let grow () =
  let n = Array.length !names in
  let widen a =
    let b = Array.make (2 * n) 0 in
    Array.blit !a 0 b 0 n;
    a := b
  in
  List.iter widen [names; starts; stops; parents; requests]

(* Starts a new request: every span opened until the next call shares
   its id (one id per update, session loss, burst or schedule). *)
let new_request () = if !on then incr request

let enter nm =
  if not !on then -1
  else begin
    if !count = Array.length !names then grow ();
    let i = !count in
    count := i + 1;
    !names.(i) <- nm;
    !parents.(i) <- !current;
    !requests.(i) <- !request;
    !stops.(i) <- -1;
    current := i;
    !starts.(i) <- clock ();
    i
  end

let leave i =
  if i >= 0 then begin
    !stops.(i) <- clock ();
    current := !parents.(i)
  end

let recorded () = !count

type total = { calls : int; total_ns : int; self_ns : int }

(* Self time of a span is its duration minus the part its children
   cover. Children of one parent run one after another inside it, so
   that part is the sum of their durations. *)
let self_times () =
  let n = !count in
  let self = Array.make n 0 in
  for i = 0 to n - 1 do
    let d = !stops.(i) - !starts.(i) in
    self.(i) <- self.(i) + d;
    let p = !parents.(i) in
    if p >= 0 then self.(p) <- self.(p) - d
  done;
  self

let totals () =
  let self = self_times () in
  let acc = Hashtbl.create 32 in
  for i = 0 to !count - 1 do
    let nm = name_of !names.(i) in
    let t =
      Option.value (Hashtbl.find_opt acc nm)
        ~default:{ calls = 0; total_ns = 0; self_ns = 0 }
    in
    Hashtbl.replace acc nm
      {
        calls = t.calls + 1;
        total_ns = t.total_ns + (!stops.(i) - !starts.(i));
        self_ns = t.self_ns + self.(i);
      }
  done;
  acc

(* Checks the recording is well formed, root span by root span: every
   span is closed, lies inside its parent, and starts after its
   previous sibling stopped. These are what make a parent's duration
   the sum of its children's self times and its own. Returns (root
   spans, root spans with at least one offending span). *)
let check () =
  let n = !count in
  let root_of = Array.make n 0 in
  let offends = Array.make n false in
  let last_child = Array.make n (-1) in
  for i = 0 to n - 1 do
    let p = !parents.(i) in
    root_of.(i) <- (if p < 0 then i else root_of.(p));
    let ok =
      !stops.(i) >= !starts.(i)
      && (p < 0
         || !starts.(p) <= !starts.(i)
            && !stops.(i) <= !stops.(p)
            && (last_child.(p) < 0 || !stops.(last_child.(p)) <= !starts.(i)))
    in
    if not ok then offends.(root_of.(i)) <- true;
    if p >= 0 then last_child.(p) <- i
  done;
  let roots = ref 0 and failed = ref 0 in
  for i = 0 to n - 1 do
    if !parents.(i) < 0 then begin
      incr roots;
      if offends.(i) then incr failed
    end
  done;
  (!roots, !failed)

(* At most this many spans are written out: a traced internet-feed run
   records over three million, which would make a file of some 250 MB.
   The per-layer metrics use every recorded span. *)
let written_max = 200_000

(* Writes the first [written_max] recorded spans as CSV, one line each. *)
let write path =
  let oc = open_out path in
  output_string oc "id,name,start_ns,end_ns,parent,request\n";
  for i = 0 to min !count written_max - 1 do
    Printf.fprintf oc "%d,%s,%d,%d,%d,%d\n" i (name_of !names.(i)) !starts.(i)
      !stops.(i) !parents.(i) !requests.(i)
  done;
  close_out oc
