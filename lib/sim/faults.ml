type profile = {
  label : string;
  drop : float;
  duplicate : float;
  delay_prob : float;
  delay_min : Time.t;
  delay_max : Time.t;
}

let check_probability what p =
  if p < 0.0 || p > 1.0 then
    invalid_arg (Fmt.str "Faults.profile: %s = %g outside [0, 1]" what p)

let profile ?(drop = 0.0) ?(duplicate = 0.0) ?(delay_prob = 0.0)
    ?(delay_min = Time.zero) ?(delay_max = Time.of_ms 5) label =
  check_probability "drop" drop;
  check_probability "duplicate" duplicate;
  check_probability "delay_prob" delay_prob;
  if Time.(delay_max < delay_min) then
    invalid_arg "Faults.profile: delay_min > delay_max";
  { label; drop; duplicate; delay_prob; delay_min; delay_max }

let none = profile "none"
let lossy = profile ~drop:0.10 ~delay_prob:0.20 ~delay_max:(Time.of_ms 5) "lossy"

let chaos =
  profile ~drop:0.20 ~duplicate:0.10 ~delay_prob:0.50 ~delay_max:(Time.of_ms 20)
    "chaos"

let blackout = profile ~drop:1.0 "blackout"

(* Same drop-everything behavior as [blackout], but a distinct label so
   traces and scenario logs can tell a partitioned controller apart from
   a dead switch: a partition is expected to heal, and the recovery
   machinery (periodic resync) is what the scenario is exercising. *)
let partition = profile ~drop:1.0 "partition"

let of_name = function
  | "none" -> Some none
  | "lossy" -> Some lossy
  | "chaos" -> Some chaos
  | "blackout" -> Some blackout
  | "partition" -> Some partition
  | _ -> None

type t = {
  engine : Engine.t;
  name : string;
  rng : Rng.t;
  mutable active : profile;
  mutable base : profile;  (* restored when the last [during] window closes *)
  mutable windows_open : int;
  mutable decisions : int;
  mutable dropped : int;
  mutable delayed : int;
  mutable duplicated : int;
  m_decisions : Obs.Metrics.counter;
  m_dropped : Obs.Metrics.counter;
  m_delayed : Obs.Metrics.counter;
  m_duplicated : Obs.Metrics.counter;
}

let create engine ?(name = "faults") ~seed active =
  let scope = Obs.Metrics.Scope.v (Engine.metrics engine) ("faults." ^ name) in
  {
    engine;
    name;
    rng = Rng.create ~seed;
    active;
    base = active;
    windows_open = 0;
    decisions = 0;
    dropped = 0;
    delayed = 0;
    duplicated = 0;
    m_decisions = Obs.Metrics.Scope.counter scope "decisions";
    m_dropped = Obs.Metrics.Scope.counter scope "dropped";
    m_delayed = Obs.Metrics.Scope.counter scope "delayed";
    m_duplicated = Obs.Metrics.Scope.counter scope "duplicated";
  }

let trace t fmt =
  Trace.emitf (Engine.trace t.engine) (Engine.now t.engine) ~category:"faults" fmt

let apply_profile t p =
  if p.label <> t.active.label then
    trace t "%s: profile %s -> %s" t.name t.active.label p.label;
  t.active <- p

let set_profile t p =
  t.base <- p;
  if t.windows_open = 0 then apply_profile t p

let active t = t.active

(* Windows are counted, not stacked: overlapping windows each apply
   their profile on open, and the base profile returns only when the
   last one closes. Saving "the profile active at [from]" instead would
   freeze an overlapping window's profile in place forever. *)
let during t ~from ~until p =
  if Time.(until < from) then invalid_arg "Faults.during: until < from";
  ignore
    (Engine.schedule_at t.engine from (fun () ->
         t.windows_open <- t.windows_open + 1;
         apply_profile t p));
  ignore
    (Engine.schedule_at t.engine until (fun () ->
         t.windows_open <- t.windows_open - 1;
         if t.windows_open = 0 then apply_profile t t.base))

type verdict =
  | Drop
  | Deliver of Time.t list

let hit t p = p > 0.0 && Rng.float t.rng 1.0 < p

(* Uniform extra delay in [delay_min, delay_max]. *)
let draw_delay t =
  let p = t.active in
  let span = Float.of_int (Time.to_int (Time.sub p.delay_max p.delay_min)) in
  let extra = if span <= 0.0 then 0.0 else Rng.float t.rng span in
  Time.add p.delay_min (Time.of_int (Float.to_int extra))

let copy_delay t =
  if hit t t.active.delay_prob then begin
    t.delayed <- t.delayed + 1;
    Obs.Metrics.incr t.m_delayed;
    draw_delay t
  end
  else Time.zero

let plan t =
  t.decisions <- t.decisions + 1;
  Obs.Metrics.incr t.m_decisions;
  if hit t t.active.drop then begin
    t.dropped <- t.dropped + 1;
    Obs.Metrics.incr t.m_dropped;
    Drop
  end
  else begin
    let first = copy_delay t in
    if hit t t.active.duplicate then begin
      t.duplicated <- t.duplicated + 1;
      Obs.Metrics.incr t.m_duplicated;
      Deliver [first; copy_delay t]
    end
    else Deliver [first]
  end

let decisions t = t.decisions
let dropped t = t.dropped
let delayed t = t.delayed
let duplicated t = t.duplicated
