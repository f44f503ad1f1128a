type t = {
  engine : Sim.Engine.t;
  grid : Sim.Time.t;
  sink : Sink.t;
  send : Flow.t -> unit;
  flows : Flow.t array;
  scheduled_until : Sim.Time.t array;
      (* per flow: latest grid slot with a probe already scheduled *)
  last_arrival : Sim.Time.t option array;
  gaps : Sim.Time.t list array; (* straddling gaps, reversed *)
  first_send_since_delivery : Sim.Time.t option array;
  mutable failure_at : Sim.Time.t option;
  mutable probes : int;
  m_loss_gap : Obs.Histogram.t; (* per-flow outage gaps, seconds *)
}

let create engine ?(grid = Flow.grid_default) ~sink ~send ~flows () =
  let t =
    {
      engine;
      grid;
      sink;
      send;
      flows;
      scheduled_until = Array.make (Array.length flows) (Sim.Time.of_int (-1));
      last_arrival = Array.make (Array.length flows) None;
      gaps = Array.make (Array.length flows) [];
      first_send_since_delivery = Array.make (Array.length flows) None;
      failure_at = None;
      probes = 0;
      m_loss_gap =
        Obs.Metrics.histogram (Sim.Engine.metrics engine) "monitor.loss_gap_seconds";
    }
  in
  Sink.on_delivery sink (fun flow ->
      let index = flow.Flow.index in
      let now = Sim.Engine.now t.engine in
      (match t.failure_at, t.last_arrival.(index) with
      | Some at, Some prev when Sim.Time.(now > at) ->
        let gap = Sim.Time.sub now prev in
        (* A large inter-arrival gap is only an outage if some probe was
           sent well inside it and evidently lost; otherwise it is just
           the idle time between event-driven probes on a healthy
           path. The margin covers the closing probe's own path delay. *)
        let lost_probe_inside =
          match t.first_send_since_delivery.(index) with
          | Some sent ->
            Sim.Time.(sent <= Sim.Time.sub now (Sim.Time.mul t.grid 2))
          | None -> false
        in
        if Sim.Time.(gap > Sim.Time.mul t.grid 2) && lost_probe_inside then begin
          t.gaps.(index) <- gap :: t.gaps.(index);
          Obs.Histogram.observe t.m_loss_gap (Sim.Time.to_sec gap)
        end
      | _ -> ());
      t.first_send_since_delivery.(index) <- None;
      t.last_arrival.(index) <- Some now);
  t

let arm_failure t ~at = t.failure_at <- Some at

type verdict =
  | Recovered of Sim.Time.t
  | Unaffected
  | Black_holed

let verdict t index =
  match t.failure_at with
  | None -> invalid_arg "Monitor.verdict: arm_failure first"
  | Some at -> (
    match List.rev t.gaps.(index) with
    | gap :: _ -> Recovered gap
    | [] -> (
      match t.last_arrival.(index) with
      | Some last when Sim.Time.(last > at) -> Unaffected
      | Some _ | None -> Black_holed))

let outages t index = List.rev t.gaps.(index)

let send_now t index =
  t.probes <- t.probes + 1;
  if Option.is_none t.first_send_since_delivery.(index) then
    t.first_send_since_delivery.(index) <- Some (Sim.Engine.now t.engine);
  (* Guarded: even a disabled emitf allocates, and this runs per probe. *)
  let trace = Sim.Engine.trace t.engine in
  if Sim.Trace.enabled trace then
    Sim.Trace.emitf trace (Sim.Engine.now t.engine) ~category:"probe" "send flow#%d"
      index;
  t.send t.flows.(index)

let inject t index = send_now t index

let probe_flow t index =
  let slot =
    Sim.Time.next_multiple ~grid:t.grid
      (Sim.Time.add (Sim.Engine.now t.engine) (Sim.Time.of_int 1))
  in
  if Sim.Time.(t.scheduled_until.(index) < slot) then begin
    t.scheduled_until.(index) <- slot;
    ignore (Sim.Engine.schedule_at t.engine slot (fun () -> send_now t index))
  end

let probe_prefix t prefix =
  Array.iteri
    (fun index flow ->
      if Net.Prefix.mem flow.Flow.dst prefix then probe_flow t index)
    t.flows

let probe_all t = Array.iteri (fun index _ -> probe_flow t index) t.flows

let window t ~from_ ~until =
  let start = Sim.Time.next_multiple ~grid:t.grid from_ in
  let rec slots slot =
    if Sim.Time.(slot <= until) then begin
      ignore
        (Sim.Engine.schedule_at t.engine slot (fun () ->
             Array.iteri (fun index _ -> send_now t index) t.flows));
      slots (Sim.Time.add slot t.grid)
    end
  in
  slots start;
  Array.iteri (fun index _ -> t.scheduled_until.(index) <- until) t.flows

let all_alive_since t instant =
  let alive index =
    match Sink.last_arrival t.sink index with
    | Some last -> Sim.Time.(last > instant)
    | None -> false
  in
  let n = Array.length t.flows in
  let rec check index = index >= n || (alive index && check (index + 1)) in
  check 0

let convergence t ~failed_at:_ index =
  match verdict t index with
  | Recovered gap -> Some gap
  | Unaffected -> Some t.grid
  | Black_holed -> None

let probes_sent t = t.probes
