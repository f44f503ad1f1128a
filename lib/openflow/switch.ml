type control_op =
  | Op_flow_mod of Flow_table.flow_mod
  | Op_barrier of int * (Message.t -> unit)
      (* barrier replies go only to the controller that asked *)

type t = {
  engine : Sim.Engine.t;
  name : string;
  datapath_id : int64;
  flow_mod_latency : Sim.Time.t;
  forward_latency : Sim.Time.t;
  table : Flow_table.t;
  port_tx : (Net.Ethernet.frame -> unit) option array;
  mutable controllers : (Message.t -> unit) list; (* reversed registration order *)
  mutable control_queue : control_op list;  (* reversed *)
  mutable updating : bool;
  mutable flow_mods_applied : int;
  mutable flow_applied_cb : (Flow_table.flow_mod -> unit) option;
  mutable forwarded : int;
  mutable dropped : int;
  mutable packet_ins : int;
  (* metric handles, registered against the engine's registry *)
  m_flow_mods : Obs.Metrics.counter;
  m_packet_ins : Obs.Metrics.counter;
  m_rules : Obs.Metrics.gauge;
}

let trace t fmt =
  Sim.Trace.emitf (Sim.Engine.trace t.engine) (Sim.Engine.now t.engine)
    ~category:"openflow" fmt

let create engine ?(name = "switch") ?(datapath_id = 1L)
    ?(flow_mod_latency = Sim.Time.of_ms 2) ?(forward_latency = Sim.Time.of_us 4)
    ~n_ports () =
  if n_ports <= 0 then invalid_arg "Switch.create: n_ports";
  let scope = Obs.Metrics.Scope.v (Sim.Engine.metrics engine) ("switch." ^ name) in
  {
    engine;
    name;
    datapath_id;
    flow_mod_latency;
    forward_latency;
    table = Flow_table.create ();
    port_tx = Array.make n_ports None;
    controllers = [];
    control_queue = [];
    updating = false;
    flow_mods_applied = 0;
    flow_applied_cb = None;
    forwarded = 0;
    dropped = 0;
    packet_ins = 0;
    m_flow_mods = Obs.Metrics.Scope.counter scope "flow_mods_applied";
    m_packet_ins = Obs.Metrics.Scope.counter scope "packet_ins";
    m_rules = Obs.Metrics.Scope.gauge scope "rules";
  }

let name t = t.name
let table t = t.table

let check_port t port =
  if port < 0 || port >= Array.length t.port_tx then
    invalid_arg (Fmt.str "Switch %s: port %d out of range" t.name port)

let set_port_tx t ~port f =
  check_port t port;
  t.port_tx.(port) <- Some f

let output t port frame =
  check_port t port;
  match t.port_tx.(port) with
  | Some tx ->
    t.forwarded <- t.forwarded + 1;
    tx frame
  | None -> t.dropped <- t.dropped + 1

let send_to_controllers t msg =
  List.iter (fun f -> f msg) (List.rev t.controllers)

(* Where an action list sends a frame: its explicit outputs, then, for
   a flood, every attached port but [except]. Without a flood the
   action's own port list is returned as is, uncopied. *)
let egress t ~except ports flood =
  if not flood then ports
  else
    ports
    @ List.filter
        (fun p -> p <> except && Option.is_some t.port_tx.(p))
        (List.init (Array.length t.port_tx) Fun.id)

(* The match-and-action step shared by the single-packet and batched
   receive paths. Control-plane side effects (packet-ins, drop/punt
   accounting) happen immediately; the returned [(port, frame)] list is
   what must leave the switch after [forward_latency]. *)
let process_frame t ~port frame entry_opt =
  match entry_opt with
  | None ->
    if t.controllers = [] then t.dropped <- t.dropped + 1
    else begin
      t.packet_ins <- t.packet_ins + 1;
      Obs.Metrics.incr t.m_packet_ins;
      send_to_controllers t (Message.Packet_in { in_port = port; frame })
    end;
    []
  | Some entry ->
    let { Action.frame = rewritten; ports; flood; to_controller = punt } =
      Action.apply entry.Flow_table.actions frame
    in
    if punt then begin
      t.packet_ins <- t.packet_ins + 1;
      Obs.Metrics.incr t.m_packet_ins;
      send_to_controllers t (Message.Packet_in { in_port = port; frame = rewritten })
    end;
    let all_ports = egress t ~except:port ports flood in
    if all_ports = [] && not punt then begin
      t.dropped <- t.dropped + 1;
      []
    end
    else List.map (fun out_port -> (out_port, rewritten)) all_ports

let receive t ~port frame =
  check_port t port;
  let ctx = { Ofmatch.arrival_port = port; frame } in
  match process_frame t ~port frame (Flow_table.lookup t.table ctx) with
  | [] -> ()
  | outs ->
    ignore
      (Sim.Engine.schedule_after t.engine t.forward_latency (fun () ->
           List.iter (fun (out_port, f) -> output t out_port f) outs))

(* Batched data-plane input: one Flow_table.lookup_batch call and one
   scheduled pipeline event for the whole burst, instead of per-packet
   events. Outputs leave in arrival order at the same instant the
   single-packet path would have emitted them. *)
let receive_batch t ~port frames =
  check_port t port;
  if Array.length frames > 0 then begin
    let ctxs =
      Array.map (fun frame -> { Ofmatch.arrival_port = port; frame }) frames
    in
    let entries = Array.make (Array.length frames) None in
    Flow_table.lookup_batch t.table ctxs entries;
    let outs = ref [] in
    Array.iteri
      (fun i entry_opt ->
        match process_frame t ~port frames.(i) entry_opt with
        | [] -> ()
        | o -> outs := List.rev_append o !outs)
      entries;
    match List.rev !outs with
    | [] -> ()
    | outs ->
      ignore
        (Sim.Engine.schedule_after t.engine t.forward_latency (fun () ->
             List.iter (fun (out_port, f) -> output t out_port f) outs))
  end

type resolution =
  | Forward of Net.Ethernet.frame * int list
  | Punt
  | Miss
  | Blackhole

let resolution_of t ~port frame entry_opt =
  match entry_opt with
  | None -> Miss
  | Some entry ->
    let { Action.frame = rewritten; ports; flood; to_controller = punt } =
      Action.apply entry.Flow_table.actions frame
    in
    if punt then Punt
    else
      match egress t ~except:port ports flood with
      | [] -> Blackhole
      | out -> Forward (rewritten, out)

let resolve t ~port frame =
  check_port t port;
  let ctx = { Ofmatch.arrival_port = port; frame } in
  resolution_of t ~port frame (Flow_table.peek t.table ctx)

(* Counter-free burst resolution for the checker/bench: one scratch
   context per burst, then a per-frame loop that allocates nothing
   itself. [resolution_of] is the documented trust boundary — a
   [Forward] resolution inherently carries a fresh frame and port list,
   and only matching packets pay for it. *)
let[@lint.zero_alloc] resolve_batch t ~port frames out =
  check_port t port;
  if Array.length out < Array.length frames then
    invalid_arg "Switch.resolve_batch: output array shorter than input";
  if Array.length frames > 0 then begin
    let ctx =
      ({ Ofmatch.arrival_port = port; frame = Array.unsafe_get frames 0 }
      [@lint.allow "hot-path-alloc"])
      (* one scratch context per burst, mutated per frame below *)
    in
    for i = 0 to Array.length frames - 1 do
      let frame = Array.unsafe_get frames i in
      ctx.Ofmatch.frame <- frame;
      Array.unsafe_set out i (resolution_of t ~port frame (Flow_table.peek t.table ctx))
    done
  end

let attach_link t ~port link side =
  set_port_tx t ~port (fun frame -> Net.Link.send link side frame);
  Net.Link.attach link side (fun frame -> receive t ~port frame)

(* Control operations drain one at a time: each flow-mod occupies the
   update engine for [flow_mod_latency]; barriers are instantaneous but
   ordered. *)
let rec drain_control_queue t =
  match List.rev t.control_queue with
  | [] -> t.updating <- false
  | op :: rest ->
    t.control_queue <- List.rev rest;
    t.updating <- true;
    (match op with
    | Op_flow_mod fm ->
      ignore
        (Sim.Engine.schedule_after t.engine t.flow_mod_latency (fun () ->
             Flow_table.apply t.table fm;
             t.flow_mods_applied <- t.flow_mods_applied + 1;
             Obs.Metrics.incr t.m_flow_mods;
             Obs.Metrics.set t.m_rules (float_of_int (Flow_table.size t.table));
             trace t "%s: applied %a" t.name Message.pp (Message.Flow_mod fm);
             (match t.flow_applied_cb with Some f -> f fm | None -> ());
             drain_control_queue t))
    | Op_barrier (xid, reply_to) ->
      reply_to (Message.Barrier_reply xid);
      drain_control_queue t)

let enqueue_control t op =
  t.control_queue <- op :: t.control_queue;
  if not t.updating then drain_control_queue t

let handle_controller_message t reply_to msg =
  match msg with
  | Message.Hello -> reply_to Message.Hello
  | Message.Echo_request xid -> reply_to (Message.Echo_reply xid)
  | Message.Features_request ->
    reply_to
      (Message.Features_reply
         { datapath_id = t.datapath_id; n_ports = Array.length t.port_tx })
  | Message.Flow_mod fm -> enqueue_control t (Op_flow_mod fm)
  | Message.Barrier_request xid -> enqueue_control t (Op_barrier (xid, reply_to))
  | Message.Packet_out { actions; frame } ->
    let { Action.frame = rewritten; ports; flood; to_controller = _ } =
      Action.apply actions frame
    in
    List.iter (fun port -> output t port rewritten) (egress t ~except:(-1) ports flood)
  | Message.Echo_reply _ | Message.Features_reply _ | Message.Packet_in _
  | Message.Barrier_reply _ ->
    () (* switch-to-controller messages: ignore if echoed back *)

let connect_controller t to_controller =
  t.controllers <- to_controller :: t.controllers;
  fun msg -> handle_controller_message t to_controller msg

let on_flow_mod_applied t f = t.flow_applied_cb <- Some f

let flow_mods_applied t = t.flow_mods_applied
let packets_forwarded t = t.forwarded
let packets_dropped t = t.dropped
let packet_ins_sent t = t.packet_ins
let pending_flow_mods t =
  List.length
    (List.filter (function Op_flow_mod _ -> true | Op_barrier _ -> false) t.control_queue)

let idle t = (not t.updating) && t.control_queue = []
