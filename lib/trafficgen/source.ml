type t = {
  engine : Sim.Engine.t;
  grid : Sim.Time.t;
  flows : Flow.t array;
  send : Flow.t -> unit;
  mutable task : Sim.Engine.handle option;
  mutable sent : int;
}

let create engine ?(grid = Flow.grid_default) ~flows ~send () =
  { engine; grid; flows; send; task = None; sent = 0 }

let start t =
  if Option.is_none t.task then begin
    let first =
      Sim.Time.next_multiple ~grid:t.grid
        (Sim.Time.add (Sim.Engine.now t.engine) (Sim.Time.of_int 1))
    in
    t.task <-
      Some
        (Sim.Engine.every t.engine ~start:first ~interval:t.grid (fun () ->
             Array.iter
               (fun flow ->
                 t.sent <- t.sent + 1;
                 t.send flow)
               t.flows))
  end

let stop t =
  match t.task with
  | Some h ->
    Sim.Engine.cancel h;
    t.task <- None
  | None -> ()

let packets_sent t = t.sent
