type ctx = {
  tracer : Trace.t;
  now : unit -> float;
  pid : int;
  mutable ver : unit -> int;
}

type span = { name : string; started : float }

let create ~tracer ~now ~pid () = { tracer; now; pid; ver = (fun () -> 0) }
let set_version ctx f = ctx.ver <- f
let start ctx name = { name; started = ctx.now () }

let finish ctx sp =
  let dur = ctx.now () -. sp.started in
  (* Guard against clock oddities: a span can never be negative. *)
  let dur = if dur < 0.0 then 0.0 else dur in
  if Trace.enabled ctx.tracer then
    Trace.emit ctx.tracer
      {
        Trace.at = sp.started;
        pid = ctx.pid;
        ver = ctx.ver ();
        clock = [||];
        kind = Trace.Span { name = sp.name; dur };
      };
  dur

(* Untraced, nobody sees the span: run [f] without reading the clock. *)
let with_ ctx name f =
  if not (Trace.enabled ctx.tracer) then f ()
  else
    let sp = start ctx name in
    Fun.protect ~finally:(fun () -> ignore (finish ctx sp)) f
