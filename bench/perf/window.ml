(* The timed part of a run, as one or more windows (one per mesh round,
   simulator run, or second of the link floor), and the set-ups before
   them. Throughput and CPU per message are the median window's. A faster
   commit fits more windows into the same run length; a median, unlike a
   best-of, does not get better just because it draws from more windows.
   Each window and set-up is scaled by the host's slowness around it
   (see Timing). Wall time and GC work are summed. Traced runs record
   spans only inside windows. Set-up, drain and correctness checks stay
   outside. *)

type t = {
  load_bound : bool;
  mutable wall : float;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_collections : int;
  mutable setups : float list;  (** seconds, scaled *)
  mutable rates : float list;  (** messages per second, per window, scaled *)
  mutable cpus : float list;  (** CPU seconds per message, per window, scaled *)
  mutable slow : float;  (** the host's slowness around the last window *)
  mutable slows : float list;  (** around every window *)
  mutable t0 : float;
  mutable c0 : float;
  mutable g0 : Gc.stat;
}

(* [load_bound]: the throughput is the offered load's, not the host's
   speed's, so it is not scaled. *)
let create ?(load_bound = false) () =
  {
    load_bound;
    wall = 0.0;
    minor_words = 0.0;
    promoted_words = 0.0;
    major_collections = 0;
    setups = [];
    rates = [];
    cpus = [];
    slow = 1.0;
    slows = [];
    t0 = 0.0;
    c0 = 0.0;
    g0 = Gc.quick_stat ();
  }

(* Time [f], the system's set-up, scaled by [slowness]: that of the kind
   of work the set-up does. *)
let setup ?(slowness = Timing.slowness) w f =
  let slow = slowness () in
  let t0 = Timing.now () in
  let r = f () in
  w.setups <- ((Timing.now () -. t0) /. slow) :: w.setups;
  r

let start w =
  w.slow <- Timing.slowness ();
  w.g0 <- Gc.quick_stat ();
  w.c0 <- Timing.cpu ();
  Spans.start_window ();
  w.t0 <- Timing.now ()

(* [msgs]: messages delivered during this window. *)
let stop w ~msgs =
  let wall = Timing.now () -. w.t0 in
  Spans.stop_window ();
  let cpu = Timing.cpu () -. w.c0 in
  let g = Gc.quick_stat () in
  w.slow <- (w.slow +. Timing.slowness ()) /. 2.0;
  w.slows <- w.slow :: w.slows;
  w.wall <- w.wall +. wall;
  if msgs > 0 then begin
    let rate = float_of_int msgs /. wall in
    w.rates <- (if w.load_bound then rate else rate *. w.slow) :: w.rates;
    w.cpus <- (cpu /. float_of_int msgs /. w.slow) :: w.cpus
  end;
  w.minor_words <- w.minor_words +. (g.Gc.minor_words -. w.g0.Gc.minor_words);
  w.promoted_words <-
    w.promoted_words +. (g.Gc.promoted_words -. w.g0.Gc.promoted_words);
  w.major_collections <-
    w.major_collections + (g.Gc.major_collections - w.g0.Gc.major_collections)

let setup_s w = Timing.median w.setups
let rate w = Timing.median w.rates
let cpu_per_msg w = Timing.median w.cpus
let slowness w = Timing.median w.slows
