module Engine = Optimist_sim.Engine

(* A decision names one transition of the controlled scheduler: fire one
   enabled event, or crash a process at the current instant. Events are
   addressed by their label plus an ordinal among same-label candidates
   (two in-flight copies of a duplicated message carry the same label),
   never by engine sequence number — seq assignment depends on the
   interleaving, labels do not, so decisions replay stably. *)
type decision =
  | Fire of { kind : string; pid : int; src : int; info : string; nth : int }
  | Crash of int

let fire_of_label (l : Engine.label) ~nth =
  Fire { kind = l.l_kind; pid = l.l_pid; src = l.l_src; info = l.l_info; nth }

let compare_label (a : Engine.label) (b : Engine.label) =
  compare
    (a.l_kind, a.l_pid, a.l_src, a.l_info)
    (b.l_kind, b.l_pid, b.l_src, b.l_info)

(* Canonical view of an enabled set: candidates sorted by label (ties by
   seq), each paired with its [Fire] decision. The head of this list is
   the default choice everywhere the explorer does not branch — crucially
   NOT the engine's FIFO order, which would diverge after the explorer
   swaps two independent events upstream (seq assignment shifts, label
   order does not). *)
let canonical (cands : Engine.candidate array) :
    (Engine.candidate * decision) list =
  let sorted =
    List.sort
      (fun (a : Engine.candidate) (b : Engine.candidate) ->
        let c = compare_label a.c_label b.c_label in
        if c <> 0 then c else compare a.c_seq b.c_seq)
      (Array.to_list cands)
  in
  let rec tag prev nth = function
    | [] -> []
    | (c : Engine.candidate) :: rest ->
        let nth =
          match prev with
          | Some (p : Engine.candidate) when compare_label p.c_label c.c_label = 0
            ->
              nth + 1
          | _ -> 0
        in
        (c, fire_of_label c.c_label ~nth) :: tag (Some c) nth rest
  in
  tag None 0 sorted

(* Independence relation for sleep sets. Two fired events commute when
   they act on different processes: every labelled event (delivery,
   timer, restart, injection) mutates exactly one process's state plus
   per-destination network queues. Anonymous events (pid -1) and crash
   decisions are conservatively dependent on everything — conservatism
   only costs pruning, never soundness. *)
let independent a b =
  match (a, b) with
  | Crash _, _ | _, Crash _ -> false
  | Fire f, Fire g -> f.pid >= 0 && g.pid >= 0 && f.pid <> g.pid

(* Sleep-set propagation along an executed transition: a sleeping
   decision stays asleep only while the execution keeps commuting with
   it (Godefroid's rule). *)
let filter_sleep ~taken sleep = List.filter (independent taken) sleep

let to_string = function
  | Fire { kind; pid; src; info; nth } ->
      let b = Buffer.create 24 in
      Buffer.add_string b kind;
      if pid >= 0 then Buffer.add_string b (Printf.sprintf " p%d" pid);
      if src >= 0 then Buffer.add_string b (Printf.sprintf " <-%d" src);
      if info <> "" then Buffer.add_string b (" " ^ info);
      if nth > 0 then Buffer.add_string b (Printf.sprintf " #%d" nth);
      Buffer.contents b
  | Crash p -> Printf.sprintf "crash p%d" p

let seq_to_string ds = String.concat "; " (List.map to_string ds)
