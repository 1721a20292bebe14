(** Scheduler decisions, canonical ordering, and the independence
    relation behind the sleep-set partial-order reduction. *)

module Engine = Optimist_sim.Engine

type decision =
  | Fire of { kind : string; pid : int; src : int; info : string; nth : int }
      (** fire the [nth] enabled event (in engine order) carrying this
          label — label + ordinal is stable across interleavings, unlike
          engine sequence numbers *)
  | Crash of int  (** crash the process at the current instant *)

val compare_label : Engine.label -> Engine.label -> int

val canonical : Engine.candidate array -> (Engine.candidate * decision) list
(** The enabled set sorted by label (ties by seq), paired with each
    candidate's decision. The head is the checker's deterministic
    default choice wherever it does not branch. *)

val independent : decision -> decision -> bool
(** [true] when the two transitions commute: both are labelled events
    acting on distinct processes. Crashes and anonymous events are
    conservatively dependent on everything. *)

val filter_sleep : taken:decision -> decision list -> decision list
(** Sleep-set propagation: keep the sleeping decisions that commute with
    the transition just executed. *)

val to_string : decision -> string

val seq_to_string : decision list -> string
