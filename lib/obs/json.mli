(** Minimal JSON values: just enough for the trace subsystem to emit and
    re-read its own JSONL/Chrome-trace files without an external dependency.

    The printer is deterministic — object fields are emitted in the order
    given, floats with a fixed ["%.12g"] format — which is what lets a
    seeded simulation produce byte-identical trace files across runs (the
    golden-trace regression tests rely on it). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. *)

val of_string : string -> (t, string) result
(** Parses one JSON value (surrounding whitespace allowed). Rejects
    trailing garbage. Numbers with a fraction or exponent parse as
    [Float], others as [Int]. *)

(** {2 Accessors} (shallow, for decoding known shapes) *)

val mem : string -> t -> t option
(** [mem k (Obj ...)] is the first binding of [k]; [None] otherwise. *)

val to_int : t -> int option
(** [Int n] and integral [Float]s. *)

val to_float : t -> float option
val string_value : t -> string option
val list_value : t -> t list option
